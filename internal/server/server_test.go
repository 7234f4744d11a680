package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qav/internal/engine"
	"qav/internal/fault"
	"qav/internal/leaktest"
	"qav/internal/limits"
	"qav/internal/workload"
)

func post(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: non-JSON response %q", path, rec.Body.String())
	}
	return rec, out
}

func TestHealthz(t *testing.T) {
	h := New()
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
}

func TestRewriteEndpoint(t *testing.T) {
	h := New()
	rec, out := post(t, h, "/v1/rewrite",
		`{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if out["answerable"] != true {
		t.Fatalf("answerable = %v", out["answerable"])
	}
	if !strings.Contains(out["union"].(string), "//Trials//Trial[//Status]") {
		t.Errorf("union = %v", out["union"])
	}
	crs := out["crs"].([]any)
	if len(crs) == 0 {
		t.Fatal("no CRs")
	}
	first := crs[0].(map[string]any)
	if first["compensation"] == "" {
		t.Error("missing compensation")
	}
}

func TestRewriteWithSchemaEndpoint(t *testing.T) {
	h := New()
	body := `{"query":"//Auction[//item]//name","view":"//Auction//person","schema":"root Auctions\nAuctions -> Auction*\nAuction -> open_auction* closed_auction?\nopen_auction -> item bids?\nclosed_auction -> item person? buyer?\nbids -> person+\nbuyer -> person\nperson -> name\nitem -> name\n"}`
	rec, out := post(t, h, "/v1/rewrite", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if out["union"] != "//Auction//person//name" {
		t.Errorf("union = %v", out["union"])
	}
}

func TestRewriteUnanswerable(t *testing.T) {
	h := New()
	rec, out := post(t, h, "/v1/rewrite", `{"query":"/b/d","view":"/a/b//c"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if out["answerable"] != false {
		t.Errorf("answerable = %v", out["answerable"])
	}
}

func TestRewriteErrors(t *testing.T) {
	h := New()
	cases := []struct {
		body string
		code int
	}{
		{`{`, http.StatusBadRequest},
		{`{"query":"///","view":"//a"}`, http.StatusUnprocessableEntity},
		{`{"query":"//a","view":"//b","bogus":1}`, http.StatusBadRequest},
		{`{"query":"//a","view":"//b","schema":"not a schema"}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		rec, out := post(t, h, "/v1/rewrite", tc.body)
		if rec.Code != tc.code {
			t.Errorf("body %q: status %d, want %d", tc.body, rec.Code, tc.code)
		}
		if out["error"] == nil {
			t.Errorf("body %q: no error field", tc.body)
		}
	}
}

func TestAnswerEndpoint(t *testing.T) {
	h := New()
	body := `{
	  "query": "//Trials[//Status]//Trial/Patient",
	  "view": "//Trials//Trial",
	  "document": "<PharmaLab><Trials><Trial><Patient>John</Patient><Status/></Trial><Trial><Patient>Jen</Patient></Trial></Trials></PharmaLab>"
	}`
	rec, out := post(t, h, "/v1/answer", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	answers := out["answers"].([]any)
	if len(answers) != 1 {
		t.Fatalf("answers = %v", answers)
	}
	a := answers[0].(map[string]any)
	if a["text"] != "John" {
		t.Errorf("answer = %v", a)
	}
	if out["viewNodes"].(float64) != 2 {
		t.Errorf("viewNodes = %v", out["viewNodes"])
	}
	if out["directAnswerCount"].(float64) != 2 {
		t.Errorf("directAnswerCount = %v", out["directAnswerCount"])
	}
}

func TestAnswerUnanswerable(t *testing.T) {
	h := New()
	rec, _ := post(t, h, "/v1/answer",
		`{"query":"/b","view":"/a//c","document":"<a/>"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestContainEndpoint(t *testing.T) {
	h := New()
	rec, out := post(t, h, "/v1/contain", `{"p":"//a/b","q":"//a//b"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if out["pInQ"] != true || out["qInP"] != false {
		t.Errorf("contain = %v", out)
	}
	// Schema-relative: the Figure 2 pair.
	body := `{"p":"//Auction//person//name","q":"//Auction[//item]//name","schema":"root Auctions\nAuctions -> Auction*\nAuction -> open_auction* closed_auction?\nopen_auction -> item bids?\nclosed_auction -> item person? buyer?\nbids -> person+\nbuyer -> person\nperson -> name\nitem -> name\n"}`
	rec, out = post(t, h, "/v1/contain", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if out["pInQ"] != true {
		t.Errorf("S-containment = %v", out)
	}
}

func TestMethodRouting(t *testing.T) {
	h := New()
	req := httptest.NewRequest("GET", "/v1/rewrite", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/rewrite = %d, want 405", rec.Code)
	}
}

func TestCacheStats(t *testing.T) {
	h := New()
	body := `{"query":"//a[b]","view":"//a"}`
	post(t, h, "/v1/rewrite", body)
	post(t, h, "/v1/rewrite", body) // cache hit
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["cacheHits"] < 1 || out["cacheMisses"] < 1 || out["cacheEntries"] < 1 {
		t.Errorf("stats = %v", out)
	}
}

// A body is exactly one JSON object: trailing garbage after it is
// rejected instead of silently ignored, while trailing whitespace is
// fine.
func TestDecodeTrailingGarbage(t *testing.T) {
	h := New()
	valid := `{"query":"//a[b]","view":"//a"}`
	cases := []struct {
		name string
		body string
		code int
	}{
		{"clean", valid, http.StatusOK},
		{"trailing whitespace", valid + "\n  \t", http.StatusOK},
		{"second object", valid + `{"query":"//x","view":"//y"}`, http.StatusBadRequest},
		{"empty second object", valid + `{}`, http.StatusBadRequest},
		{"trailing token", valid + ` true`, http.StatusBadRequest},
		{"trailing text", valid + ` garbage`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec, out := post(t, h, "/v1/rewrite", tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.code, rec.Body.String())
		}
		if tc.code != http.StatusOK && out["error"] == nil {
			t.Errorf("%s: no error field", tc.name)
		}
	}
}

// Oversized bodies are refused with 413, not a generic 400.
func TestBodyTooLarge(t *testing.T) {
	h := New()
	body := `{"query":"` + strings.Repeat("a", maxBodyBytes+1) + `","view":"//a"}`
	rec, out := post(t, h, "/v1/rewrite", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	if out["error"] == nil {
		t.Error("no error field")
	}
}

// writeJSON must not write a 200 header (or half a body) when encoding
// fails; the client gets one well-formed error object with a 500.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, math.NaN()) // NaN has no JSON encoding
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("response is not one JSON object: %q", rec.Body.String())
	}
	if out["error"] == nil {
		t.Error("no error field")
	}
}

// Error messages keep their double quotes: JSON escaping handles them,
// so `unknown field "bogus"` must not arrive as 'bogus'.
func TestErrorMessagePreservesQuotes(t *testing.T) {
	h := New()
	rec, out := post(t, h, "/v1/rewrite", `{"query":"//a","view":"//b","bogus":1}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, `"bogus"`) {
		t.Errorf("error %q lost its quoted field name", msg)
	}
	if strings.Contains(msg, "'bogus'") {
		t.Errorf("error %q had its quotes mangled to apostrophes", msg)
	}
}

// GET /metrics reports per-endpoint request/status/latency counters and
// per-stage pipeline timings after traffic has flowed.
func TestMetricsEndpoint(t *testing.T) {
	h := New()
	post(t, h, "/v1/rewrite", `{"query":"//a[b]","view":"//a"}`) // 200, cold: stages run
	post(t, h, "/v1/rewrite", `{bad`)                            // 400

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Endpoints map[string]struct {
			Requests int64            `json:"requests"`
			Status   map[string]int64 `json:"status"`
			Latency  struct {
				Count int64 `json:"count"`
			} `json:"latency"`
		} `json:"endpoints"`
		Stages map[string]struct {
			Count   int64 `json:"count"`
			TotalNs int64 `json:"total_ns"`
		} `json:"stages"`
		Cache map[string]int64 `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	ep, ok := out.Endpoints["POST /v1/rewrite"]
	if !ok {
		t.Fatalf("no POST /v1/rewrite endpoint section: %s", rec.Body.String())
	}
	if ep.Requests != 2 || ep.Status["2xx"] != 1 || ep.Status["4xx"] != 1 {
		t.Errorf("rewrite endpoint = %+v", ep)
	}
	if ep.Latency.Count != 2 {
		t.Errorf("latency count = %d, want 2", ep.Latency.Count)
	}
	for _, st := range []string{"parse", "enumerate", "buildcr", "contain"} {
		if out.Stages[st].Count == 0 || out.Stages[st].TotalNs == 0 {
			t.Errorf("stage %s not recorded: %+v", st, out.Stages[st])
		}
	}
	if out.Cache["misses"] != 1 {
		t.Errorf("cache = %v", out.Cache)
	}
}

// GET /v1/slowlog returns queries over the threshold with their stage
// breakdown, newest first.
func TestSlowLogEndpoint(t *testing.T) {
	eng := engine.New(engine.Config{CacheSize: 16, SlowQueryThreshold: time.Nanosecond})
	h := NewWith(eng)
	post(t, h, "/v1/rewrite", `{"query":"//a[b]","view":"//a"}`) // any miss exceeds 1ns

	req := httptest.NewRequest("GET", "/v1/slowlog", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Total   int64 `json:"total"`
		Entries []struct {
			Query      string           `json:"query"`
			View       string           `json:"view"`
			DurationNs int64            `json:"duration_ns"`
			StageNs    map[string]int64 `json:"stage_ns"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 1 || len(out.Entries) != 1 {
		t.Fatalf("slowlog = %s", rec.Body.String())
	}
	// The log stores canonical forms so identical queries collate
	// regardless of how the client spelled them.
	e := out.Entries[0]
	if e.Query == "" || e.View == "" || e.DurationNs <= 0 {
		t.Errorf("entry = %+v", e)
	}
	if len(e.StageNs) == 0 {
		t.Error("entry has no stage breakdown")
	}
}

// The handler must be safe under concurrent requests (shared cache).
func TestConcurrentRequests(t *testing.T) {
	h := New()
	var wg sync.WaitGroup
	queries := []string{"//a[b]", "//a[c]", "//a//b", "//x/y"}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(w+i)%len(queries)]
				body := `{"query":"` + q + `","view":"//a"}`
				req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d for %s", rec.Code, q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// A handler panic becomes a clean 500 with a JSON error body, the stack
// lands in the slow-query log, and the server keeps serving.
func TestHandlerPanicRecovered(t *testing.T) {
	eng := engine.New(engine.Config{})
	h := NewWith(eng)
	defer fault.Disable()
	if err := fault.Enable(&fault.Plan{Seed: 21, Injections: []fault.Injection{
		{Point: "server.handler", Action: fault.ActPanic},
	}}); err != nil {
		t.Fatal(err)
	}
	rec, out := post(t, h, "/v1/rewrite", `{"query":"//a","view":"//a"}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if out["error"] == nil {
		t.Fatal("500 without a JSON error body")
	}
	slow := eng.SlowLog().Snapshot()
	if len(slow.Entries) == 0 || slow.Entries[0].Stack == "" {
		t.Fatalf("panic stack not recorded in the slow log: %+v", slow.Entries)
	}
	// The server survives: the same request succeeds once disarmed.
	fault.Disable()
	rec, _ = post(t, h, "/v1/rewrite", `{"query":"//a","view":"//a"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-recovery status = %d, want 200", rec.Code)
	}
}

// Saturation surfaces as 429 + Retry-After, the shed counter appears in
// GET /metrics, and in-flight requests complete normally.
func TestSaturationSheds429(t *testing.T) {
	eng := engine.New(engine.Config{Gate: limits.New(limits.Config{MaxInFlight: 1, MaxQueue: 0})})
	h := NewWith(eng)
	defer fault.Disable()
	if err := fault.Enable(&fault.Plan{Seed: 22, Injections: []fault.Injection{
		{Point: "engine.compute", Action: fault.ActDelay, Delay: 300 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(`{"query":"//a[b]//c","view":"//a//c"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		first <- rec
	}()
	deadline := time.Now().Add(2 * time.Second)
	for eng.MetricsSnapshot().Gate.InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the gate")
		}
		time.Sleep(time.Millisecond)
	}
	rec, out := post(t, h, "/v1/rewrite", `{"query":"//x[y]//z","view":"//x//z"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %v)", rec.Code, out)
	}
	// The header must parse as a positive integer: Retry-After: 0 would
	// invite an immediate retry stampede from well-behaved clients.
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Error("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", ra)
	}
	if rec := <-first; rec.Code != http.StatusOK {
		t.Errorf("admitted request status = %d, want 200", rec.Code)
	}
	snap := eng.MetricsSnapshot()
	if snap.Gate == nil || snap.Gate.Shed != 1 {
		t.Errorf("gate metrics = %+v, want shed=1", snap.Gate)
	}
}

// A deadline expiring mid-enumeration returns HTTP 200 with
// "partial": true and a nonempty sound union.
func TestDeadlinePartialOver200(t *testing.T) {
	eng := engine.New(engine.Config{Timeout: 50 * time.Millisecond})
	h := NewWith(eng)
	// The Figure 8 family at n=12 has 2^12 useful embeddings plus a
	// quadratic redundancy matrix: many seconds uninterrupted.
	q := workload.Fig8Query(12).String()
	v := workload.Fig8View().String()
	rec, out := post(t, h, "/v1/rewrite", `{"query":"`+q+`","view":"`+v+`"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %v)", rec.Code, out)
	}
	if out["partial"] != true || out["partialReason"] != "deadline" {
		t.Fatalf("partial fields = %v/%v, want true/deadline", out["partial"], out["partialReason"])
	}
	if out["answerable"] != true || out["union"] == "" {
		t.Errorf("partial response has no sound union: %v", out)
	}
}

// A real listener cycle: start the handler under an http.Server, push
// a mix of healthy and deadline-walled requests through it, shut the
// server down, and verify every goroutine the cycle started — HTTP
// conn handlers, engine pipeline workers — is gone.
func TestServerShutdownNoLeak(t *testing.T) {
	defer leaktest.Check(t)()
	eng := engine.New(engine.Config{Timeout: 50 * time.Millisecond})
	srv := httptest.NewServer(NewWith(eng))

	body := `{"query":"` + workload.Fig8Query(12).String() + `","view":"` + workload.Fig8View().String() + `"}`
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/rewrite", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Errorf("read: %v", err)
			}
			// 200 is the deadline partial; 504 is the legitimate
			// outcome when the 50ms wall expires before enumeration
			// yields any sound prefix (scheduling pressure under a
			// parallel test run). Either way the workers must drain —
			// the deferred leak check is the real assertion here.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
				t.Errorf("status = %d, want 200 or 504", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	srv.Close()
	// Idle keep-alive client connections hold conn goroutines; drop
	// them so the leak check measures the server, not the client pool.
	http.DefaultClient.CloseIdleConnections()
}

func TestRegisterAndAnswerStoredView(t *testing.T) {
	h := New()
	rec, out := post(t, h, "/v1/views", `{
	  "name": "src1",
	  "view": "//Trials//Trial",
	  "document": "<PharmaLab><Trials><Trial><Patient>John</Patient><Status/></Trial><Trial><Patient>Jen</Patient></Trial></Trials></PharmaLab>"
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body.String())
	}
	if out["trees"].(float64) != 2 {
		t.Fatalf("register: %v", out)
	}

	req := httptest.NewRequest("GET", "/v1/views", nil)
	lrec := httptest.NewRecorder()
	h.ServeHTTP(lrec, req)
	var listed struct {
		Views []string       `json:"views"`
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed.Views) != 1 || listed.Views[0] != "src1" {
		t.Fatalf("views = %v", listed.Views)
	}
	if listed.Stats["views"].(float64) != 1 || listed.Stats["shards"].(float64) < 1 {
		t.Fatalf("stats = %v", listed.Stats)
	}

	// Ranked candidate selection for a query touching the view's tags.
	req = httptest.NewRequest("GET", "/v1/views?q=//Trials//Trial&k=5", nil)
	lrec = httptest.NewRecorder()
	h.ServeHTTP(lrec, req)
	var sel struct {
		Selected []map[string]any `json:"selected"`
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &sel); err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected) != 1 || sel.Selected[0]["name"] != "src1" {
		t.Fatalf("selected = %v", sel.Selected)
	}

	rec, out = post(t, h, "/v1/answer", `{"query":"//Trials//Trial/Patient","viewName":"src1"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("stored answer: status %d: %s", rec.Code, rec.Body.String())
	}
	answers := out["answers"].([]any)
	if len(answers) != 2 {
		t.Fatalf("answers = %v", answers)
	}
	if out["viewTrees"].(float64) != 2 {
		t.Errorf("viewTrees = %v", out["viewTrees"])
	}
	pl, ok := out["plan"].(map[string]any)
	if !ok || pl["programs"].(float64) < 1 {
		t.Fatalf("plan = %v", out["plan"])
	}
	if _, ok := pl["backends"].([]any); !ok {
		t.Fatalf("plan backends missing: %v", pl)
	}

	// Unknown stored view is a semantic rejection, not a crash.
	rec, _ = post(t, h, "/v1/answer", `{"query":"//a","viewName":"nope"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown view: status %d", rec.Code)
	}
}

func TestAnswerBackendField(t *testing.T) {
	h := New()
	doc := `<a><b><c/></b></a>`
	for _, be := range []string{"structjoin", "treedp", "stream", "auto"} {
		rec, out := post(t, h, "/v1/answer",
			`{"query":"//a//c","view":"//a//b","document":"`+doc+`","backend":"`+be+`"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("backend %s: status %d: %s", be, rec.Code, rec.Body.String())
		}
		if len(out["answers"].([]any)) != 1 {
			t.Fatalf("backend %s: answers = %v", be, out["answers"])
		}
	}
	rec, _ := post(t, h, "/v1/answer",
		`{"query":"//a//c","view":"//a//b","document":"`+doc+`","backend":"warp"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad backend: status %d", rec.Code)
	}
}

func TestAnswerViewNameExclusive(t *testing.T) {
	h := New()
	rec, _ := post(t, h, "/v1/answer",
		`{"query":"//a","viewName":"x","view":"//a","document":"<a/>"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestRegisterViewValidation(t *testing.T) {
	h := New()
	for _, tc := range []struct{ name, body string }{
		{"empty name", `{"name":"","view":"//a","document":"<a/>"}`},
		{"bad view", `{"name":"x","view":"((","document":"<a/>"}`},
		{"bad document", `{"name":"x","view":"//a","document":"<broken"}`},
	} {
		rec, _ := post(t, h, "/v1/views", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d", tc.name, rec.Code)
		}
	}
}

func TestMetricsPlanStages(t *testing.T) {
	h := New()
	rec, _ := post(t, h, "/v1/answer",
		`{"query":"//a//c","view":"//a//b","document":"<a><b><c/></b></a>"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("answer: status %d: %s", rec.Code, rec.Body.String())
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, req)
	var snap map[string]any
	if err := json.Unmarshal(mrec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	stages := snap["stages"].(map[string]any)
	for _, st := range []string{"plan.compile", "plan.index", "plan.exec"} {
		s, ok := stages[st].(map[string]any)
		if !ok || s["count"].(float64) == 0 {
			t.Errorf("stage %s not recorded: %v", st, stages[st])
		}
	}
	eng := snap["engine"].(map[string]any)
	if eng["planCacheMisses"].(float64) != 1 {
		t.Errorf("planCacheMisses = %v", eng["planCacheMisses"])
	}
}

// Stored-view answers and containment checks parse through the engine's
// interner like rewrites do: two canonical-twin spellings of a viewName
// query return byte-identical bodies, the second collapses onto the
// first's parsed pattern, every stored answer adds to the parse stage,
// and a repeated contain text skips its parse.
func TestStoredAnswerAndContainInterned(t *testing.T) {
	eng := engine.New(engine.Config{})
	h := NewWith(eng)
	rec, _ := post(t, h, "/v1/views", `{"name":"src1","view":"//Trials//Trial",`+
		`"document":"<PharmaLab><Trials><Trial><Patient>John</Patient><Status/><Phase/></Trial><Trial><Patient>Jen</Patient></Trial></Trials></PharmaLab>"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body.String())
	}
	interned := func() int64 { st := eng.Stats(); return st.InternHits + st.InternDedups }
	parses := func() int64 { return eng.MetricsSnapshot().Stages["parse"].Count }
	var bodies []string
	for i, q := range []string{"//Trials//Trial[Status][Phase]/Patient", "//Trials//Trial[Phase][Status]/Patient"} {
		interned0, parses0 := interned(), parses()
		rec, _ := post(t, h, "/v1/answer", `{"query":"`+q+`","viewName":"src1"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, rec.Code, rec.Body.String())
		}
		if got := parses(); got != parses0+1 {
			t.Errorf("%s: parse stage count %d -> %d, want one more", q, parses0, got)
		}
		if i == 1 && interned() <= interned0 {
			t.Errorf("%s: canonical twin neither hit nor deduplicated in the interner", q)
		}
		bodies = append(bodies, rec.Body.String())
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("canonical twins answered differently:\n%s\n%s", bodies[0], bodies[1])
	}
	if !strings.Contains(bodies[0], `"John"`) {
		t.Fatalf("answer lost: %s", bodies[0])
	}

	body := `{"p":"//c/d[e]","q":"//c//d"}`
	post(t, h, "/v1/contain", body)
	hits0 := eng.Stats().InternHits
	rec, out := post(t, h, "/v1/contain", body)
	if rec.Code != http.StatusOK || out["pInQ"] != true {
		t.Fatalf("contain: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := eng.Stats().InternHits; got != hits0+2 {
		t.Errorf("repeated contain texts: intern hits %d -> %d, want two more", hits0, got)
	}
}
