package qav_test

// The served hit: one cached /v1/rewrite answered through the router
// and a replica, the path the repository benchmark's rewrite_hot
// workload measures. BenchmarkServedHit times it; TestServedHitAllocs
// guards its allocation count, so a hop that starts redoing per-request
// work its memo already holds shows up in tier-1. The stored-view
// answer of the answer_stored workload gets the same pair:
// BenchmarkStoredAnswer and TestStoredAnswerAllocs, TestStoredAnswerBytes
// bounds the bytes it allocates, and TestRoutedAnswerBytes guards what
// the router adds to that answer.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"qav/internal/engine"
	"qav/internal/plan"
	"qav/internal/router"
	"qav/internal/server"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/workload"
)

// servedBodies are the primed keys: rewrite requests over the paper's
// running examples, one of them in two canonical-twin spellings.
var servedBodies = []string{
	`{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}`,
	`{"query":"//Trials[//Status]//Trial[Patient]","view":"//Trials//Trial"}`,
	`{"query":"//Trials//Trial[Patient][Status]","view":"//Trials//Trial"}`,
	`{"query":"//Trials//Trial[Status][Patient]","view":"//Trials//Trial"}`,
	`{"query":"//a[b][c]//d","view":"//a//d"}`,
	`{"query":"//a[//b/c]//d[e]","view":"//a//d"}`,
	`{"query":"//a[b]//c","view":"//a//c"}`,
	`{"query":"//Auction[//item]//person/name","view":"//Auction//person"}`,
}

// bootServed boots the three-replica affinity cluster of the cluster
// suite, waits until every replica has passed its first health probe
// (the next one is an hour away, so no probe runs while a caller
// measures), and primes every servedBodies key.
func bootServed(tb testing.TB) (http.Handler, func()) {
	tb.Helper()
	r, _, _, stop := bootCluster(tb, 3, func(c *router.Config) { c.ProbeInterval = time.Hour })
	waitFirstProbes(tb, r)
	h := r.Handler()
	for _, body := range servedBodies {
		if code := serveOnce(h, body); code != http.StatusOK {
			stop()
			tb.Fatalf("priming %s: status %d", body, code)
		}
	}
	return h, stop
}

// waitFirstProbes waits until every replica of r has passed a health
// probe.
func waitFirstProbes(tb testing.TB, r *router.Router) {
	tb.Helper()
	clusterWait(tb, "first probes", func() bool {
		for _, rs := range r.Status().Replicas {
			if !rs.Healthy {
				return false
			}
		}
		return true
	})
}

// serveOnce sends one rewrite request through h and returns its status.
func serveOnce(h http.Handler, body string) int {
	req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// BenchmarkServedHit serves cache hits on the primed keys from every
// GOMAXPROCS worker: router key and pick, attempt, replica decode,
// engine cache hit, response encoding.
func BenchmarkServedHit(b *testing.B) {
	h, stop := bootServed(b)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if code := serveOnce(h, servedBodies[i%len(servedBodies)]); code != http.StatusOK {
				b.Errorf("status %d", code)
				return
			}
		}
	})
}

// servedHitMaxAllocs bounds the allocations of one served hit. The
// router's canonical-form memo, the patterns' cached printed forms and
// the replica's encoded-body memo brought it from 150 to 83, and
// streaming the replica's response through the router to 82. Decoding
// the request body with reqjson in place of encoding/json, in the
// router and in the replica, and building the attempt's URL without
// printing and parsing it, brought it to 71 (73 under the race
// detector), so a reflective decode coming back breaks the bound.
const servedHitMaxAllocs = 73

func TestServedHitAllocs(t *testing.T) {
	h, stop := bootServed(t)
	defer stop()
	body := servedBodies[0]
	allocs := testing.AllocsPerRun(200, func() {
		if code := serveOnce(h, body); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	})
	if allocs > servedHitMaxAllocs {
		t.Fatalf("one served hit allocates %.0f times, bound %d", allocs, servedHitMaxAllocs)
	}
	t.Logf("one served hit: %.0f allocs", allocs)
}

// storedTemplates are the queries of the repository benchmark's
// answer_stored workload, each E∘V over one of the two stored views of
// one ClinicalTrials document: "trials" (//Trials) and "trial"
// (//Trials//Trial).
var storedTemplates = []string{
	`{"query":"//Trials[//Status]//Trial/Patient","viewName":"trials"}`,
	`{"query":"//Trials//Trial[/Status]/Patient","viewName":"trial"}`,
	`{"query":"//Trials//Trial[/Status]/Status","viewName":"trial"}`,
	`{"query":"//Trials[//Status]","viewName":"trials"}`,
	`{"query":"//Trials[//Trial/Status]//Trial[/Patient]/Patient","viewName":"trials"}`,
	`{"query":"//Trials//Trial[/Patient][/Status]","viewName":"trial"}`,
	`{"query":"//Trials[//Status]//Status","viewName":"trials"}`,
	`{"query":"//Trials[//Patient][//Status]//Trial[/Status]/Patient","viewName":"trials"}`,
}

// bootStored returns one replica handler with both views registered
// over a document of `groups` Trials groups of 50 trials, a tenth of
// the groups carrying Status, and every template answered once so the
// rewrite and plan caches and the forest indexes are warm.
func bootStored(tb testing.TB, groups int) http.Handler {
	tb.Helper()
	eng, _ := storedEngine(tb, groups)
	h := server.NewService(eng).Handler()
	for _, body := range storedTemplates {
		if code := answerOnce(h, body); code != http.StatusOK {
			tb.Fatalf("priming %s: status %d", body, code)
		}
	}
	return h
}

// storedEngine returns an engine with both views registered over a
// document of `groups` Trials groups of 50 trials, a tenth of the
// groups carrying Status, and the views by name.
func storedEngine(tb testing.TB, groups int) (*engine.Engine, map[string]*viewstore.Materialized) {
	tb.Helper()
	d, err := workload.ClinicalTrialsDoc(context.Background(), rand.New(rand.NewSource(1)), groups, 50, 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	eng := engine.New(engine.Config{CacheSize: 1024})
	views := map[string]*viewstore.Materialized{
		"trials": viewstore.Materialize(tpq.MustParse("//Trials"), d),
		"trial":  viewstore.Materialize(tpq.MustParse("//Trials//Trial"), d),
	}
	for name, m := range views {
		eng.RegisterView(name, m)
	}
	return eng, views
}

// answerOnce sends one /v1/answer request through h and returns its
// status.
func answerOnce(h http.Handler, body string) int {
	req := httptest.NewRequest("POST", "/v1/answer", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// BenchmarkStoredAnswer answers the stored templates in turn from every
// GOMAXPROCS worker at the benchmark's size (200 groups, 10k trials):
// replica decode, rewrite and plan cache hits, plan exec over the
// cached forest index, and the answer body.
func BenchmarkStoredAnswer(b *testing.B) {
	h := bootStored(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if code := answerOnce(h, storedTemplates[i%len(storedTemplates)]); code != http.StatusOK {
				b.Errorf("status %d", code)
				return
			}
		}
	})
}

// BenchmarkStoredPlanExec times Plan.Exec alone, one sub-benchmark per
// stored template, at the benchmark's size (200 groups): the plan and
// the forest index are the engine's cached ones, so what runs is the
// structural joins and the answer union, with no request around them.
func BenchmarkStoredPlanExec(b *testing.B) {
	ctx := context.Background()
	eng, views := storedEngine(b, 200)
	for i, body := range storedTemplates {
		var text engine.Text
		if err := json.Unmarshal([]byte(body), &text); err != nil {
			b.Fatal(err)
		}
		req, err := eng.Parse(engine.OpAnswer, text)
		if err != nil {
			b.Fatal(err)
		}
		ans, err := eng.Answer(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		f, err := views[text.ViewName].ForestIndex(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("template=%d", i), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := ans.Plan.Exec(ctx, f, plan.ExecOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// storedAnswerMaxAllocs bounds the mean allocations of one stored-view
// answer over the templates. The columnar forest's linear joins and the
// one-pass answer encoder brought it from 2,448 to 69 on this 40-group
// document (11,660 to 68 at the benchmark's 200 groups): the count no
// longer grows with the forest or the answers.
const storedAnswerMaxAllocs = 100

func TestStoredAnswerAllocs(t *testing.T) {
	h := bootStored(t, 40)
	allocs := testing.AllocsPerRun(20, func() {
		for _, body := range storedTemplates {
			if code := answerOnce(h, body); code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
		}
	}) / float64(len(storedTemplates))
	if allocs > storedAnswerMaxAllocs {
		t.Fatalf("one stored answer allocates %.0f times, bound %d", allocs, storedAnswerMaxAllocs)
	}
	t.Logf("one stored answer: %.0f allocs", allocs)
}

// routedAnswerMaxBytes bounds the bytes the router allocates to serve
// one stored answer on top of the replica. Buffering the body would
// cost at least the body (32 KB or more here), and an io.Copy that
// cannot reach the body's WriteTo a 32 KB copy buffer, so either
// breaks the bound; what the router does own (the buffered request,
// the attempt's request and context) is a few KB whatever the answer.
const routedAnswerMaxBytes = 16 << 10

// routedAnswerGroups sizes the stored document so the compact answer of
// storedTemplates[0] (47,852 bytes) stays above 32 KB.
const routedAnswerGroups = 160

// TestRoutedAnswerBytes serves one stored-view answer of 32 KB or more
// through the three-replica router, with the views on every replica,
// and compares the bytes allocated per request with the same request
// sent to the serving replica over the same in-process fabric. The
// fabric holds each response in memory in place of a socket, on both
// sides, so the difference is the router's hop alone.
//
// Each side's figure is the least of several single-request samples.
// Allocation that is not the request's own only ever adds to a sample:
// sync.Pool drops, which the race detector makes random (a dropped
// answer buffer is regrown from 4 KB, doubling past the body), and the
// runtime's background work. So the least sample is the request's own cost, and
// it reads the same on every run. It keeps the check as strict: a body
// copy in the router adds at least the body's size to every routed
// request, so it raises every sample, the least one included.
func TestRoutedAnswerBytes(t *testing.T) {
	ht := router.NewHandlerTransport()
	var urls []string
	for i := 0; i < 3; i++ {
		host := fmt.Sprintf("replica-%d", i)
		ht.Register(host, bootStored(t, routedAnswerGroups))
		urls = append(urls, "http://"+host)
	}
	r, err := router.New(router.Config{Replicas: urls, ProbeInterval: time.Hour, Transport: ht})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitFirstProbes(t, r)

	body := storedTemplates[0]
	routed := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/answer", strings.NewReader(body)))
		return rec
	}
	first := routed()
	if first.Code != http.StatusOK {
		t.Fatalf("routed answer: status %d: %s", first.Code, first.Body.String())
	}
	size := first.Body.Len()
	if size < 32<<10 {
		t.Fatalf("answer body is %d bytes, want at least 32 KB", size)
	}
	owner := first.Header().Get("X-QAV-Replica")
	direct := func() *httptest.ResponseRecorder {
		resp, err := ht.RoundTrip(httptest.NewRequest("POST", "http://"+owner+"/v1/answer", strings.NewReader(body)))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		rec.WriteHeader(resp.StatusCode)
		io.Copy(rec, resp.Body)
		resp.Body.Close()
		return rec
	}
	if rec := direct(); rec.Code != http.StatusOK || rec.Body.String() != first.Body.String() {
		t.Fatalf("direct answer differs from the routed one: status %d, %d bytes", rec.Code, rec.Body.Len())
	}

	const samples = 25
	perRequest := func(serve func() *httptest.ResponseRecorder) int64 {
		least := int64(math.MaxInt64)
		for i := 0; i < samples; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if rec := serve(); rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
			runtime.ReadMemStats(&after)
			least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
		}
		return least
	}
	viaRouter, viaReplica := perRequest(routed), perRequest(direct)
	added := viaRouter - viaReplica
	if added >= routedAnswerMaxBytes || added >= int64(size) {
		t.Fatalf("the router adds %d bytes to a %d-byte answer (%d routed, %d direct), bound %d",
			added, size, viaRouter, viaReplica, routedAnswerMaxBytes)
	}
	t.Logf("a %d-byte answer: %d bytes routed, %d direct, %d added by the router", size, viaRouter, viaReplica, added)
}

// storedAnswerMaxBytes bounds the mean bytes one stored-view answer
// allocates on the 40-group document, apart from its body, over the
// templates. Answers leave the plan as forest positions and take their
// paths from the forest's interned path column, so neither the engine
// nor the encoder allocates a pointer slice per answer set any more:
// that brought the figure from 6,814 to 3,913 bytes (3,961 under the
// race detector), and a per-answer slice coming back breaks the bound.
const storedAnswerMaxBytes = 5 << 10

// discardWriter is a ResponseWriter that keeps only the status: the
// body is written from the replica's pooled buffer and dropped, so a
// request's bytes exclude the body's own.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestStoredAnswerBytes serves every stored template through the
// replica handler and bounds the mean bytes one answer allocates:
// request decode, engine.Answer and the answer encoder. Each template's
// figure is the least of 20 single-request samples, as in
// TestRoutedAnswerBytes: a sync.Pool drop of the body buffer (random
// under the race detector) or the runtime's own work only ever adds to
// a sample, while a per-answer slice adds to every one.
func TestStoredAnswerBytes(t *testing.T) {
	h := bootStored(t, 40)
	const samples = 20
	var total uint64
	for _, body := range storedTemplates {
		least := uint64(math.MaxUint64)
		for i := 0; i < samples; i++ {
			req := httptest.NewRequest("POST", "/v1/answer", strings.NewReader(body))
			w := &discardWriter{header: make(http.Header)}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			h.ServeHTTP(w, req)
			runtime.ReadMemStats(&after)
			if w.code != http.StatusOK {
				t.Fatalf("%s: status %d", body, w.code)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		total += least
	}
	perAnswer := total / uint64(len(storedTemplates))
	if perAnswer > storedAnswerMaxBytes {
		t.Fatalf("one stored answer allocates %d bytes besides its body, bound %d", perAnswer, storedAnswerMaxBytes)
	}
	t.Logf("one stored answer: %d bytes besides its body", perAnswer)
}
