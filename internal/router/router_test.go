package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qav/internal/leaktest"
)

// fakeReplica is a minimal qavd stand-in: /healthz reports ok (or
// draining), /v1/rewrite echoes the replica name, and failure modes
// are switchable per test.
type fakeReplica struct {
	name string
	mux  *http.ServeMux

	mu       sync.Mutex
	status   int    // response status for /v1/rewrite (default 200)
	retryAft string // Retry-After header when status is 429
	draining bool
	body     string // 200 body in place of the name echo, when set
	// hold keeps the handler until it passes or the request's context
	// ends; the context's error at that point goes to held.
	hold time.Duration
	held chan error
	// traces records the X-Client-Trace header of every proxied request.
	traces []string
}

func (f *fakeReplica) set(fn func(*fakeReplica)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func newFakeReplica(name string) *fakeReplica {
	f := &fakeReplica{name: name, status: http.StatusOK}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		draining := f.draining
		f.mu.Unlock()
		code := http.StatusOK
		if draining {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"status":"ok","draining":%v,"inflight":0,"queued":0}`, draining)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		status, retryAft, body, hold, held := f.status, f.retryAft, f.body, f.hold, f.held
		f.traces = append(f.traces, r.Header.Get("X-Client-Trace"))
		f.mu.Unlock()
		if hold > 0 {
			timer := time.NewTimer(hold)
			select {
			case <-r.Context().Done():
			case <-timer.C:
			}
			timer.Stop()
			select {
			case held <- r.Context().Err():
			default:
			}
		}
		if status != http.StatusOK {
			if retryAft != "" {
				w.Header().Set("Retry-After", retryAft)
			}
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error":"injected %d"}`, status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if body != "" {
			io.WriteString(w, body)
			return
		}
		fmt.Fprintf(w, `{"replica":%q}`, f.name)
	})
	f.mux = mux
	return f
}

// testCluster boots n fake replicas behind a HandlerTransport and a
// router over them. Callers must call close().
func testCluster(t *testing.T, n int, tweak func(*Config)) (*Router, *HandlerTransport, []*fakeReplica, func()) {
	t.Helper()
	ht := NewHandlerTransport()
	var reps []*fakeReplica
	var urls []string
	for i := 0; i < n; i++ {
		f := newFakeReplica(fmt.Sprintf("replica-%d", i))
		ht.Register(f.name, f.mux)
		reps = append(reps, f)
		urls = append(urls, "http://"+f.name)
	}
	cfg := Config{
		Replicas:         urls,
		Seed:             7,
		ProbeInterval:    5 * time.Millisecond,
		AttemptTimeout:   250 * time.Millisecond,
		Retries:          2,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
		Transport:        ht,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, ht, reps, r.Close
}

func doRewrite(t *testing.T, r *Router, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(body))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	return rec
}

const rewriteBody = `{"query":"//a[b]//c","view":"//a//c"}`

func TestAffinityStableOwner(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, _, closeAll := testCluster(t, 3, nil)
	defer closeAll()

	owner := ""
	for i := 0; i < 10; i++ {
		rec := doRewrite(t, r, rewriteBody)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		got := rec.Header().Get("X-QAV-Replica")
		if got == "" {
			t.Fatal("missing X-QAV-Replica attribution")
		}
		if owner == "" {
			owner = got
		} else if got != owner {
			t.Fatalf("affinity moved: %s then %s", owner, got)
		}
	}
	// Two spellings of the same canonical pattern must land on the same
	// owner — the whole point of canonical-affinity routing.
	const q1, q2 = "//a[b][d]//c", "//a[d][b]//c"
	if canonicalOr(q1) != canonicalOr(q2) {
		t.Fatalf("%s and %s are not canonical twins", q1, q2)
	}
	replicaFor := func(q string) string {
		rec := doRewrite(t, r, `{"query":"`+q+`","view":"//a//c"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", q, rec.Code)
		}
		return rec.Header().Get("X-QAV-Replica")
	}
	if a, b := replicaFor(q1), replicaFor(q2); a != b {
		t.Fatalf("canonical twins routed to %s and %s", a, b)
	}
}

func TestFailoverOnDownReplica(t *testing.T) {
	defer leaktest.Check(t)()
	r, ht, _, closeAll := testCluster(t, 3, nil)
	defer closeAll()

	rec := doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	owner := rec.Header().Get("X-QAV-Replica")

	ht.SetDown(owner, true)
	rec = doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("after kill: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-QAV-Replica"); got == owner {
		t.Fatalf("request still routed to dead replica %s", owner)
	}
}

func TestBreakerOpensAndRecloses(t *testing.T) {
	defer leaktest.Check(t)()
	r, ht, _, closeAll := testCluster(t, 2, nil)
	defer closeAll()

	ht.SetDown("replica-0", true)
	waitFor(t, time.Second, func() bool {
		return replicaState(r, "replica-0") == "open"
	})
	ht.SetDown("replica-0", false)
	// The active prober's half-open probe must re-close the breaker
	// without any client traffic.
	waitFor(t, time.Second, func() bool {
		return replicaState(r, "replica-0") == "closed"
	})
}

// waitHealthy waits until every replica of r has passed a health probe.
func waitHealthy(t *testing.T, r *Router) {
	t.Helper()
	waitFor(t, time.Second, func() bool {
		for _, rs := range r.Status().Replicas {
			if !rs.Healthy {
				return false
			}
		}
		return true
	})
}

func replicaState(r *Router, name string) string {
	for _, rs := range r.Status().Replicas {
		if rs.Name == name {
			return rs.State
		}
	}
	return ""
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestSaturationHonorsRetryAfter(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, reps, closeAll := testCluster(t, 2, func(c *Config) { c.Retries = 0 })
	defer closeAll()

	// One replica saturated: traffic must spill to the other.
	reps[0].set(func(f *fakeReplica) { f.status = http.StatusTooManyRequests; f.retryAft = "2" })
	rec := doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("spill failed: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-QAV-Replica"); got != "replica-1" {
		t.Fatalf("routed to %s, want replica-1", got)
	}

	// Both saturated: the router reports 429 with a Retry-After of its
	// own instead of a 5xx.
	reps[1].set(func(f *fakeReplica) { f.status = http.StatusTooManyRequests; f.retryAft = "2" })
	rec = doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d: %s", rec.Code, rec.Body.String())
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("want Retry-After >= 1, got %q", rec.Header().Get("Retry-After"))
	}
	// Saturation must not have charged the breakers.
	for _, rs := range r.Status().Replicas {
		if rs.State != "closed" {
			t.Fatalf("429s opened breaker on %s", rs.Name)
		}
	}
}

func TestDrainingReplicaStopsReceiving(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, reps, closeAll := testCluster(t, 2, nil)
	defer closeAll()

	rec := doRewrite(t, r, rewriteBody)
	owner := rec.Header().Get("X-QAV-Replica")
	var idx int
	fmt.Sscanf(owner, "replica-%d", &idx)
	reps[idx].set(func(f *fakeReplica) { f.draining = true })
	waitFor(t, time.Second, func() bool {
		for _, rs := range r.Status().Replicas {
			if rs.Name == owner {
				return rs.Draining
			}
		}
		return false
	})
	for i := 0; i < 5; i++ {
		rec := doRewrite(t, r, rewriteBody)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		if got := rec.Header().Get("X-QAV-Replica"); got == owner {
			t.Fatalf("request routed to draining replica %s", owner)
		}
	}
	// Draining is orderly: the breaker stays closed.
	if st := replicaState(r, owner); st != "closed" {
		t.Fatalf("draining opened breaker: %s", st)
	}
}

func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, reps, closeAll := testCluster(t, 3, func(c *Config) {
		c.HedgeAfter = 5 * time.Millisecond
	})
	defer closeAll()

	rec := doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	owner := rec.Header().Get("X-QAV-Replica")
	var idx int
	fmt.Sscanf(owner, "replica-%d", &idx)

	// Hold the owner's handler far past the hedge delay but inside the
	// attempt timeout: the hedge on the next-ranked replica must win.
	const hold = 150 * time.Millisecond
	held := make(chan error, 1)
	reps[idx].set(func(f *fakeReplica) { f.hold, f.held = hold, held })
	start := time.Now()
	rec = doRewrite(t, r, rewriteBody)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("X-QAV-Replica"); got == owner {
		t.Fatalf("slow owner %s still won", owner)
	}
	if elapsed >= hold {
		t.Fatalf("hedge did not cut the tail: %v", elapsed)
	}
	// The owner's handler must see its context cancelled when the hedge
	// wins: not run out its hold (a nil error) and not last until the
	// attempt timeout (DeadlineExceeded).
	select {
	case err := <-held:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("losing primary's context ended with %v, want context.Canceled", err)
		}
		if waited := time.Since(start); waited >= hold {
			t.Fatalf("losing primary released after %v, not when the hedge won", waited)
		}
	case <-time.After(time.Second):
		t.Fatal("losing primary never released")
	}
	// Leaktest (deferred) pins that the losing attempt's goroutine is
	// gone after Close.
}

// TestHedgedAttemptsCarryClientHeaders: both attempts of a hedged
// pair reach their replicas with the client's headers, and the router
// leaves the client's header map as it found it.
func TestHedgedAttemptsCarryClientHeaders(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, reps, closeAll := testCluster(t, 3, func(c *Config) {
		c.HedgeAfter = 5 * time.Millisecond
	})
	defer closeAll()

	var idx int
	fmt.Sscanf(doRewrite(t, r, rewriteBody).Header().Get("X-QAV-Replica"), "replica-%d", &idx)
	held := make(chan error, 1)
	reps[idx].set(func(f *fakeReplica) { f.hold, f.held = 150*time.Millisecond, held })

	req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(rewriteBody))
	req.Header.Set("X-Client-Trace", "trace-42")
	req.Header["Accept"] = []string{"application/json", "text/plain"}
	want := req.Header.Clone()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	<-held // the losing primary has returned
	var winner int
	fmt.Sscanf(rec.Header().Get("X-QAV-Replica"), "replica-%d", &winner)
	if winner == idx {
		t.Fatalf("slow owner replica-%d won; no hedge ran", idx)
	}
	for _, i := range []int{idx, winner} {
		reps[i].mu.Lock()
		last := reps[i].traces[len(reps[i].traces)-1]
		reps[i].mu.Unlock()
		if last != "trace-42" {
			t.Errorf("replica-%d saw X-Client-Trace %q, want %q", i, last, "trace-42")
		}
	}
	if !reflect.DeepEqual(req.Header, want) {
		t.Errorf("client header map changed: %v, want %v", req.Header, want)
	}
}

// failingBody is a replica body that fails after n bytes, as a
// connection reset partway through a response would.
type failingBody struct{ n int }

func (b *failingBody) Read(p []byte) (int, error) {
	if b.n == 0 {
		return 0, errors.New("connection reset mid-body")
	}
	k := min(len(p), b.n)
	for i := range p[:k] {
		p[i] = 'x'
	}
	b.n -= k
	return k, nil
}

func (b *failingBody) Close() error { return nil }

// midStreamTransport answers health probes through the fake replicas
// and every proxied request with a 200 whose body fails after n bytes.
type midStreamTransport struct {
	probes http.RoundTripper
	n      int
}

func (t midStreamTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/healthz" {
		return t.probes.RoundTrip(req)
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       &failingBody{n: t.n},
		Request:    req,
	}, nil
}

// TestMidStreamFailureAborts pins the cost of streaming: a replica body
// that fails after the status is committed is not retried, charges the
// replica's breaker, and reaches the client as a broken response, never
// as a clean 200.
func TestMidStreamFailureAborts(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, _, closeAll := testCluster(t, 3, func(c *Config) {
		c.Transport = midStreamTransport{probes: c.Transport, n: 64 << 10}
		c.ProbeInterval = time.Hour // no probe success after the failure
	})
	defer closeAll()
	waitHealthy(t, r)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	resp, err := client.Post(srv.URL+"/v1/rewrite", "application/json", strings.NewReader(rewriteBody))
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("client read a clean response from a body that failed mid-stream")
	}

	if got := totalAttempts(r); got != 1 {
		t.Fatalf("mid-stream failure made %d attempts, want 1 (no retry)", got)
	}
	for _, rep := range r.reps {
		if rep.attempts.Load() == 0 {
			continue
		}
		if _, fails, _ := rep.br.Snapshot(); fails != 1 || rep.consecErrs.Load() != 1 {
			t.Fatalf("replica %s: breaker fails %d, consecErrs %d; want 1 and 1",
				rep.name, fails, rep.consecErrs.Load())
		}
	}
}

// TestClientGoneChargesNoReplica: a body read that fails because the
// client cancelled its request aborts the response but leaves the
// replica's breaker alone.
func TestClientGoneChargesNoReplica(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, _, closeAll := testCluster(t, 3, func(c *Config) {
		c.Transport = midStreamTransport{probes: c.Transport, n: 1 << 10}
		c.ProbeInterval = time.Hour
	})
	defer closeAll()
	waitHealthy(t, r)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(rewriteBody)).WithContext(ctx)
	func() {
		defer func() {
			if v := recover(); v != http.ErrAbortHandler {
				t.Fatalf("recovered %v, want http.ErrAbortHandler", v)
			}
		}()
		r.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	for _, rs := range r.Status().Replicas {
		if rs.ConsecErrs != 0 {
			t.Fatalf("replica %s charged %d errors for a client that went away", rs.Name, rs.ConsecErrs)
		}
	}
}

// TestOversizedResponseIntact: MaxBodyBytes bounds the buffered request
// only. A response larger than it reaches the client whole.
func TestOversizedResponseIntact(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, reps, closeAll := testCluster(t, 2, func(c *Config) { c.MaxBodyBytes = 64 })
	defer closeAll()
	big := `{"pad":"` + strings.Repeat("0123456789abcdef", 256) + `"}`
	for _, f := range reps {
		f.set(func(f *fakeReplica) { f.body = big })
	}

	rec := doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Body.String(); got != big {
		t.Fatalf("client got %d bytes, want the replica's %d intact", len(got), len(big))
	}
}

func TestRouterDrainingReturns503(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, _, closeAll := testCluster(t, 2, nil)
	defer closeAll()

	r.StartDraining()
	rec := doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("want 503 while draining, got %d", rec.Code)
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	hrec := httptest.NewRecorder()
	r.Handler().ServeHTTP(hrec, req)
	if hrec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d", hrec.Code)
	}
}

func TestNonIdempotentNotRetriedOn5xx(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, reps, closeAll := testCluster(t, 2, nil)
	defer closeAll()

	reps[0].set(func(f *fakeReplica) { f.status = http.StatusInternalServerError })
	reps[1].set(func(f *fakeReplica) { f.status = http.StatusInternalServerError })
	// Idempotent: retried across replicas, eventually surfaces 500
	// after exhausting candidates (here both are broken).
	rec := doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusBadGateway && rec.Code != http.StatusInternalServerError {
		t.Fatalf("want gateway failure, got %d", rec.Code)
	}

	// Non-idempotent POST /v1/views: the first 5xx surfaces untouched
	// (attempts == 1 more than before on exactly one replica).
	before := totalAttempts(r)
	req := httptest.NewRequest("POST", "/v1/views", strings.NewReader(`{"name":"x"}`))
	vrec := httptest.NewRecorder()
	r.Handler().ServeHTTP(vrec, req)
	if vrec.Code != http.StatusInternalServerError {
		t.Fatalf("want 500 passthrough, got %d", vrec.Code)
	}
	if got := totalAttempts(r) - before; got != 1 {
		t.Fatalf("non-idempotent request attempted %d times, want 1", got)
	}
}

func totalAttempts(r *Router) int64 {
	var n int64
	for _, rs := range r.Status().Replicas {
		n += rs.Attempts
	}
	return n
}

func TestClusterStatusDocument(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, _, closeAll := testCluster(t, 3, nil)
	defer closeAll()

	waitHealthy(t, r)
	req := httptest.NewRequest("GET", "/v1/cluster", nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	var cs ClusterStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Policy != "affinity" || len(cs.Replicas) != 3 {
		t.Fatalf("unexpected status: %+v", cs)
	}
	for _, rs := range cs.Replicas {
		if rs.State != "closed" || !rs.Healthy || rs.Load == nil {
			t.Fatalf("replica %s not healthy in status: %+v", rs.Name, rs)
		}
	}
}

// TestRendezvousStability pins the ~1/N migration property of the
// affinity policy: adding a replica moves keys only onto the new
// replica, and removing one moves only the keys it owned.
func TestRendezvousStability(t *testing.T) {
	replicas := func(n int) []*replica {
		reps := make([]*replica, n)
		for i := range reps {
			name := fmt.Sprintf("replica-%d", i)
			reps[i] = &replica{name: name, nameHash: fnv64a(name)}
		}
		return reps
	}
	three, four := replicas(3), replicas(4)
	owner := func(reps []*replica, key string) string {
		return reps[(&affinity{}).order(key, reps)[0]].name
	}

	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("//a[b%d]//c\x00//a//c\x00", i)
		before := owner(three, key)
		after := owner(four, key)
		if before != after {
			moved++
			if after != "replica-3" {
				t.Fatalf("key %d moved %s -> %s, not to the new replica", i, before, after)
			}
		}
	}
	// Expect ~keys/4 to move; allow generous slack either side.
	if moved < keys/8 || moved > keys/2 {
		t.Fatalf("adding a replica moved %d/%d keys, want ~%d", moved, keys, keys/4)
	}

	// Removal: survivors keep every key they already owned.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("//x[y%d]\x00//x\x00", i)
		before := owner(four, key)
		after := owner(three, key)
		if before != "replica-3" && before != after {
			t.Fatalf("key %d moved %s -> %s on removal of replica-3", i, before, after)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	rng := newRNG(42)
	var transitions []string
	b := newBreaker(3, 50*time.Millisecond, rng, func(from, to breakerState, _ time.Duration) {
		transitions = append(transitions, from.String()+"->"+to.String())
	})
	now := time.Now()
	for i := 0; i < 2; i++ {
		b.Failure(now)
		if !b.Allow(now) {
			t.Fatal("breaker opened before threshold")
		}
	}
	b.Failure(now) // third consecutive failure: opens
	if b.Allow(now) {
		t.Fatal("open breaker admitted a request")
	}
	// Cooldown is jittered in [cooldown/2, cooldown); after the full
	// cooldown it must admit exactly one half-open probe.
	later := now.Add(50 * time.Millisecond)
	if !b.Allow(later) {
		t.Fatal("breaker did not go half-open after cooldown")
	}
	if b.Allow(later) {
		t.Fatal("half-open breaker admitted a second probe")
	}
	b.Failure(later) // failed probe: re-open
	if b.Allow(later) {
		t.Fatal("re-opened breaker admitted a request")
	}
	again := later.Add(50 * time.Millisecond)
	if !b.Allow(again) {
		t.Fatal("no second half-open probe")
	}
	b.Success(again) // probe succeeds: closed
	if !b.Allow(again) {
		t.Fatal("closed breaker refused a request")
	}
	want := []string{"closed->open", "open->half-open", "half-open->open", "open->half-open", "half-open->closed"}
	if fmt.Sprint(transitions) != fmt.Sprint(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
}

func TestPolicies(t *testing.T) {
	reps := []*replica{
		{name: "a", nameHash: fnv64a("a")},
		{name: "b", nameHash: fnv64a("b")},
		{name: "c", nameHash: fnv64a("c")},
	}
	rr := &roundRobin{}
	first := rr.order("k", reps)
	second := rr.order("k", reps)
	if first[0] == second[0] {
		t.Fatalf("round robin did not advance: %v then %v", first, second)
	}
	if len(first) != 3 {
		t.Fatal("order must rank every replica")
	}

	af := &affinity{}
	o1 := af.order("key-1", reps)
	o2 := af.order("key-1", reps)
	if fmt.Sprint(o1) != fmt.Sprint(o2) {
		t.Fatalf("affinity order not stable: %v vs %v", o1, o2)
	}
}

func TestAffinityKeyCanonicalizes(t *testing.T) {
	// Two spellings of the same canonical pattern must produce the same
	// routing key; a distinct pattern must not.
	k1 := affinityKey("/v1/rewrite", []byte(`{"query":"//a[b][c]","view":"//a"}`), canonicalOr)
	k2 := affinityKey("/v1/rewrite", []byte(`{"query":"//a[c][b]","view":"//a"}`), canonicalOr)
	k3 := affinityKey("/v1/rewrite", []byte(`{"query":"//a[d]","view":"//a"}`), canonicalOr)
	if k1 != k2 {
		t.Fatalf("equivalent patterns keyed differently:\n%q\n%q", k1, k2)
	}
	if k1 == k3 {
		t.Fatal("distinct patterns share a key")
	}
	// Unparsable bodies still key consistently.
	if affinityKey("/v1/rewrite", []byte("junk"), canonicalOr) != affinityKey("/v1/rewrite", []byte("junk"), canonicalOr) {
		t.Fatal("raw-body fallback unstable")
	}
}

func TestNoLeaksAfterClose(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, _, _ := testCluster(t, 3, nil)
	for i := 0; i < 3; i++ {
		doRewrite(t, r, rewriteBody)
	}
	r.Close()
	r.Close() // idempotent
}
