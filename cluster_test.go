package qav_test

// Cluster chaos suite: a 3-replica in-process qavd cluster behind
// internal/router, exercised with deterministic kill/restart/slow
// storms under -race. The replicas are real engine-backed servers
// (the same handlers qavd serves); the fabric is router.HandlerTransport,
// which turns SIGKILL into connect-refused errors and slowness into
// injected latency without sockets or real processes.
//
// The headline assertion is the availability contract: while at least
// one replica is healthy and the router has converged on the fleet
// state, every client-visible response is a success (or a 429 when the
// fleet is saturated — not exercised here since the test engines are
// ungated). A companion storm arms the router's own fault points
// (router.pick, router.probe, router.hedge) and asserts survival, and
// a determinism test pins that with faults disabled repeated cold runs
// are byte-identical.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qav/internal/engine"
	"qav/internal/fault"
	"qav/internal/leaktest"
	"qav/internal/router"
	"qav/internal/server"
	"qav/internal/workload"
)

// clusterSpecs is the request mix for cluster storms: all idempotent
// compute endpoints with deterministic 200 responses on a healthy
// replica.
func clusterSpecs() []chaosSpec {
	esc := func(s string) string {
		b, _ := json.Marshal(s)
		return string(b)
	}
	return []chaosSpec{
		{"", "/v1/rewrite", `{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}`},
		{"", "/v1/rewrite", `{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial","schema":` + esc(chaosSchema) + `}`},
		{"", "/v1/rewrite", `{"query":"//a[b][c]//d","view":"//a//d"}`},
		{"", "/v1/rewrite/batch", `{"items":[{"query":"//a[b]//c","view":"//a//c"},{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}]}`},
		{"", "/v1/contain", `{"p":"//Trials//Trial[Status]","q":"//Trials//Trial","schema":` + esc(chaosSchema) + `}`},
		{"", "/v1/answer", `{"query":"//Trials[//Status]//Trial/Patient","view":"//Trials//Trial","document":` + esc(chaosDoc) + `}`},
	}
}

// bootCluster starts n engine-backed replicas on a HandlerTransport
// plus a router over them; engines[i] backs replica-i. The returned
// stop function closes the router and every engine.
func bootCluster(t testing.TB, n int, tweak func(*router.Config)) (r *router.Router, ht *router.HandlerTransport, engines []*engine.Engine, stop func()) {
	t.Helper()
	ht = router.NewHandlerTransport()
	var urls []string
	for i := 0; i < n; i++ {
		eng := engine.New(engine.Config{CacheSize: 64, MaxEmbeddings: 1 << 16, Timeout: 2 * time.Second})
		engines = append(engines, eng)
		host := fmt.Sprintf("replica-%d", i)
		ht.Register(host, server.NewService(eng).Handler())
		urls = append(urls, "http://"+host)
	}
	cfg := router.Config{
		Replicas:         urls,
		Seed:             11,
		ProbeInterval:    10 * time.Millisecond,
		AttemptTimeout:   500 * time.Millisecond,
		Retries:          2,
		RetryBackoff:     2 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Millisecond,
		Transport:        ht,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, ht, engines, func() {
		r.Close()
		for _, eng := range engines {
			if err := eng.Close(); err != nil {
				t.Errorf("engine close: %v", err)
			}
		}
	}
}

// clusterWait polls cond until it holds or the deadline passes.
func clusterWait(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("cluster did not converge: %s", what)
}

func clusterReplica(r *router.Router, name string) router.ReplicaStatus {
	for _, rs := range r.Status().Replicas {
		if rs.Name == name {
			return rs
		}
	}
	return router.ReplicaStatus{}
}

// TestClusterKillRestartSlowStorm is the availability storm: rounds of
// killing or slowing one replica while the other two stay healthy. In
// every converged state each routed request must succeed — replica
// death and slowness become failover events, never client errors. The
// breaker of the victim must open while it is gone and re-close after
// it returns.
func TestClusterKillRestartSlowStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster storm")
	}
	defer leaktest.Check(t)()
	fault.Disable()

	r, ht, _, stop := bootCluster(t, 3, nil)
	defer stop()

	specs := clusterSpecs()
	sawOpen := false
	for round := 0; round < 6; round++ {
		victim := fmt.Sprintf("replica-%d", round%3)
		slow := round%2 == 1
		if slow {
			// Slow far past the probe timeout: the prober times out,
			// trips the breaker, and traffic routes around the replica.
			ht.SetDelay(victim, 300*time.Millisecond)
		} else {
			ht.SetDown(victim, true)
		}
		clusterWait(t, victim+" unavailable", func() bool {
			rs := clusterReplica(r, victim)
			return rs.State == "open" && !rs.Healthy
		})
		sawOpen = true
		clusterWait(t, "survivors healthy", func() bool {
			for _, rs := range r.Status().Replicas {
				if rs.Name != victim && (rs.State != "closed" || !rs.Healthy) {
					return false
				}
			}
			return true
		})

		// With one replica dead and two healthy: zero non-429 errors.
		// The test engines are ungated, so that means every request
		// succeeds outright.
		for i, spec := range specs {
			req := spec.request()
			rec := httptest.NewRecorder()
			r.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
				t.Fatalf("round %d request %d (%s): client-visible error %d: %s",
					round, i, spec.path, rec.Code, rec.Body.String())
			}
			if got := rec.Header().Get("X-QAV-Replica"); got == victim {
				t.Fatalf("round %d: request served by unavailable replica %s", round, victim)
			}
		}

		// Restart/unslow the victim: the half-open probe must re-close
		// its breaker without client traffic.
		ht.SetDown(victim, false)
		ht.SetDelay(victim, 0)
		clusterWait(t, victim+" re-closed", func() bool {
			rs := clusterReplica(r, victim)
			return rs.State == "closed" && rs.Healthy
		})
	}
	if !sawOpen {
		t.Fatal("storm never opened a breaker")
	}

	// Post-storm: the cluster serves normally and /v1/cluster shows a
	// fully closed, healthy fleet with recorded breaker transitions.
	cs := r.Status()
	for _, rs := range cs.Replicas {
		if rs.State != "closed" || !rs.Healthy {
			t.Fatalf("post-storm replica %s: %+v", rs.Name, rs)
		}
		if rs.Transitions == 0 && rs.Name != "" {
			// Every replica was a victim at least once in 6 rounds.
			t.Fatalf("replica %s never recorded a breaker transition", rs.Name)
		}
	}
}

// TestClusterRouterFaultStorm arms the router's own injection points
// (pick, probe, hedge) with deterministic random plans while traffic
// flows through a healthy cluster. Survival properties only: every
// response is JSON with some status, nothing crashes or deadlocks, and
// no goroutines outlive the storm.
func TestClusterRouterFaultStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster fault storm")
	}
	defer leaktest.Check(t)()
	defer fault.Disable()

	r, _, _, stop := bootCluster(t, 3, func(c *router.Config) {
		c.HedgeAfter = 5 * time.Millisecond
	})
	defer stop()

	seed := chaosEnvInt(t, "QAV_CHAOS_SEED", 20260807)
	runs := int(chaosEnvInt(t, "QAV_CHAOS_RUNS", 40))
	rng := rand.New(rand.NewSource(seed))
	points := []string{"router.pick", "router.probe", "router.hedge"}
	actions := []fault.Action{fault.ActError, fault.ActPanic, fault.ActDelay, fault.ActCancel}
	specs := clusterSpecs()

	for run := 0; run < runs; run++ {
		plan := &fault.Plan{Seed: rng.Int63()}
		pick := map[string]bool{points[run%len(points)]: true}
		if rng.Intn(2) == 0 {
			pick[points[rng.Intn(len(points))]] = true
		}
		for name := range pick {
			plan.Injections = append(plan.Injections, fault.Injection{
				Point:  name,
				Action: actions[rng.Intn(len(actions))],
				Prob:   []float64{1, 0.5}[rng.Intn(2)],
				Delay:  time.Millisecond,
			})
		}
		if err := fault.Enable(plan); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			spec := specs[rng.Intn(len(specs))]
			req := spec.request()
			rec := httptest.NewRecorder()
			r.Handler().ServeHTTP(rec, req) // must not crash or hang
			if rec.Code == 0 {
				t.Fatalf("run %d: no status for %s", run, spec.path)
			}
			var out map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("run %d: non-JSON response %d %q", run, rec.Code, rec.Body.String())
			}
		}
	}
	fault.Disable()

	// The storm must leave no wedged state: traffic serves normally.
	req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(
		`{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}`))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-storm rewrite = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestClusterDisabledDeterministic pins reproducibility: with every
// fault disarmed and a fixed seed, repeated cold boots of the whole
// cluster (fresh engines, fresh router) serve byte-identical response
// bodies for a fixed request sequence under the deterministic affinity
// policy.
func TestClusterDisabledDeterministic(t *testing.T) {
	defer leaktest.Check(t)()
	fault.Disable()

	specs := clusterSpecs()
	var reference []string
	for round := 0; round < 2; round++ {
		r, _, _, stop := bootCluster(t, 3, nil)
		for i, spec := range specs {
			req := spec.request()
			rec := httptest.NewRecorder()
			r.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				stop()
				t.Fatalf("round %d request %d: status %d: %s", round, i, rec.Code, rec.Body.String())
			}
			if round == 0 {
				reference = append(reference, rec.Body.String())
			} else if got := rec.Body.String(); got != reference[i] {
				stop()
				t.Fatalf("round %d request %d diverged:\n got %s\nwant %s", round, i, got, reference[i])
			}
		}
		stop()
	}
}

// TestClusterAffinityKeepsCacheHits pins what canonical-affinity
// routing buys over round-robin on a 3-replica cluster: 25 distinct
// rewrite requests, sent one at a time for 6 rounds. Under affinity
// each key has one owner, so only the first round misses (125 hits, 25
// misses cluster-wide). Under round-robin a key visits every replica in
// turn (25 is coprime with 3), so each replica computes each key once
// before it can hit (75 hits, 75 misses): a hit-rate advantage of 1/3.
func TestClusterAffinityKeepsCacheHits(t *testing.T) {
	defer leaktest.Check(t)()
	fault.Disable()

	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "b", "c"}
	bodies := make([]string, 25)
	for i := range bodies {
		q, _ := json.Marshal(workload.RandomPattern(rng, alphabet, 5).String())
		v, _ := json.Marshal(workload.RandomPattern(rng, alphabet, 5).String())
		bodies[i] = `{"query":` + string(q) + `,"view":` + string(v) + `}`
	}
	for _, tc := range []struct {
		policy       string
		hits, misses int64
	}{
		{"affinity", 125, 25},
		{"roundrobin", 75, 75},
	} {
		r, _, engines, stop := bootCluster(t, 3, func(c *router.Config) { c.Policy = tc.policy })
		for round := 0; round < 6; round++ {
			for i, body := range bodies {
				rec := httptest.NewRecorder()
				r.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					stop()
					t.Fatalf("%s round %d request %d: status %d: %s", tc.policy, round, i, rec.Code, rec.Body.String())
				}
			}
		}
		var hits, misses int64
		for _, eng := range engines {
			st := eng.Stats()
			hits += st.CacheHits + st.CacheWarmHits
			misses += st.CacheMisses
		}
		stop()
		if hits != tc.hits || misses != tc.misses {
			t.Errorf("%s: %d hits / %d misses, want %d / %d", tc.policy, hits, misses, tc.hits, tc.misses)
		}
	}
}
