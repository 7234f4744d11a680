package qav_test

// The served hit: one cached /v1/rewrite answered through the router
// and a replica, the path the repository benchmark's rewrite_hot
// workload measures. BenchmarkServedHit times it; TestServedHitAllocs
// guards its allocation count, so a hop that starts redoing per-request
// work its memo already holds shows up in tier-1.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qav/internal/router"
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
	r, _, stop := bootCluster(tb, 3, func(c *router.Config) { c.ProbeInterval = time.Hour })
	clusterWait(tb, "first probes", func() bool {
		for _, rs := range r.Status().Replicas {
			if !rs.Healthy {
				return false
			}
		}
		return true
	})
	h := r.Handler()
	for _, body := range servedBodies {
		if code := serveOnce(h, body); code != http.StatusOK {
			stop()
			tb.Fatalf("priming %s: status %d", body, code)
		}
	}
	return h, stop
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
// the replica's encoded-body memo brought it from 150 to 83.
const servedHitMaxAllocs = 100

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
