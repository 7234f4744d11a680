package qav_test

// The served hit: one cached /v1/rewrite answered through the router
// and a replica, the path the repository benchmark's rewrite_hot
// workload measures. BenchmarkServedHit times it; TestServedHitAllocs
// guards its allocation count, so a hop that starts redoing per-request
// work its memo already holds shows up in tier-1. The stored-view
// answer of the answer_stored workload gets the same pair:
// BenchmarkStoredAnswer and TestStoredAnswerAllocs.

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qav/internal/engine"
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
	d, err := workload.ClinicalTrialsDoc(context.Background(), rand.New(rand.NewSource(1)), groups, 50, 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	eng := engine.New(engine.Config{CacheSize: 1024})
	eng.RegisterView("trials", viewstore.Materialize(tpq.MustParse("//Trials"), d))
	eng.RegisterView("trial", viewstore.Materialize(tpq.MustParse("//Trials//Trial"), d))
	h := server.NewService(eng).Handler()
	for _, body := range storedTemplates {
		if code := answerOnce(h, body); code != http.StatusOK {
			tb.Fatalf("priming %s: status %d", body, code)
		}
	}
	return h
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
