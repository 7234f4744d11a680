package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by three shims the harness installs without
// touching program code: the client's call into Router.Handler()
// ("router"), a RoundTripper wrapping the router's transport
// ("attempt"), and a handler wrapping each replica in the
// HandlerTransport ("replica"). The router derives every attempt's
// context from the client request's, so the request's trace travels
// with it.

// epoch is the zero of span timestamps.
var epoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// span is one timed call at a layer boundary.
type span struct {
	Name string `json:"name"`
	// Parent indexes the request's span list; -1 for the root.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// reqTrace is one request's spans. Attempts run on the router's own
// goroutines, hence the lock.
type reqTrace struct {
	ID    int64  `json:"id"`
	Op    string `json:"op"`
	mu    sync.Mutex
	Spans []span `json:"spans"`
}

type traceKey struct{}

// parentKey carries the attempt span's index to the replica shim.
type parentKey struct{}

func traceFrom(ctx context.Context) *reqTrace {
	t, _ := ctx.Value(traceKey{}).(*reqTrace)
	return t
}

func (t *reqTrace) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Spans = append(t.Spans, span{Name: name, Parent: parent, Start: sinceEpoch(), End: -1})
	return len(t.Spans) - 1
}

func (t *reqTrace) end(i int) {
	now := sinceEpoch()
	t.mu.Lock()
	t.Spans[i].End = now
	t.mu.Unlock()
}

// attemptShim times every attempt the router makes.
type attemptShim struct{ next http.RoundTripper }

func (s attemptShim) RoundTrip(req *http.Request) (*http.Response, error) {
	t := traceFrom(req.Context())
	if t == nil {
		return s.next.RoundTrip(req)
	}
	i := t.begin("attempt", 0)
	resp, err := s.next.RoundTrip(req.WithContext(context.WithValue(req.Context(), parentKey{}, i)))
	t.end(i)
	return resp, err
}

// replicaShim times every call into a replica's handler.
type replicaShim struct{ next http.Handler }

func (s replicaShim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := traceFrom(r.Context())
	if t == nil {
		s.next.ServeHTTP(w, r)
		return
	}
	parent, _ := r.Context().Value(parentKey{}).(int)
	i := t.begin("replica", parent)
	s.next.ServeHTTP(w, r)
	t.end(i)
}

// breakdown is one request's wall time split into self times: the
// router's own work, the fabric between an attempt and the replica
// handler it reached, and the replica handlers.
type breakdown struct {
	wall, routerSelf, fabric, replica int64
	attempts                          int64
}

func (b *breakdown) add(o breakdown) {
	b.wall += o.wall
	b.routerSelf += o.routerSelf
	b.fabric += o.fabric
	b.replica += o.replica
	b.attempts += o.attempts
}

// breakdown computes the request's self times. A span's self time is
// its duration minus the part of it its children cover.
func (t *reqTrace) breakdown() breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.Spans[0]
	b := breakdown{wall: root.End - root.Start}
	var attempts [][2]int64
	for i, a := range t.Spans {
		if a.Parent != 0 || a.Name != "attempt" {
			continue
		}
		b.attempts++
		attempts = append(attempts, [2]int64{a.Start, a.End})
		var replicas [][2]int64
		for _, r := range t.Spans {
			if r.Parent == i {
				replicas = append(replicas, [2]int64{r.Start, r.End})
				b.replica += r.End - r.Start
			}
		}
		b.fabric += a.End - a.Start - covered(replicas, a.Start, a.End)
	}
	b.routerSelf = b.wall - covered(attempts, root.Start, root.End)
	return b
}

// covered returns how much of [lo, hi] the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans writes the kept traces as one JSON document.
func writeSpans(path, workload string, seed int64, traces []*reqTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Requests []*reqTrace `json:"requests"`
	}{workload, seed, traces}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
