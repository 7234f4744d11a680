package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The load is a closed loop: each client sends its next request only
// when the previous reply has arrived, as qavcli and a mediator waiting
// on each answer do. An open loop's timer-driven sends would lag on a
// 2-core host by more than the ~20 µs a cache hit takes, so it would
// measure its own generator.

const (
	// windows is the number of timed windows per phase (see
	// windowStats for how they are summarized).
	windows = 80
	// layerSamples traced requests feed the layer pass.
	layerSamples = 2000
	// keptTraces traced requests are written to the span file.
	keptTraces = 2048
	// maxErrors failure descriptions are kept for the report.
	maxErrors = 8
)

// Window numbering: warmup before the first window, then windows
// 0..windows-1 untraced and, in a traced run, windows..2*windows-1
// traced.
const (
	warmup  = -1
	stopped = 1 << 20
)

// loadgen drives the clients through the phases.
type loadgen struct {
	f      *fixture
	h      http.Handler
	window atomic.Int32
	traced bool
	// tracedStarted counts traced requests started, numbering them from 1;
	// samples keeps the first layerSamples of them for the layer pass.
	tracedStarted atomic.Int64
	samples       []op
	// newKeys counts keys sent for the first time during the timed
	// windows.
	newKeys atomic.Int64
	clients []*client
	// Filled by the controller.
	windowDur []time.Duration
}

// client is one closed-loop client's state. Only its goroutine touches
// it until the load stops.
type client struct {
	next func() op
	rec  recorder
	// lat holds one latency histogram per window; writeLat collects the
	// latency of view registrations over all windows.
	lat      []hist
	writeLat hist
	sent     int64
	failed   int64
	errs     []string
	// responses maps each identity to the distinct bodies it received.
	responses map[identity]*variants
	// Traced-phase totals.
	bd        breakdown
	tracedN   int64
	respBytes int64
	traces    []*reqTrace
}

// variants are the distinct bodies one identity received.
type variants struct {
	bodies []variant
}

type variant struct {
	hash uint64
	n    int64
	body []byte
}

func newLoadgen(f *fixture, def workloadDef, h http.Handler, clients int, seed int64, traced bool) *loadgen {
	lg := &loadgen{f: f, h: h, traced: traced, samples: make([]op, layerSamples)}
	lg.window.Store(warmup)
	phases := 1
	if traced {
		phases = 2
	}
	for i := 0; i < clients; i++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i) + 1))
		c := &client{
			next:      def.source(f, rng, i),
			lat:       make([]hist, phases*windows),
			responses: make(map[identity]*variants),
		}
		c.rec.header = make(http.Header)
		lg.clients = append(lg.clients, c)
	}
	return lg
}

// window is one timed window of a run's plan.
type window struct {
	index  int
	length time.Duration
}

// windowPlan returns the timed windows of a run measuring for length:
// windows equal untraced windows, or, traced, untraced and traced
// windows of half that length in turn, so drift over the run touches
// both sides of the tracing-overhead comparison alike. The two sides'
// windows are equally long: the fastest quarter of shorter windows
// reads faster.
func windowPlan(length time.Duration, traced bool) []window {
	var plan []window
	for w := 0; w < windows; w++ {
		if traced {
			half := length / (2 * windows)
			plan = append(plan, window{w, half}, window{windows + w, half})
		} else {
			plan = append(plan, window{w, length / windows})
		}
	}
	return plan
}

// run warms up, runs the plan's windows, calling edge at each window's
// start and end, then stops the clients and waits for them.
func (lg *loadgen) run(warm time.Duration, plan []window, edge func(w int, start bool)) {
	var wg sync.WaitGroup
	for _, c := range lg.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			lg.loop(c)
		}(c)
	}
	time.Sleep(warm)
	lg.windowDur = make([]time.Duration, len(plan))
	for _, w := range plan {
		start := time.Now()
		lg.window.Store(int32(w.index))
		edge(w.index, true)
		time.Sleep(w.length)
		edge(w.index, false)
		lg.windowDur[w.index] = time.Since(start)
	}
	lg.window.Store(stopped)
	wg.Wait()
}

func (lg *loadgen) loop(c *client) {
	ctx := context.Background()
	for {
		w := int(lg.window.Load())
		if w == stopped {
			return
		}
		o := c.next()
		for _, k := range o.keys(lg.f) {
			if lg.f.sent[k].CompareAndSwap(false, true) && w >= 0 {
				lg.newKeys.Add(1)
			}
		}
		rctx := ctx
		var t *reqTrace
		if lg.traced && w >= windows {
			t = &reqTrace{ID: lg.tracedStarted.Add(1), Op: opNames[o.kind], Spans: make([]span, 0, 3)}
			rctx = context.WithValue(ctx, traceKey{}, t)
			if t.ID <= layerSamples {
				lg.samples[t.ID-1] = o
			}
		}
		req, err := http.NewRequestWithContext(rctx, o.method, "http://qav"+o.target, bytes.NewReader(o.body))
		if err != nil {
			c.fail("building request: " + err.Error())
			continue
		}
		c.rec.reset()
		var lat int64
		if t != nil {
			root := t.begin("router", -1)
			lg.h.ServeHTTP(&c.rec, req)
			t.end(root)
			bd := t.breakdown()
			lat = bd.wall
			c.bd.add(bd)
			c.tracedN++
			c.respBytes += int64(c.rec.body.Len())
			if t.ID <= keptTraces {
				c.traces = append(c.traces, t)
			}
		} else {
			start := time.Now()
			lg.h.ServeHTTP(&c.rec, req)
			lat = int64(time.Since(start))
		}
		c.sent++
		if done := int(lg.window.Load()); done >= 0 && done < len(c.lat) {
			c.lat[done].add(lat)
			if o.kind == opWrite {
				c.writeLat.add(lat)
			}
		}
		if c.rec.code != http.StatusOK {
			c.fail(fmt.Sprintf("%s: status %d: %s", opNames[o.kind], c.rec.code, truncate(c.rec.body.String(), 200)))
			continue
		}
		c.store(o, checkedPart(o, c.rec.body.Bytes()))
	}
}

func (c *client) fail(msg string) {
	c.failed++
	if len(c.errs) < maxErrors {
		c.errs = append(c.errs, msg)
	}
}

// store records one response body under its identity: a hash per
// response, the bytes once per distinct hash.
func (c *client) store(o op, body []byte) {
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	id := o.identity()
	vs := c.responses[id]
	if vs == nil {
		vs = &variants{}
		c.responses[id] = vs
	}
	for i := range vs.bodies {
		if vs.bodies[i].hash == sum {
			vs.bodies[i].n++
			return
		}
	}
	vs.bodies = append(vs.bodies, variant{hash: sum, n: 1, body: bytes.Clone(body)})
}

// checkedPart is the part of a response the checker reads. A catalog
// listing also names every registered view, which changes with each
// write, so only its ranked selection is kept.
func checkedPart(o op, body []byte) []byte {
	if o.kind != opSelect {
		return body
	}
	if i := bytes.LastIndex(body, []byte(`"selected"`)); i >= 0 {
		return body[i:]
	}
	return noSelection
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

// windowStats summarize windows [from, from+windows).
//
// The end-to-end figures come from the fastest quarter of the windows:
// the request rate over their total time, and the latency percentiles
// over every sample in them. On the 2-vCPU VM the benchmark was sized
// on, the host's own speed swings by a third within a second
// (host.control_ns), and slows whole runs too. On the same ten runs of
// rewrite_hot, pooling every window spread throughput over the seeds by
// 8.0% of the median and p50 by 12.8%; the faster half of 20 windows by
// 5.5% and 5.1%; the fastest quarter of 80 by 3.3% and 2.9%. The price:
// a stall that slows fewer than three quarters of the windows is
// filtered out; loadgen.window_spread_pct still shows it.
type windowStats struct {
	rate     float64   // requests/s
	rates    []float64 // per window
	p50, p99 float64   // ms
	samples  int64
}

func (lg *loadgen) stats(from int) windowStats {
	var ws windowStats
	order := make([]int, windows)
	for i := range order {
		ws.rates = append(ws.rates, float64(lg.requests(from+i))/lg.windowDur[from+i].Seconds())
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return ws.rates[order[i]] > ws.rates[order[j]] })
	var fast hist
	var total time.Duration
	for _, i := range order[:windows/4] {
		for _, c := range lg.clients {
			fast.merge(&c.lat[from+i])
		}
		total += lg.windowDur[from+i]
	}
	ws.samples = fast.count()
	ws.rate = float64(ws.samples) / total.Seconds()
	ws.p50, ws.p99 = fast.quantileMs(0.50), fast.quantileMs(0.99)
	return ws
}

// requests returns the number of requests completed in window w.
func (lg *loadgen) requests(w int) int64 {
	var n int64
	for _, c := range lg.clients {
		n += c.lat[w].count()
	}
	return n
}

// heapSampler tracks the peak live-heap size while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > hs.peak {
				hs.peak = v
			}
			select {
			case <-hs.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// finish stops the sampler and returns the peak in bytes.
func (hs *heapSampler) finish() uint64 {
	close(hs.stop)
	<-hs.done
	return hs.peak
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
