package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	// tmpDir holds the replicas' persistent-cache directories.
	tmpDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's full record: every metric computed, end-to-end
// and per-layer, plus the correctness verdict.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Clients   int               `json:"clients"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Errors    []string          `json:"errors,omitempty"`

	// traces are the kept traced requests, for the span file.
	traces []*reqTrace
}

// Set-up repeats until it has run setupMinReps times and for
// setupMinTotal in all (at most setupMaxReps times); setup_s is the
// median, so a cheap set-up is sampled often enough to be steady.
const (
	setupMinReps  = 5
	setupMinTotal = time.Second
	setupMaxReps  = 50
	controlReps   = 9
)

// runWorkload runs one workload: fixtures, set-up, warm-up, the timed
// windows (then, traced, the traced windows and the layer pass), and
// the check of every response. An error means nothing was measured.
func runWorkload(cfg runConfig) (*result, error) {
	def, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	sz, minReps, minTotal := fullSizes, setupMinReps, setupMinTotal
	if cfg.quick {
		sz, minReps, minTotal = quickSizes, 2, 0
	}
	control := controlNs(controlReps)
	f, err := def.build(cfg.seed, sz)
	if err != nil {
		return nil, fmt.Errorf("fixtures: %w", err)
	}
	persistRoot := ""
	if def.persist {
		persistRoot = cfg.tmpDir
		if err := os.MkdirAll(persistRoot, 0o755); err != nil {
			return nil, err
		}
	}
	c, setupS, err := setUp(def, f, persistRoot, cfg.trace, minReps, minTotal)
	if err != nil {
		return nil, err
	}

	clients := runtime.NumCPU()
	lg := newLoadgen(f, def, c.front, clients, cfg.seed, cfg.trace)
	length := time.Duration(cfg.seconds * float64(time.Second))
	// A traced run reads the program's counters across all its windows
	// and the runtime's allocation counters across its untraced ones.
	var (
		ms            runtime.MemStats
		allocs, gcs   uint64
		before, after map[string]int64
		hs            *heapSampler
		heapPeak      uint64
		plan          = windowPlan(length, cfg.trace)
		first, last   = plan[0].index, plan[len(plan)-1].index
	)
	edge := func(w int, start bool) {
		if !cfg.trace {
			return
		}
		switch {
		case start && w == first:
			before, hs = c.counters(), startHeapSampler()
		case !start && w == last:
			after, heapPeak = c.counters(), hs.finish()
		}
		if w < windows {
			if start {
				ms = memStats()
			} else {
				end := memStats()
				allocs += end.TotalAlloc - ms.TotalAlloc
				gcs += uint64(end.NumGC - ms.NumGC)
			}
		}
	}
	lg.run(length/4, plan, edge)
	rss := peakRSSMB()
	if err := c.close(); err != nil {
		return nil, fmt.Errorf("closing the cluster: %w", err)
	}
	control = append(control, controlNs(controlReps)...)

	m := make(map[string]float64)
	un := lg.stats(0)
	m["setup_s"] = setupS
	m["throughput_ops_s"] = un.rate
	m["latency_p50_ms"] = un.p50
	m["latency_p99_ms"] = un.p99
	m["rss_peak_mb"] = rss
	m["host.control_ns"] = median(control)
	m["loadgen.samples"] = float64(un.samples)
	m["loadgen.window_spread_pct"] = spreadPct(un.rates)
	var writes hist
	for _, cl := range lg.clients {
		writes.merge(&cl.writeLat)
	}
	m["write_p50_ms"], m["write_p99_ms"] = writes.quantileMs(0.50), writes.quantileMs(0.99)

	r := &result{Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Clients: clients}
	if cfg.trace {
		ops := int64(0)
		for w := 0; w < windows; w++ {
			ops += lg.requests(w)
		}
		m["go.alloc_kb_per_op"] = float64(allocs) / 1024 / float64(max(ops, 1))
		m["go.gc_per_kop"] = float64(gcs) * 1000 / float64(max(ops, 1))
		m["go.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
		traced := lg.stats(windows)
		m["trace.overhead_pct"] = 100 * (un.rate/traced.rate - 1)
		tracedMetrics(m, lg, before, after)
		n := min(int(lg.tracedStarted.Load()), layerSamples)
		lp, err := runLayerPass(f, lg.samples[:n])
		if err != nil {
			return nil, err
		}
		lp.metrics(m)
		for _, cl := range lg.clients {
			r.traces = append(r.traces, cl.traces...)
		}
	}

	out := checkResponses(f, def.strict, mergeResponses(lg.clients), runtime.NumCPU())
	m["check.variant_keys"] = float64(out.variantKeys)
	for _, cl := range lg.clients {
		r.Attempted += cl.sent
		r.Failed += cl.failed
		r.Errors = append(r.Errors, cl.errs...)
	}
	r.Failed += out.failed
	r.Errors = append(r.Errors, out.errs...)
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.Metrics = make(map[string]metric, len(m))
	for name, v := range m {
		r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	return r, nil
}

// setUp boots and prepares the cluster repeatedly, keeps the last one,
// and returns the median set-up time in seconds. Only program calls
// are timed: the fixtures exist before the first boot.
func setUp(def workloadDef, f *fixture, persistRoot string, traced bool, minReps int, minTotal time.Duration) (*cluster, float64, error) {
	var times []float64
	var total time.Duration
	for {
		runtime.GC()
		start := time.Now()
		c, err := bootCluster(persistRoot, traced)
		if err != nil {
			return nil, 0, err
		}
		if err := def.prepare(f, c); err != nil {
			return nil, 0, errors.Join(fmt.Errorf("set-up: %w", err), c.close())
		}
		d := time.Since(start)
		times = append(times, d.Seconds())
		total += d
		if (len(times) >= minReps && total >= minTotal) || len(times) >= setupMaxReps {
			return c, median(times), nil
		}
		if err := c.close(); err != nil {
			return nil, 0, err
		}
	}
}

// tracedMetrics derives per-layer metrics from the traced requests'
// spans and from the program's counters read at the edges of the timed
// windows.
func tracedMetrics(m map[string]float64, lg *loadgen, before, after map[string]int64) {
	var bd breakdown
	var n, respBytes, ops int64
	for _, cl := range lg.clients {
		bd.add(cl.bd)
		n += cl.tracedN
		respBytes += cl.respBytes
	}
	for w := 0; w < 2*windows; w++ {
		ops += lg.requests(w)
	}
	perOpUs := func(ns int64) float64 { return ratio(ns, n) / 1e3 }
	m["router.self_us"] = perOpUs(bd.routerSelf)
	m["router.fabric_us"] = perOpUs(bd.fabric)
	m["server.handler_us"] = perOpUs(bd.replica)
	m["server.resp_kb"] = ratio(respBytes, n) / 1024

	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	m["router.attempts_per_op"] = ratio(d["attempts"], ops)
	lookups := d["hits"] + d["warmHits"] + d["misses"] + d["dedups"]
	m["cache.hit_rate"] = ratio(d["hits"], lookups)
	m["cache.warm_hit_rate"] = ratio(d["warmHits"], lookups)
	m["cache.dedup_rate"] = ratio(d["dedups"], lookups)
	m["cache.recompute_rate"] = ratio(max(d["misses"]-lg.newKeys.Load(), 0), d["misses"])
	m["cache.persisted"] = float64(d["persisted"])
	m["cache.persist_drops"] = float64(d["persistDrops"])
	m["engine.intern_hit_rate"] = ratio(d["internHits"], d["internHits"]+d["internMisses"])
	m["plan.cache_hit_rate"] = ratio(d["planHits"], d["planLookups"])
	m["limits.shed_rate"] = ratio(d["shed"], ops)
	for _, stage := range []string{"enumerate", "buildcr", "contain", "chase"} {
		m["rewrite."+stage+"_cpu_us_per_miss"] = ratio(d["stage."+stage], d["misses"]) / 1e3
	}
}

// resultLine is the last line of a single run's output: the metrics
// the run kind reports (end-to-end untraced, per-layer traced).
func resultLine(r *result) any {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		ms[d.Name] = r.Metrics[d.Name]
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms}
}

// metricNames lists a result's metric names, end-to-end first.
func metricNames(r *result) []string {
	var names []string
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if _, ok := r.Metrics[d.Name]; ok {
				names = append(names, d.Name)
			}
		}
	}
	return names
}
