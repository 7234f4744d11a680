// Package obs is the system's stdlib-only observability layer: atomic
// counters, bounded latency histograms, per-request stage timers
// (Span), an aggregating Registry, and a slow-query log.
//
// The rewriting cost model of the paper — and of the survey literature
// on tree-pattern evaluation — is dominated by a few hot phases:
// embedding enumeration, CR construction, and the quadratic containment
// matrix of redundancy elimination (plus the chase under a schema).
// This package makes those phases visible at runtime instead of only in
// offline benchmarks: the engine opens a Span per computed request, the
// pipeline credits elapsed time to stages, and the Registry aggregates
// spans into per-stage counters and histograms that GET /metrics (and
// expvar, and qavbench -json) all report through one schema.
//
// Everything here is designed to be cheap enough for the hot kernels:
//
//   - a nil *Span is a valid no-op recorder — Start returns the zero
//     Time without calling time.Now, and Observe on a zero start does
//     nothing, so uninstrumented calls pay a nil check and no clock
//     reads;
//   - Span and Histogram record through atomics, never a lock, so the
//     parallel MCR pipeline can credit stages from its workers;
//   - aggregation work (bucket search, map building) happens on Observe
//     of a whole span or on Snapshot, not per stage credit.
package obs

import (
	"context"
	"sync/atomic"
	"time"

	"qav/internal/names"
)

// Stage identifies one phase of the rewriting pipeline. The taxonomy
// follows the paper's algorithm structure: parse (expression → pattern),
// chase (schema constraint application, §4–5), enumerate (labeling and
// useful-embedding enumeration, Theorem 2 / Fig 10), buildcr (CR
// construction and grafting), contain (containment verification and
// redundancy elimination). The answering path adds the plan stages:
// plan.compile (compensation queries → executable programs), plan.index
// (inverted tag lists over a materialized view forest), plan.exec
// (structural-join execution and answer union). The multi-view path
// adds catalog.prune (signature-index candidate selection over the view
// catalog) and batch.chase (the batched pipeline's shared query-side
// labeling metadata, computed once and reused per candidate). The
// cluster router (internal/router) adds router.pick (policy replica
// selection), router.retry (backoff rounds), router.hedge (hedged
// attempts launched) and router.breaker (circuit-breaker state
// transitions).
type Stage int

const (
	StageParse Stage = iota
	StageChase
	StageEnumerate
	StageBuildCR
	StageContain
	StagePlanCompile
	StagePlanIndex
	StagePlanExec
	StageCatalogPrune
	StageBatchChase
	StageCacheReplay
	StageRouterPick
	StageRouterRetry
	StageRouterHedge
	StageRouterBreaker
	// NumStages bounds the Stage enum; keep it last.
	NumStages
)

var stageNames = [NumStages]string{
	names.StageParse, names.StageChase, names.StageEnumerate,
	names.StageBuildCR, names.StageContain, names.StagePlanCompile,
	names.StagePlanIndex, names.StagePlanExec, names.StageCatalogPrune,
	names.StageBatchChase, names.StageCacheReplay, names.StageRouterPick,
	names.StageRouterRetry, names.StageRouterHedge,
	names.StageRouterBreaker,
}

// String returns the stable metric name of the stage, used as the key
// in /metrics, the slow-query log, and qavbench -json.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// A Span accumulates per-stage elapsed time for one request. It is safe
// for concurrent use: the streaming MCR pipeline credits buildcr and
// contain time from multiple workers at once. The zero value is ready
// to use; a nil *Span is a valid recorder that records nothing.
type Span struct {
	ns [NumStages]atomic.Int64
	n  [NumStages]atomic.Int64
}

// NewSpan returns an empty span.
func NewSpan() *Span { return &Span{} }

// Start returns the current time when the span is recording, and the
// zero Time when the receiver is nil — so hot paths write
//
//	t := sp.Start()
//	... work ...
//	sp.Observe(stage, t)
//
// and pay no clock read when unobserved.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// Observe credits the time elapsed since start to stage st. It is a
// no-op on a nil receiver or a zero start (the pair produced by a nil
// Start), so callers never branch themselves.
func (s *Span) Observe(st Stage, start time.Time) {
	if s == nil || start.IsZero() {
		return
	}
	s.Add(st, time.Since(start))
}

// Add credits d to stage st directly.
func (s *Span) Add(st Stage, d time.Duration) {
	if s == nil {
		return
	}
	s.ns[st].Add(int64(d))
	s.n[st].Add(1)
}

// Load returns the number of credits and total nanoseconds recorded for
// stage st.
func (s *Span) Load(st Stage) (count, ns int64) {
	if s == nil {
		return 0, 0
	}
	return s.n[st].Load(), s.ns[st].Load()
}

// StageNs returns the non-zero stage totals in nanoseconds, keyed by
// stage name — the breakdown the slow-query log records. Stages that
// run on several goroutines at once (MCRMultiView's per-view workers)
// are summed across them, so only there may the totals exceed the
// wall-clock duration.
func (s *Span) StageNs() map[string]int64 {
	if s == nil {
		return nil
	}
	var m map[string]int64
	for st := Stage(0); st < NumStages; st++ {
		if ns := s.ns[st].Load(); ns > 0 {
			if m == nil {
				m = make(map[string]int64, int(NumStages))
			}
			m[st.String()] = ns
		}
	}
	return m
}

type spanKey struct{}

// WithSpan returns a context carrying sp. The engine attaches a fresh
// span to each computed (non-cache-hit) request; the pipeline retrieves
// it once per call with SpanFrom.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns the span carried by ctx, or nil. Call it once at
// function entry, not per loop iteration: the context lookup is the
// expensive part.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
