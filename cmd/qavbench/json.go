package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"qav/internal/obs"
	"qav/internal/plan"
	"qav/internal/rewrite"
	"qav/internal/tpq"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

// The -json mode measures kernels and emits one machine-readable
// report. `-exp catalog -json` measures the catalog kernels (E15);
// every other selection measures the hot kernels, E14's answer-plan
// kernels among them. Kernel setups mirror the corresponding
// benchmarks in bench_test.go (BenchmarkContainment,
// BenchmarkMCRGenExponential, BenchmarkNaiveVsMCRGen,
// BenchmarkUseEmbExistence, BenchmarkEvaluate) so the numbers are
// directly comparable with `go test -bench`. E14 and E15 print their
// tables from the same kernel results.

// kernelResult is one measured kernel of the -json report.
type kernelResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// report is the one -json document. Stages carries pipeline stage
// timings aggregated across the spanned kernels, in the exact schema
// the server's GET /metrics emits for its "stages" section, so bench
// artifacts and production metrics can be compared field for field.
type report struct {
	GOOS    string                       `json:"goos"`
	GOARCH  string                       `json:"goarch"`
	NumCPU  int                          `json:"num_cpu"`
	Seed    int64                        `json:"seed"`
	Kernels []kernelResult               `json:"kernels"`
	Stages  map[string]obs.StageSnapshot `json:"stages,omitempty"`
}

// writeReport encodes kernels and stages as one report on stdout.
func writeReport(seed int64, kernels []kernelResult, stages map[string]obs.StageSnapshot) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report{
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		NumCPU:  runtime.NumCPU(),
		Seed:    seed,
		Kernels: kernels,
		Stages:  stages,
	})
}

// kernel returns the result named name, or the zero result.
func kernel(ks []kernelResult, name string) kernelResult {
	for _, k := range ks {
		if k.Name == name {
			return k
		}
	}
	return kernelResult{}
}

// printKernels prints ks as one experiment table.
func printKernels(header string, ks []kernelResult) {
	w := table(header, "kernel", "iters", "time/op", "B/op", "allocs/op")
	for _, k := range ks {
		fmt.Fprintf(w, "%s\t%d\t%v\t%.0f\t%.0f\n",
			k.Name, k.Iters, time.Duration(k.NsPerOp), k.BytesPerOp, k.AllocsPerOp)
	}
	w.Flush()
}

// measure runs f iters times and reports per-op wall time and heap
// allocation deltas. A GC before the loop keeps earlier garbage from
// being attributed to the kernel; ReadMemStats deltas count every
// allocation inside the loop, matching -benchmem's accounting.
func measure(name string, iters int, f func()) kernelResult {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return kernelResult{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
	}
}

// spanned wraps run in a per-op stage span folded into reg, producing
// the same per-stage counts, totals and latency quantiles that qavd's
// /metrics reports.
func spanned(reg *obs.Registry, run func(ctx context.Context)) func() {
	return func() {
		sp := obs.NewSpan()
		run(obs.WithSpan(context.Background(), sp))
		reg.ObserveSpan(sp)
	}
}

// runJSON measures the hot kernels and writes the report to stdout.
func runJSON(ctx context.Context, seed int64) error {
	var kernels []kernelResult
	add := func(r kernelResult) { kernels = append(kernels, r) }
	reg := obs.NewRegistry()

	// Containment over random size-12 patterns (BenchmarkContainment).
	{
		rng := rand.New(rand.NewSource(3))
		alphabet := []string{"a", "b", "c"}
		ps := make([]*tpq.Pattern, 64)
		for i := range ps {
			ps[i] = workload.RandomPattern(rng, alphabet, 12)
		}
		i := 0
		add(measure("containment", 200000, func() {
			tpq.Contained(ps[i%len(ps)], ps[(i+1)%len(ps)])
			i++
		}))
	}

	// MCR generation on the exponential Figure 8 family at n=7
	// (BenchmarkMCRGenExponential/n7).
	{
		v := workload.Fig8View()
		q := workload.Fig8Query(7)
		add(measure("mcr_fig8_n7", 20, spanned(reg, func(ctx context.Context) {
			if _, err := rewrite.MCR(q, v, rewrite.Options{MaxEmbeddings: 1 << 22, Context: ctx}); err != nil {
				panic(err)
			}
		})))
	}

	// MCRGen vs the brute-force baseline on random size-6 pairs
	// (BenchmarkNaiveVsMCRGen).
	{
		rng := rand.New(rand.NewSource(7))
		alphabet := []string{"a", "b", "c"}
		qs := make([]*tpq.Pattern, 32)
		vs := make([]*tpq.Pattern, 32)
		for i := range qs {
			qs[i] = workload.RandomPattern(rng, alphabet, 6)
			vs[i] = workload.RandomPattern(rng, alphabet, 6)
		}
		i := 0
		add(measure("mcrgen_random6", 50000, spanned(reg, func(ctx context.Context) {
			if _, err := rewrite.MCR(qs[i%len(qs)], vs[i%len(vs)], rewrite.Options{MaxEmbeddings: 1 << 18, Context: ctx}); err != nil {
				panic(err)
			}
			i++
		})))
		i = 0
		add(measure("naive_random6", 50000, func() {
			if _, err := rewrite.NaiveMCR(ctx, qs[i%len(qs)], vs[i%len(vs)]); err != nil {
				panic(err)
			}
			i++
		}))
	}

	// UseEmb answerability on random Q128/V64 pairs
	// (BenchmarkUseEmbExistence's largest cell).
	{
		rng := rand.New(rand.NewSource(1))
		alphabet := []string{"a", "b", "c", "d"}
		qs := make([]*tpq.Pattern, 16)
		vs := make([]*tpq.Pattern, 16)
		for i := range qs {
			qs[i] = workload.RandomPattern(rng, alphabet, 128)
			vs[i] = workload.RandomPattern(rng, alphabet, 64)
		}
		i := 0
		add(measure("useemb_q128_v64", 5000, func() {
			rewrite.Answerable(qs[i%len(qs)], vs[i%len(vs)])
			i++
		}))
	}

	// Pattern evaluation on a 100-group clinical-trials document
	// (BenchmarkEvaluate/groups100).
	{
		q := tpq.MustParse("//Trials[//Status]//Trial/Patient")
		d, err := workload.ClinicalTrialsDoc(ctx, rand.New(rand.NewSource(1)), 100, 10, 0.1)
		if err != nil {
			return err
		}
		add(measure("evaluate_groups100", 2000, func() { q.Evaluate(d) }))
	}

	answer, _, err := answerKernels(ctx, reg)
	if err != nil {
		return err
	}
	kernels = append(kernels, answer...)
	return writeReport(seed, kernels, reg.Snapshot().Stages)
}

// answerKernels measures end-to-end answering over a ~10^6-node corpus
// (E14): per-CR naive evaluation vs the compiled answer plan, plus the
// plan's compile and one-time forest index build. The plan kernels
// fold their stage spans into reg, so a report carries
// plan.compile/index/exec stage rows. It returns the answer count,
// after checking that the plan's equals the naive one.
func answerKernels(ctx context.Context, reg *obs.Registry) ([]kernelResult, int, error) {
	d, err := workload.ClinicalTrialsDoc(ctx, rand.New(rand.NewSource(1)), 700, 700, 0.1)
	if err != nil {
		return nil, 0, err
	}
	q := tpq.MustParse("//Trials[//Status]//Trial/Patient")
	v := tpq.MustParse("//Trials//Trial")
	res, err := rewrite.MCR(q, v, rewrite.Options{Context: ctx})
	if err != nil {
		return nil, 0, err
	}
	viewNodes := rewrite.MaterializeView(v, d)
	var naive []*xmltree.Node
	naiveK := measure("answer_naive_1m", 3, func() {
		if naive, err = rewrite.NaiveAnswerMaterialized(ctx, res.CRs, d, viewNodes); err != nil {
			panic(err)
		}
	})
	var pl *plan.Plan
	compileK := measure("answer_plan_compile", 100, spanned(reg, func(ctx context.Context) {
		if pl, err = plan.Compile(ctx, rewrite.Compensations(res.CRs)); err != nil {
			panic(err)
		}
	}))
	var f *plan.Forest
	indexK := measure("answer_plan_index_1m", 3, spanned(reg, func(ctx context.Context) {
		if f, err = plan.IndexSubtrees(ctx, d, viewNodes); err != nil {
			panic(err)
		}
	}))
	var r *plan.ExecResult
	execK := measure("answer_plan_exec_1m", 5, spanned(reg, func(ctx context.Context) {
		if r, err = pl.Exec(ctx, f, plan.ExecOptions{}); err != nil {
			panic(err)
		}
	}))
	if len(r.Matches) != len(naive) {
		return nil, 0, fmt.Errorf("plan: %d answers, naive %d", len(r.Matches), len(naive))
	}
	return []kernelResult{naiveK, compileK, indexK, execK}, len(naive), nil
}
