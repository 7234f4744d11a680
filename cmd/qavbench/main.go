// Command qavbench regenerates every experiment of the reproduction
// (see DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-
// measured). Each experiment prints one table; -exp selects a comma-
// separated subset, default "all".
//
// Rewriting-pipeline experiments run through internal/engine — the same
// pipeline the server and CLI use — with caching disabled so timings
// measure the raw algorithms; the "cache" experiment measures the
// engine's cache and singleflight layers themselves. Ctrl-C cancels the
// run's context, stopping in-flight enumerations.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"qav/internal/chase"
	"qav/internal/constraints"
	"qav/internal/engine"
	"qav/internal/obs"
	"qav/internal/plan"
	"qav/internal/rewrite"
	"qav/internal/tpq"
	"qav/internal/viewselect"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

func main() {
	expFlag := flag.String("exp", "all", "experiments to run: useemb,mcrsize,inference,chase,schemamcr,savings,overhead,naive,recursive,engines,cache,select,answer,catalog or all")
	seed := flag.Int64("seed", 1, "random seed")
	jsonFlag := flag.Bool("json", false, "measure the hot kernels and emit one JSON report instead of the experiment tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qavbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "qavbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qavbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "qavbench: %v\n", err)
			}
		}()
	}

	if *jsonFlag {
		// `-exp catalog -json` selects the catalog kernels; every other
		// selection emits the hot kernels.
		run := runJSON
		if *expFlag == "catalog" {
			run = runCatalogJSON
		}
		if err := run(ctx, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "qavbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	eng := engine.New(engine.Config{})

	all := map[string]func(context.Context, *engine.Engine, int64){
		"useemb":    expUseEmb,
		"mcrsize":   expMCRSize,
		"inference": expInference,
		"chase":     expChase,
		"schemamcr": expSchemaMCR,
		"savings":   expSavings,
		"overhead":  expOverhead,
		"naive":     expNaive,
		"recursive": expRecursive,
		"engines":   expEngines,
		"cache":     expCache,
		"select":    expSelect,
		"answer":    expAnswer,
		"catalog":   expCatalog,
	}
	order := []string{"useemb", "mcrsize", "inference", "chase", "schemamcr", "savings", "overhead", "naive", "recursive", "engines", "cache", "select", "answer", "catalog"}

	selected := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		selected = order
	}
	for _, name := range selected {
		f, ok := all[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		f(ctx, eng, *seed)
		fmt.Println()
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "qavbench: interrupted")
			os.Exit(130)
		}
	}
}

func table(header string, cols ...string) *tabwriter.Writer {
	fmt.Println("### " + header)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(cols, "\t"))
	return w
}

// timeIt runs f reps times and returns the average duration.
func timeIt(reps int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start) / time.Duration(reps)
}

// E1 (Theorem 2): UseEmb existence-test scaling in |Q| and |V|.
func expUseEmb(ctx context.Context, eng *engine.Engine, seed int64) {
	w := table("E1 UseEmb existence test (Theorem 2: O(|Q|·|V|²))",
		"|Q|", "|V|", "avg time", "answerable%")
	rng := rand.New(rand.NewSource(seed))
	alphabet := []string{"a", "b", "c", "d"}
	for _, nq := range []int{8, 16, 32, 64, 128} {
		for _, nv := range []int{8, 16, 32, 64} {
			const trials = 30
			var total time.Duration
			answerable := 0
			for i := 0; i < trials; i++ {
				q := workload.RandomPattern(rng, alphabet, nq)
				v := workload.RandomPattern(rng, alphabet, nv)
				start := time.Now()
				if rewrite.Answerable(q, v) {
					answerable++
				}
				total += time.Since(start)
			}
			fmt.Fprintf(w, "%d\t%d\t%v\t%d%%\n", nq, nv, total/trials, answerable*100/trials)
		}
	}
	w.Flush()
}

// E2 (§3.2, Example 1, Fig 8): MCR size is 2^n on the n-branch family.
func expMCRSize(ctx context.Context, eng *engine.Engine, seed int64) {
	w := table("E2 MCR size on the Figure 8 family (Example 1: 2^n irredundant CRs)",
		"n", "embeddings", "irredundant CRs", "expected", "time")
	v := workload.Fig8View()
	for n := 1; n <= 9; n++ {
		q := workload.Fig8Query(n)
		start := time.Now()
		res, err := eng.Rewrite(ctx, engine.Request{Query: q, View: v, MaxEmbeddings: 1 << 22, NoCache: true})
		if err != nil {
			fmt.Fprintf(w, "%d\t-\t-\t%d\tERROR %v\n", n, 1<<n, err)
			continue
		}
		expected := 1 << n
		if n == 1 {
			expected = 1 // the clipped CR collapses into the mapped one
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%v\n",
			n, res.EmbeddingsConsidered, len(res.Union.Patterns), expected, time.Since(start))
	}
	w.Flush()
}

// E3 (Theorem 5): constraint inference scaling in |S|.
func expInference(ctx context.Context, eng *engine.Engine, seed int64) {
	w := table("E3 constraint inference (Theorem 5: O(|S|³))",
		"|S|", "constraints", "avg time")
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{8, 16, 32, 64, 96, 128} {
		g := workload.RandomDAGSchema(rng, n, 0.3)
		var count int
		avg := timeIt(5, func() { count = constraints.Infer(g).Len() })
		fmt.Fprintf(w, "%d\t%d\t%v\n", n, count, avg)
	}
	w.Flush()
}

// E5/E8 (Fig 12, Lemma 4): exhaustive chase explodes on stacked
// diamonds; intelligent chase stays query-sized.
func expChase(ctx context.Context, eng *engine.Engine, seed int64) {
	w := table("E5/E8 exhaustive vs intelligent chase (Figure 12 diamonds)",
		"levels", "exh size", "exh time", "intel size", "intel time")
	q := tpq.MustParse("/x0[b0]")
	for levels := 1; levels <= 7; levels++ {
		g := workload.DiamondSchema(levels)
		sigma := constraints.Infer(g)
		scOnly := constraints.NewSet(sigma.OfKind(constraints.SC))
		v := tpq.MustParse("/x0")
		startEx := time.Now()
		chased, err := chase.Exhaustive(ctx, v, scOnly, chase.Options{MaxSteps: 1 << 20})
		exTime := time.Since(startEx)
		exSize := -1
		if err == nil {
			exSize = chased.Size()
		}
		startIn := time.Now()
		intel := chase.Intelligent(v, q, sigma)
		inTime := time.Since(startIn)
		fmt.Fprintf(w, "%d\t%d\t%v\t%d\t%v\n", levels, exSize, exTime, intel.Size(), inTime)
	}
	w.Flush()
}

// E4 (Theorem 9): end-to-end MCRGenSchema scaling. Constraint inference
// is pre-warmed via the engine's schema-context cache so the timed
// section measures the rewriting algorithm, matching the paper's setup.
func expSchemaMCR(ctx context.Context, eng *engine.Engine, seed int64) {
	w := table("E4 MCRGenSchema end to end (Theorem 9: polynomial)",
		"|S|", "|Q|,|V|≤", "avg time", "answerable%")
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{8, 16, 32, 48} {
		for _, pq := range []int{4, 8, 12} {
			const trials = 25
			var total time.Duration
			answerable := 0
			for i := 0; i < trials; i++ {
				g := workload.RandomDAGSchema(rng, n, 0.3)
				eng.SchemaContext(g)
				q := workload.RandomSchemaPattern(rng, g, pq)
				v := workload.RandomSchemaPattern(rng, g, pq)
				start := time.Now()
				res, err := eng.Rewrite(ctx, engine.Request{Query: q, View: v, Schema: g, NoCache: true})
				total += time.Since(start)
				if err == nil && !res.Union.Empty() {
					answerable++
				}
			}
			fmt.Fprintf(w, "%d\t%d\t%v\t%d%%\n", n, pq, total/trials, answerable*100/trials)
		}
	}
	w.Flush()
}

// E6 ([14] "substantial savings"): answering via the materialized view
// vs evaluating the query on the document.
func expSavings(ctx context.Context, eng *engine.Engine, seed int64) {
	w := table("E6 savings: direct evaluation vs compensation on materialized view",
		"|D| nodes", "view subtree nodes", "t(direct)", "t(materialize)", "t(answer via view)", "speedup", "answers")
	rng := rand.New(rand.NewSource(seed))
	q := tpq.MustParse("//Trials[//Status]//Trial/Patient")
	v := tpq.MustParse("//Trials[//Status]")
	res, err := eng.Rewrite(ctx, engine.Request{Query: q, View: v, NoCache: true})
	if err != nil {
		panic(err)
	}
	for _, groups := range []int{500, 1000, 5000, 20000} {
		d, err := workload.ClinicalTrialsDoc(ctx, rng, groups, 10, 0.02)
		if err != nil {
			panic(err)
		}
		var direct []*xmltree.Node
		tDirect := timeIt(3, func() { direct = q.Evaluate(d) })
		var viewNodes []*xmltree.Node
		tMat := timeIt(3, func() { viewNodes = rewrite.MaterializeView(v, d) })
		viewSize := 0
		for _, vn := range viewNodes {
			viewSize += len(vn.Subtree())
		}
		var via []*xmltree.Node
		tVia := timeIt(3, func() {
			var err error
			if via, err = rewrite.AnswerMaterialized(ctx, res.CRs, d, viewNodes); err != nil {
				panic(err)
			}
		})
		speedup := float64(tDirect) / float64(tVia)
		fmt.Fprintf(w, "%d\t%d\t%v\t%v\t%v\t%.1fx\t%d=%d\n",
			d.Size(), viewSize, tDirect, tMat, tVia, speedup, len(via), len(direct))
	}
	w.Flush()
}

// E7 ([14] "minor overhead"): answerability testing plus rewriting
// generation cost relative to one query evaluation.
func expOverhead(ctx context.Context, eng *engine.Engine, seed int64) {
	w := table("E7 overhead: answerability test + MCR generation vs one evaluation",
		"|D| nodes", "t(UseEmb)", "t(MCRGen)", "t(evaluate)", "overhead")
	rng := rand.New(rand.NewSource(seed))
	q := tpq.MustParse("//Trials[//Status]//Trial/Patient")
	v := tpq.MustParse("//Trials//Trial")
	for _, groups := range []int{100, 1000, 5000} {
		d, err := workload.ClinicalTrialsDoc(ctx, rng, groups, 10, 0.1)
		if err != nil {
			panic(err)
		}
		tTest := timeIt(50, func() { rewrite.Answerable(q, v) })
		tGen := timeIt(50, func() {
			if _, err := eng.Rewrite(ctx, engine.Request{Query: q, View: v, NoCache: true}); err != nil {
				panic(err)
			}
		})
		tEval := timeIt(3, func() { q.Evaluate(d) })
		fmt.Fprintf(w, "%d\t%v\t%v\t%v\t%.2f%%\n",
			d.Size(), tTest, tGen, tEval, 100*float64(tTest+tGen)/float64(tEval))
	}
	w.Flush()
}

// E9 (ablation): MCRGen vs the brute-force NaiveMCR baseline.
func expNaive(ctx context.Context, eng *engine.Engine, seed int64) {
	w := table("E9 ablation: MCRGen vs brute-force baseline (same MCRs)",
		"|Q|,|V|≤", "t(MCRGen)", "t(naive)", "Σ useful embeddings", "Σ naive matchings kept", "agree%")
	rng := rand.New(rand.NewSource(seed))
	alphabet := []string{"a", "b", "c"}
	for _, size := range []int{3, 4, 5, 6} {
		const trials = 20
		var tFast, tSlow time.Duration
		var fastEmb, slowEmb, agree int
		for i := 0; i < trials; i++ {
			q := workload.RandomPattern(rng, alphabet, size)
			v := workload.RandomPattern(rng, alphabet, size)
			start := time.Now()
			res, err := eng.Rewrite(ctx, engine.Request{Query: q, View: v, MaxEmbeddings: 1 << 18, NoCache: true})
			tFast += time.Since(start)
			if err != nil {
				continue
			}
			start = time.Now()
			naive, err := rewrite.NaiveMCR(ctx, q, v)
			tSlow += time.Since(start)
			if err != nil {
				continue
			}
			fastEmb += res.EmbeddingsConsidered
			slowEmb += naive.EmbeddingsConsidered
			if res.Union.SameAs(naive.Union) {
				agree++
			}
		}
		fmt.Fprintf(w, "%d\t%v\t%v\t%d\t%d\t%d%%\n",
			size, tFast/trials, tSlow/trials, fastEmb, slowEmb, agree*100/trials)
	}
	w.Flush()
}

// E10 (§5, Fig 15): recursive schemas restore the exponential MCR.
func expRecursive(ctx context.Context, eng *engine.Engine, seed int64) {
	w := table("E10 recursive schemas: MCR size on the Figure 15 family (§5)",
		"branches k", "CRs (recursive schema)", "CRs (schemaless)", "time")
	for k := 1; k <= 6; k++ {
		g := workload.Fig15Schema(k)
		eng.SchemaContext(g)
		q := workload.Fig15Query(k)
		v := tpq.MustParse("//a//b")
		start := time.Now()
		res, err := eng.Rewrite(ctx, engine.Request{Query: q, View: v, Schema: g, Recursive: true, MaxEmbeddings: rewrite.DefaultMaxEmbeddings, NoCache: true})
		if err != nil {
			fmt.Fprintf(w, "%d\tERROR %v\n", k, err)
			continue
		}
		plain, err := eng.Rewrite(ctx, engine.Request{Query: q, View: v, MaxEmbeddings: rewrite.DefaultMaxEmbeddings, NoCache: true})
		if err != nil {
			fmt.Fprintf(w, "%d\tERROR %v\n", k, err)
			continue
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\n",
			k, len(res.Union.Patterns), len(plain.Union.Patterns), time.Since(start))
	}
	w.Flush()
}

// E11 (substrate): the two evaluation engines — tree-DP vs structural
// joins over inverted tag lists — on selective and unselective queries.
func expEngines(ctx context.Context, eng *engine.Engine, seed int64) {
	w := table("E11 evaluation engines: tree-DP vs structural joins",
		"|D| nodes", "query", "t(tree-DP)", "t(structjoin, indexed)", "t(index build)")
	rng := rand.New(rand.NewSource(seed))
	for _, groups := range []int{1000, 10000} {
		d, err := workload.ClinicalTrialsDoc(ctx, rng, groups, 10, 0.05)
		if err != nil {
			panic(err)
		}
		var f *plan.Forest
		tBuild := timeIt(3, func() {
			var err error
			if f, err = plan.IndexDocument(ctx, d); err != nil {
				panic(err)
			}
		})
		for _, expr := range []string{
			"//Trials[//Status]//Trial/Patient", // selective predicate
			"//Trials//Trial",                   // unselective
			"//Status",                          // highly selective
		} {
			q := tpq.MustParse(expr)
			tDP := timeIt(3, func() { q.Evaluate(d) })
			tSJ := timeIt(3, func() {
				if _, err := plan.EvaluateIndexed(ctx, f, q); err != nil {
					panic(err)
				}
			})
			fmt.Fprintf(w, "%d\t%s\t%v\t%v\t%v\n", d.Size(), expr, tDP, tSJ, tBuild)
		}
	}
	w.Flush()
}

// E12 (view selection, paper's [27] direction): greedy selection
// quality/time over random workloads.
func expSelect(ctx context.Context, eng *engine.Engine, seed int64) {
	w := table("E12 view selection: greedy coverage of random workloads",
		"queries", "candidates", "k", "exact", "partial", "uncovered", "time")
	rng := rand.New(rand.NewSource(seed))
	alphabet := []string{"a", "b", "c", "d"}
	for _, nq := range []int{5, 10, 20} {
		for _, k := range []int{1, 3, 5} {
			var qs []*tpq.Pattern
			r2 := rand.New(rand.NewSource(rng.Int63()))
			for i := 0; i < nq; i++ {
				qs = append(qs, workload.RandomPattern(r2, alphabet, 6))
			}
			cands := viewselect.Candidates(qs)
			start := time.Now()
			sel, err := viewselect.Greedy(ctx, viewselect.Workload{Queries: qs}, cands, k)
			if err != nil {
				fmt.Fprintf(w, "%d\tERROR %v\n", nq, err)
				continue
			}
			var exact, partial, useless int
			for _, b := range sel.PerQuery {
				switch b {
				case viewselect.Exact:
					exact++
				case viewselect.Partial:
					partial++
				default:
					useless++
				}
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
				nq, len(cands), k, exact, partial, useless, time.Since(start))
		}
	}
	w.Flush()
}

// E13 (engine layer): what the cache and singleflight layers buy.
// "cold" is the raw pipeline (cache bypassed), "cached" a hit on a warm
// cache, "dup x8" eight goroutines requesting the same key at once —
// singleflight computes once and the other seven wait on the flight.
func expCache(ctx context.Context, eng *engine.Engine, seed int64) {
	w := table("E13 engine cache and singleflight on the Figure 8 family",
		"n", "t(cold)", "t(cached)", "t(dup x8 wall)", "computes for dup")
	v := workload.Fig8View()
	for _, n := range []int{4, 6, 8} {
		q := workload.Fig8Query(n)
		tCold := timeIt(5, func() {
			if _, err := eng.Rewrite(ctx, engine.Request{Query: q, View: v, MaxEmbeddings: rewrite.DefaultMaxEmbeddings, NoCache: true}); err != nil {
				panic(err)
			}
		})
		// Warm a private engine, then time hits.
		warm := engine.New(engine.Config{})
		req := engine.Request{Query: q, View: v, MaxEmbeddings: rewrite.DefaultMaxEmbeddings}
		if _, err := warm.Rewrite(ctx, req); err != nil {
			panic(err)
		}
		tHit := timeIt(1000, func() {
			if _, err := warm.Rewrite(ctx, req); err != nil {
				panic(err)
			}
		})
		// Eight concurrent identical requests against a cold engine.
		cold := engine.New(engine.Config{})
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := cold.Rewrite(ctx, req); err != nil {
					panic(err)
				}
			}()
		}
		wg.Wait()
		tDup := time.Since(start)
		fmt.Fprintf(w, "%d\t%v\t%v\t%v\t%d\n", n, tCold, tHit, tDup, cold.Stats().CacheMisses)
	}
	w.Flush()
}

// E14 (answer plans): end-to-end answering over a ~10^6-node corpus —
// per-CR naive evaluation vs the compiled plan, printed from the
// kernels `-json` reports. The plan's answer count is checked against
// the naive one.
func expAnswer(ctx context.Context, eng *engine.Engine, seed int64) {
	kernels, answers, err := answerKernels(ctx, obs.NewRegistry())
	if err != nil {
		panic(err)
	}
	printKernels("E14 answer plans: compiled plan vs naive per-CR evaluation", kernels)
	naive, exec := kernel(kernels, "answer_naive_1m"), kernel(kernels, "answer_plan_exec_1m")
	fmt.Printf("answers: %d (plan = naive); exec speedup (naive/plan): %.2fx\n", answers, naive.NsPerOp/exec.NsPerOp)
}
