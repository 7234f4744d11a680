// Differential tests: compiled-plan answers must be identical — same
// nodes, same order — to the frozen naive evaluators in
// internal/rewrite/answer_ref.go, over random (query, view, document)
// instances, in both forest layouts (shared-document windows and
// shipped standalone trees). External test package: the
// references live in rewrite, which imports plan.
package plan_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"qav/internal/leaktest"
	"qav/internal/plan"
	"qav/internal/rewrite"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

// sameNodes demands pointer-identical answers in identical order.
func sameNodes(got, want []*xmltree.Node) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// diffInstance checks one (CRs, document) instance in both layouts
// against both references.
func diffInstance(t *testing.T, ctx context.Context, tag string, crs []*rewrite.ContainedRewriting, v *tpq.Pattern, d *xmltree.Document) {
	t.Helper()
	comps := rewrite.Compensations(crs)
	pl, err := plan.Compile(ctx, comps)
	if err != nil {
		t.Fatalf("%s: compile: %v", tag, err)
	}

	// Shared layout: windows of the source document.
	viewNodes := rewrite.MaterializeView(v, d)
	wantShared, err := rewrite.NaiveAnswerMaterialized(ctx, crs, d, viewNodes)
	if err != nil {
		t.Fatalf("%s: naive materialized: %v", tag, err)
	}
	fShared, err := plan.IndexSubtrees(ctx, d, viewNodes)
	if err != nil {
		t.Fatalf("%s: index subtrees: %v", tag, err)
	}
	res, err := pl.Exec(ctx, fShared, plan.ExecOptions{})
	if err != nil {
		t.Fatalf("%s: exec: %v", tag, err)
	}
	if !sameNodes(res.Nodes(), wantShared) {
		t.Fatalf("%s: diverges on shared forest:\n got %v\nwant %v",
			tag, paths(res.Nodes()), paths(wantShared))
	}

	// Shipped layout: standalone cloned trees (the viewstore contract).
	m := viewstore.Materialize(v, d)
	wantForest, err := rewrite.NaiveAnswerForest(ctx, crs, m.Forest)
	if err != nil {
		t.Fatalf("%s: naive forest: %v", tag, err)
	}
	fShipped, err := plan.IndexForest(ctx, m.Forest)
	if err != nil {
		t.Fatalf("%s: index forest: %v", tag, err)
	}
	res, err = pl.Exec(ctx, fShipped, plan.ExecOptions{})
	if err != nil {
		t.Fatalf("%s: exec shipped: %v", tag, err)
	}
	if !sameNodes(res.Nodes(), wantForest) {
		t.Fatalf("%s: diverges on shipped forest:\n got %v\nwant %v",
			tag, paths(res.Nodes()), paths(wantForest))
	}
}

func paths(ns []*xmltree.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Path()
	}
	return out
}

// TestPlanDiffRandom is the main differential sweep: ≥500 random
// (query, view, document) instances, both layouts.
func TestPlanDiffRandom(t *testing.T) {
	defer leaktest.Check(t)()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	alphabet := []string{"a", "b", "c"}
	const instances = 520
	answerable := 0
	for i := 0; i < instances; i++ {
		q := workload.RandomPattern(rng, alphabet, 6)
		v := workload.RandomPattern(rng, alphabet, 5)
		res, err := rewrite.MCR(q, v, rewrite.Options{MaxEmbeddings: 1 << 14, Context: ctx})
		if err != nil {
			t.Fatalf("instance %d: MCR(%s, %s): %v", i, q, v, err)
		}
		d := xmltree.Generate(rng, xmltree.GenSpec{
			Tags: alphabet, MaxDepth: 5, MaxFanout: 3, TargetSize: 30,
		})
		if len(res.CRs) > 0 {
			answerable++
		}
		// Unanswerable instances still diff: an empty plan must produce
		// an empty answer set everywhere.
		diffInstance(t, ctx, q.String()+" / "+v.String(), res.CRs, v, d)
	}
	if answerable < instances/10 {
		t.Fatalf("only %d/%d instances answerable: workload too weak to trust", answerable, instances)
	}
	t.Logf("%d instances (%d answerable)", instances, answerable)
}

// TestPlanDiffWildcards covers wildcard compensations, which exercise
// the forest's all-items candidate path in the structural joins. The
// MCR algorithms reject wildcard queries (outside XP{/,//,[]}), so
// these compensations are synthetic — the path still matters because
// EvaluateIndexed evaluates arbitrary tpq patterns through the same
// join core.
func TestPlanDiffWildcards(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", tpq.Wildcard}
	docTags := []string{"a", "b", "c"}
	for i := 0; i < 100; i++ {
		v := workload.RandomPattern(rng, docTags, 4) // views stay concrete
		crs := []*rewrite.ContainedRewriting{
			{Compensation: workload.RandomPattern(rng, alphabet, 5)},
			{Compensation: workload.RandomPattern(rng, alphabet, 4)},
		}
		d := xmltree.Generate(rng, xmltree.GenSpec{
			Tags: docTags, MaxDepth: 4, MaxFanout: 3, TargetSize: 25,
		})
		diffInstance(t, ctx, "wildcard "+v.String(), crs, v, d)
	}
}

// TestPlanDiffFixtures pins the paper's running example end to end.
func TestPlanDiffFixtures(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	d, err := workload.ClinicalTrialsDoc(ctx, rng, 20, 6, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ q, v string }{
		{"//Trials[//Status]//Trial/Patient", "//Trials//Trial"},
		{"//Trials//Trial", "//Trials//Trial"},
		{"//Trials//Trial[Status]", "//Trials//Trial"},
		{"//Trial/Patient", "//Trials"},
	} {
		q := tpq.MustParse(tc.q)
		v := tpq.MustParse(tc.v)
		res, err := rewrite.MCR(q, v, rewrite.Options{Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		diffInstance(t, ctx, tc.q+" / "+tc.v, res.CRs, v, d)
	}
}

// TestPlanExecCancelMultiProgram: a cancelled context must abort a
// four-program plan before it runs any program, leaking no goroutine.
func TestPlanExecCancelMultiProgram(t *testing.T) {
	defer leaktest.Check(t)()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	d, err := workload.ClinicalTrialsDoc(ctx, rng, 50, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	v := tpq.MustParse("//Trials")
	viewNodes := v.Evaluate(d)
	f, err := plan.IndexSubtrees(ctx, d, viewNodes)
	if err != nil {
		t.Fatal(err)
	}
	comps := []*tpq.Pattern{
		tpq.MustParse("/Trials//Trial/Patient"),
		tpq.MustParse("/Trials//Trial[Status]"),
		tpq.MustParse("/Trials//Patient"),
		tpq.MustParse("/Trials//Status"),
	}
	pl, err := plan.Compile(ctx, comps)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := pl.Exec(cctx, f, plan.ExecOptions{}); err != context.Canceled {
		t.Fatalf("exec after cancel: err = %v", err)
	}
}

// chainDoc generates a document dominated by one tag, so same-tag
// chains run deep and a //a//a view materializes nested windows.
func chainDoc(rng *rand.Rand) *xmltree.Document {
	return xmltree.Generate(rng, xmltree.GenSpec{
		Tags: []string{"a", "a", "a", "b", "c"}, MaxDepth: 8, MaxFanout: 2, TargetSize: 40,
	})
}

// TestPlanDiffNestedWindows diffs MCR answers through chain views
// (//a//a, //a//a//a, //a[b]//a): their shared-layout windows nest, so
// one node holds a position in several windows and the union must
// order by global preorder and keep each node once.
func TestPlanDiffNestedWindows(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1515))
	views := []*tpq.Pattern{
		tpq.MustParse("//a//a"), tpq.MustParse("//a//a//a"), tpq.MustParse("//a[b]//a"), tpq.MustParse("//a/a"),
	}
	answerable, nested := 0, 0
	for i := 0; i < 200; i++ {
		v := views[i%len(views)]
		q := workload.RandomPattern(rng, []string{"a", "a", "b", "c"}, 6)
		res, err := rewrite.MCR(q, v, rewrite.Options{MaxEmbeddings: 1 << 12, Context: ctx})
		if err != nil {
			t.Fatalf("MCR(%s, %s): %v", q, v, err)
		}
		if len(res.CRs) > 0 {
			answerable++
		}
		d := chainDoc(rng)
		if vn := rewrite.MaterializeView(v, d); len(vn) > 1 && vn[0].IsAncestorOf(vn[1]) {
			nested++
		}
		diffInstance(t, ctx, q.String()+" / "+v.String(), res.CRs, v, d)
	}
	if answerable < 40 || nested < 40 {
		t.Fatalf("%d answerable, %d with nested windows: workload too weak to trust", answerable, nested)
	}
}

// TestPlanDiffMultiProgramUnions diffs synthetic CR unions of up to
// five compensations, wildcards included, over nested windows: the
// programs' answer lists overlap, so the union must deduplicate
// across programs as well as across windows.
func TestPlanDiffMultiProgramUnions(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	alphabet := []string{"a", "a", "b", tpq.Wildcard}
	multi := 0
	for i := 0; i < 150; i++ {
		v := tpq.MustParse([]string{"//a", "//a//a", "//b"}[i%3])
		var crs []*rewrite.ContainedRewriting
		for k := 0; k < 2+i%4; k++ {
			crs = append(crs, &rewrite.ContainedRewriting{Compensation: workload.RandomPattern(rng, alphabet, 4)})
		}
		pl, err := plan.Compile(ctx, rewrite.Compensations(crs))
		if err != nil {
			t.Fatal(err)
		}
		if pl.Programs() > 1 {
			multi++
		}
		diffInstance(t, ctx, "union over "+v.String(), crs, v, chainDoc(rng))
	}
	if multi < 100 {
		t.Fatalf("only %d multi-program plans", multi)
	}
}

// TestPlanExecConcurrentForest runs several plans at once, serial and
// parallel, against one shared forest of each layout. Every run borrows
// a pooled scratch (the child joins' bitset and the list arena) from
// the forest; a scratch handed to two runs, or pooled with bits still
// set, shows up as a wrong answer here and as a data race under -race.
func TestPlanExecConcurrentForest(t *testing.T) {
	defer leaktest.Check(t)()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	d, err := workload.ClinicalTrialsDoc(ctx, rng, 30, 8, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	v := tpq.MustParse("//Trials")
	viewNodes := rewrite.MaterializeView(v, d)
	shared, err := plan.IndexSubtrees(ctx, d, viewNodes)
	if err != nil {
		t.Fatal(err)
	}
	m := viewstore.Materialize(v, d)
	shipped, err := plan.IndexForest(ctx, m.Forest)
	if err != nil {
		t.Fatal(err)
	}
	var plans []*plan.Plan
	var unions [][]*rewrite.ContainedRewriting
	for _, comps := range [][]string{
		{"/Trials//Trial/Patient"},
		{"/Trials[//Status]//Trial[Status]/Patient", "/Trials//Trial[Patient]"},
		{"/Trials/Trial/*", "/Trials//Status", "/*[Trial/Status]"},
		{"/Trials[Trial/Status][Trial/Patient]"},
	} {
		var ps []*tpq.Pattern
		var crs []*rewrite.ContainedRewriting
		for _, c := range comps {
			p := tpq.MustParse(c)
			ps = append(ps, p)
			crs = append(crs, &rewrite.ContainedRewriting{Compensation: p})
		}
		pl, err := plan.Compile(ctx, ps)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, pl)
		unions = append(unions, crs)
	}
	for _, f := range []*plan.Forest{shared, shipped} {
		want := make([][]*xmltree.Node, len(plans))
		for i, crs := range unions {
			var err error
			if f == shared {
				want[i], err = rewrite.NaiveAnswerMaterialized(ctx, crs, d, viewNodes)
			} else {
				want[i], err = rewrite.NaiveAnswerForest(ctx, crs, m.Forest)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < 50; r++ {
					i := (w + r) % len(plans)
					res, err := plans[i].Exec(ctx, f, plan.ExecOptions{})
					if err != nil {
						errs <- err.Error()
						return
					}
					if !sameNodes(res.Nodes(), want[i]) {
						errs <- fmt.Sprintf("worker %d run %d: plan %d diverges", w, r, i)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}
