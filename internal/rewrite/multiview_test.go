package rewrite

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/names"
	"qav/internal/tpq"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

func TestMCRMultiViewCombines(t *testing.T) {
	q := tpq.MustParse("//Trials[//Status]//Trial/Patient")
	views := []ViewSource{
		{Name: "A", View: tpq.MustParse("//Trials//Trial")},
		{Name: "B", View: tpq.MustParse("//Trials[//Status]")},
		{Name: "C", View: tpq.MustParse("//Patient")},
	}
	res, err := MCRMultiView(q, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Union.Empty() {
		t.Fatal("no multi-view MCR")
	}
	// View B alone can deliver the exact query: //Trials[//Status]//
	// Trial/Patient is among the disjuncts and subsumes everything, so
	// the global MCR collapses to it.
	want := tpq.MustParse("//Trials[//Status]//Trial/Patient")
	if len(res.Union.Patterns) != 1 || !tpq.Equivalent(res.Union.Patterns[0], want) {
		t.Fatalf("global MCR = %s, want %s", res.Union, want)
	}
	if views[res.Contributions[0]].Name != "B" {
		t.Errorf("winning view = %s, want B", views[res.Contributions[0]].Name)
	}
	// Per-view sizes recorded for all, including subsumed ones.
	for i, n := range res.PerView {
		if n == 0 {
			t.Errorf("view %s reported no local CRs", views[i].Name)
		}
	}
}

func TestMCRMultiViewAnswering(t *testing.T) {
	d := xmltree.NewDocument(xmltree.Build("PharmaLab",
		xmltree.Build("Trials",
			xmltree.Build("Trial", xmltree.Build("Patient"), xmltree.Build("Status")),
			xmltree.Build("Trial", xmltree.Build("Patient")),
		),
		xmltree.Build("Trials",
			xmltree.Build("Trial", xmltree.Build("Patient")),
		),
	))
	q := tpq.MustParse("//Trials[//Status]//Trial/Patient")
	views := []ViewSource{
		{Name: "A", View: tpq.MustParse("//Trials//Trial")},
		{Name: "B", View: tpq.MustParse("//Trials[//Status]")},
	}
	res, err := MCRMultiView(q, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.AnswerMultiView(context.Background(), views, d)
	if err != nil {
		t.Fatal(err)
	}
	want := q.Evaluate(d) // view B makes the rewriting exact here
	if !sameNodeSet(got, want) {
		t.Fatalf("multi-view answers %d != query answers %d", len(got), len(want))
	}
}

func TestMCRMultiViewUnanswerableViewsSkipped(t *testing.T) {
	q := tpq.MustParse("/a/b")
	views := []ViewSource{
		{Name: "useless", View: tpq.MustParse("/z//y")},
		{Name: "good", View: tpq.MustParse("/a[//c]")},
	}
	res, err := MCRMultiView(q, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerView[0] != 0 {
		t.Error("unanswerable view contributed CRs")
	}
	if len(res.Union.Patterns) != 1 {
		t.Fatalf("MCR = %s", res.Union)
	}
}

// The multi-view MCR must dominate every single-view MCR and stay
// contained in the query.
func TestQuickMultiViewDominates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := []string{"a", "b", "c"}
		q := workload.RandomPattern(rng, alphabet, 4)
		views := []ViewSource{
			{Name: "v1", View: workload.RandomPattern(rng, alphabet, 4)},
			{Name: "v2", View: workload.RandomPattern(rng, alphabet, 4)},
			{Name: "v3", View: workload.RandomPattern(rng, alphabet, 4)},
		}
		res, err := MCRMultiView(q, views, Options{MaxEmbeddings: 1 << 14})
		if err != nil {
			return true
		}
		if !res.Union.ContainedIn(q) {
			t.Logf("multi-view MCR not contained in q=%s: %s", q, res.Union)
			return false
		}
		for _, vs := range views {
			single, err := MCR(q, vs.View, Options{MaxEmbeddings: 1 << 14})
			if err != nil {
				return true
			}
			if !single.Union.CoveredBy(res.Union) {
				t.Logf("view %s MCR %s not covered by global %s", vs.Name, single.Union, res.Union)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMCRMultiViewWorkerPanicFails checks that a panic in the worker
// loop fails the call with ErrInternal, on the serial side (one P) and
// the pooled one alike: a swallowed panic would leave the views it hit
// out of a union reported as complete.
func TestMCRMultiViewWorkerPanicFails(t *testing.T) {
	q := tpq.MustParse("//a[b]//c")
	views := []ViewSource{
		{Name: "a", View: tpq.MustParse("//a")},
		{Name: "ac", View: tpq.MustParse("//a//c")},
		{Name: "ab", View: tpq.MustParse("//a[b]")},
	}
	clean, err := MCRMultiView(q, views, Options{})
	if err != nil || len(clean.CRs) == 0 {
		t.Fatalf("clean run: %d CRs, err %v", len(clean.CRs), err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		if err := fault.Enable(&fault.Plan{Seed: 1, Injections: []fault.Injection{
			{Point: names.FaultRewriteWorker, Action: fault.ActPanic},
		}}); err != nil {
			t.Fatal(err)
		}
		res, err := MCRMultiView(q, views, Options{})
		fault.Disable()
		if !errors.Is(err, guard.ErrInternal) || res != nil {
			t.Fatalf("GOMAXPROCS=%d: result %v, err %v; want no result and ErrInternal", procs, res, err)
		}
	}
}

// TestMarkRedundantPanicFails checks the same for the containment
// matrix: a panicking containment test fails markRedundant on both
// sides of its serial threshold.
func TestMarkRedundantPanicFails(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		redundant, err := markRedundant(context.Background(), 64, func(i, j int) bool {
			if i == 40 {
				panic("containment bug")
			}
			return false
		})
		if !errors.Is(err, guard.ErrInternal) || redundant != nil {
			t.Fatalf("GOMAXPROCS=%d: redundant %v, err %v; want none and ErrInternal", procs, redundant, err)
		}
	}
}
