package rewrite

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"qav/internal/obs"
	"qav/internal/tpq"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

func mustMCR(t *testing.T, q, v *tpq.Pattern) *Result {
	t.Helper()
	res, err := MCR(q, v, Options{})
	if err != nil {
		t.Fatalf("MCR(%s, %s): %v", q, v, err)
	}
	return res
}

// Figure 1 / §1: Q = //Trials[//Status]//Trial, V = //Trials//Trial.
// The rewriting //Trials//Trial[//Status] is a contained rewriting; on
// the sample database it returns exactly the first Trial (node 3).
func TestFigure1(t *testing.T) {
	q := tpq.MustParse("//Trials[//Status]//Trial")
	v := tpq.MustParse("//Trials//Trial")
	if !Answerable(q, v) {
		t.Fatal("Q must be answerable using V")
	}
	res := mustMCR(t, q, v)
	want := tpq.MustParse("//Trials//Trial[//Status]")
	found := false
	for _, p := range res.Union.Patterns {
		if tpq.Equivalent(p, want) {
			found = true
		}
	}
	if !found {
		t.Fatalf("MCR %s does not include %s", res.Union, want)
	}
	// The MCR is contained in Q.
	if !res.Union.ContainedIn(q) {
		t.Errorf("MCR %s not contained in Q", res.Union)
	}
	// On the Figure 1 database the MCR returns exactly node 3 (the
	// Trial with a Status), a strict subset of Q's answers {3, 11}.
	d := xmltree.NewDocument(xmltree.Build("PharmaLab",
		xmltree.Build("Trials",
			xmltree.Build("Trial", xmltree.Build("Patient"), xmltree.Build("Status")),
			xmltree.Build("Trial", xmltree.Build("Patient")),
		),
		xmltree.Build("Trials",
			xmltree.Build("Trial", xmltree.Build("Patient")),
		),
	))
	got := res.Union.Evaluate(d)
	if len(got) != 1 || got[0] != d.Root.Children[0].Children[0] {
		t.Errorf("MCR on Fig 1 database returned %d answers, want the single Status-bearing Trial", len(got))
	}
	if qa := q.Evaluate(d); len(qa) != 2 {
		t.Errorf("Q on Fig 1 database returned %d answers, want 2", len(qa))
	}
}

// Figure 3: neither Q1 = /b/d nor Q2 = /a/b/d is answerable using
// V = /a/b//c (distinguished node c): Q1 expects a different document
// root, and Q2's pc-edge b/d cannot be preserved by attaching d under
// the c that V materializes.
func TestFigure3(t *testing.T) {
	v := tpq.MustParse("/a/b//c")
	q1 := tpq.MustParse("/b/d")
	if Answerable(q1, v) {
		t.Error("Q1 = /b/d must not be answerable (mismatched document roots)")
	}
	q2 := tpq.MustParse("/a/b/d")
	if Answerable(q2, v) {
		t.Error("Q2 = /a/b/d must not be answerable (pc-edge below a non-dV anchor)")
	}
	// §3.1: if dV is changed to b, Q2 becomes answerable via the
	// compensation .[/d] ∘ /a/b[//c] (the paper's example, with d as
	// the rewriting's answer node).
	v2 := tpq.MustParse("/a/b[//c]")
	if !Answerable(q2, v2) {
		t.Error("Q2 must be answerable once b is the distinguished node")
	}
	res := mustMCR(t, q2, v2)
	want := tpq.MustParse("/a/b[//c]/d")
	if len(res.Union.Patterns) != 1 || !tpq.Equivalent(res.Union.Patterns[0], want) {
		t.Errorf("MCR = %s, want %s", res.Union, want)
	}
}

// §6 example: Q = //a, V = //b are incomparable, yet //b//a is a
// contained rewriting of Q using V (contained rewriting differs
// fundamentally from equivalent rewriting here).
func TestSection6Example(t *testing.T) {
	q := tpq.MustParse("//a")
	v := tpq.MustParse("//b")
	if !Answerable(q, v) {
		t.Fatal("//a must be answerable using //b")
	}
	res := mustMCR(t, q, v)
	want := tpq.MustParse("//b//a")
	if len(res.Union.Patterns) != 1 || !tpq.Equivalent(res.Union.Patterns[0], want) {
		t.Errorf("MCR = %s, want %s", res.Union, want)
	}
}

// Figure 7(a): V1 = //a/b, Q1 = //a//b[c][d] (pc-children, output b).
// Two irredundant CRs: R11 = //a/b[c][d] and R12 = //a/b//b[c][d].
func TestFigure7a(t *testing.T) {
	v := tpq.MustParse("//a/b")
	q := tpq.MustParse("//a//b[c][d]")
	res := mustMCR(t, q, v)
	wantUnion := tpq.NewUnion(
		tpq.MustParse("//a/b[c][d]"),
		tpq.MustParse("//a/b//b[c][d]"),
	)
	if !res.Union.SameAs(wantUnion) {
		t.Errorf("MCR = %s, want %s", res.Union, wantUnion)
	}
	if len(res.Union.Patterns) != 2 {
		t.Errorf("MCR has %d disjuncts, want 2", len(res.Union.Patterns))
	}
}

// Figure 9: Q = //a[//b[c]][//b[d]] with output the b over c; V = //a//b.
// MCR = //a//b[c][d] U //a//b[//b/d][c] U //a//b[d]//b[c] U
// //a//b[//b/d]//b[c] (outputs on the b over c).
func TestFigure9(t *testing.T) {
	q := workload.Fig9Query()
	v := workload.Fig9View()
	res := mustMCR(t, q, v)
	want := tpq.NewUnion(
		fig9CR(t, "map", "map"),
		fig9CR(t, "map", "cut"),
		fig9CR(t, "cut", "map"),
		fig9CR(t, "cut", "cut"),
	)
	if !res.Union.SameAs(want) {
		t.Errorf("MCR =\n  %s\nwant\n  %s", res.Union, want)
	}
	if len(res.Union.Patterns) != 4 {
		t.Errorf("MCR has %d disjuncts, want 4", len(res.Union.Patterns))
	}
}

// fig9CR hand-builds the four Figure 9 CRs: left branch (b over c,
// which carries the output) and right branch (b over d) each either
// mapped onto the view's b or clipped below it.
func fig9CR(t *testing.T, left, right string) *tpq.Pattern {
	t.Helper()
	p := tpq.New(tpq.Descendant, "a")
	b := p.Root.AddChild(tpq.Descendant, "b")
	switch {
	case left == "map" && right == "map":
		b.AddChild(tpq.Child, "c")
		b.AddChild(tpq.Child, "d")
		p.Output = b
	case left == "map" && right == "cut":
		b.AddChild(tpq.Child, "c")
		b2 := b.AddChild(tpq.Descendant, "b")
		b2.AddChild(tpq.Child, "d")
		p.Output = b
	case left == "cut" && right == "map":
		b.AddChild(tpq.Child, "d")
		b2 := b.AddChild(tpq.Descendant, "b")
		b2.AddChild(tpq.Child, "c")
		p.Output = b2
	default:
		b2 := b.AddChild(tpq.Descendant, "b")
		b2.AddChild(tpq.Child, "c")
		b3 := b.AddChild(tpq.Descendant, "b")
		b3.AddChild(tpq.Child, "d")
		p.Output = b2
	}
	return p
}

// Figure 8 / Example 1: the n-branch family has an MCR of exactly 2^n
// irredundant CRs for n ≥ 2 (the paper's figure is the n = 2 instance
// with branches d, e). At n = 1 the clipped variant is contained in the
// mapped one, so the MCR degenerates to a single CR.
func TestFigure8ExponentialMCR(t *testing.T) {
	v := workload.Fig8View()
	if res := mustMCR(t, workload.Fig8Query(1), v); len(res.Union.Patterns) != 1 {
		t.Errorf("n=1: MCR has %d CRs, want 1:\n%s", len(res.Union.Patterns), res.Union)
	}
	for n := 2; n <= 5; n++ {
		q := workload.Fig8Query(n)
		res := mustMCR(t, q, v)
		if got, want := len(res.Union.Patterns), 1<<n; got != want {
			t.Errorf("n=%d: MCR has %d irredundant CRs, want %d\n%s", n, got, want, res.Union)
		}
		if !res.Union.ContainedIn(q) {
			t.Errorf("n=%d: MCR not contained in Q", n)
		}
	}
}

func TestUnanswerableGivesEmptyResult(t *testing.T) {
	res := mustMCR(t, tpq.MustParse("/b//d"), tpq.MustParse("/a//b//c"))
	if !res.Union.Empty() || len(res.CRs) != 0 {
		t.Errorf("expected empty MCR, got %s", res.Union)
	}
}

func TestAnswerableDistinguishedPathDiscipline(t *testing.T) {
	// The query output must be reachable: V = //a[b] with output a; the
	// compensation can navigate below a freely, so //a/c is answerable.
	if !Answerable(tpq.MustParse("//a/c"), tpq.MustParse("//a[b]")) {
		t.Error("//a/c should be answerable using //a[b]")
	}
	// With V = //a/b (output b), //a/c is still answerable — but only
	// through the empty embedding, which nests the whole query below b
	// (the same mechanism as the paper's §6 //b//a example).
	res := mustMCR(t, tpq.MustParse("//a/c"), tpq.MustParse("//a/b"))
	want := tpq.MustParse("//a/b//a/c")
	if len(res.Union.Patterns) != 1 || !tpq.Equivalent(res.Union.Patterns[0], want) {
		t.Errorf("MCR = %s, want %s", res.Union, want)
	}
	// With a '/'-rooted query the empty embedding is unavailable and no
	// mapping satisfies the pc-cut condition: unanswerable.
	if Answerable(tpq.MustParse("/a/c"), tpq.MustParse("/a/b")) {
		t.Error("/a/c must not be answerable using /a/b")
	}
}

// Every CR's rewriting equals its compensation composed with the view:
// same answers via direct evaluation and via view materialization.
func TestCompensationComposition(t *testing.T) {
	cases := []struct{ q, v string }{
		{"//Trials[//Status]//Trial", "//Trials//Trial"},
		{"//a//b[c][d]", "//a/b"},
		{"//a", "//b"},
		{"//a//c", "//a/b"},
	}
	rng := rand.New(rand.NewSource(4))
	for _, tc := range cases {
		q, v := tpq.MustParse(tc.q), tpq.MustParse(tc.v)
		res := mustMCR(t, q, v)
		for i := 0; i < 10; i++ {
			d := xmltree.Generate(rng, xmltree.GenSpec{
				Tags:     []string{"a", "b", "c", "d", "Trials", "Trial", "Status"},
				MaxDepth: 6, MaxFanout: 3, TargetSize: 40,
			})
			direct := res.Union.Evaluate(d)
			viaView, err := AnswerUsingView(context.Background(), res.CRs, v, d)
			if err != nil {
				t.Fatal(err)
			}
			if !sameNodeSet(direct, viaView) {
				t.Fatalf("q=%s v=%s: direct answers != view-based answers", tc.q, tc.v)
			}
		}
	}
}

// The flagship property: the paper's algorithm agrees with the
// brute-force ground truth on random inputs — same union, i.e. the MCR
// is both sound and maximal.
func TestQuickMCRMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := []string{"a", "b", "c"}
		q := workload.RandomPattern(rng, alphabet, 4)
		v := workload.RandomPattern(rng, alphabet, 4)
		res, err := MCR(q, v, Options{MaxEmbeddings: 1 << 16})
		if err != nil {
			return true
		}
		naive, err := NaiveMCR(context.Background(), q, v)
		if err != nil {
			return true
		}
		if !res.Union.SameAs(naive.Union) {
			t.Logf("q=%s v=%s\n mcr=%s\n naive=%s", q, v, res.Union, naive.Union)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Soundness against evaluation: every MCR answer is a query answer on
// random documents.
func TestQuickMCRSoundOnDocuments(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := []string{"a", "b", "c"}
		q := workload.RandomPattern(rng, alphabet, 5)
		v := workload.RandomPattern(rng, alphabet, 4)
		res, err := MCR(q, v, Options{MaxEmbeddings: 1 << 16})
		if err != nil {
			return true
		}
		for i := 0; i < 3; i++ {
			d := xmltree.Generate(rng, xmltree.GenSpec{
				Tags: alphabet, MaxDepth: 5, MaxFanout: 3, TargetSize: 25,
			})
			inQ := make(map[*xmltree.Node]bool)
			for _, n := range q.Evaluate(d) {
				inQ[n] = true
			}
			for _, n := range res.Union.Evaluate(d) {
				if !inQ[n] {
					t.Logf("q=%s v=%s unsound answer on %s", q, v, d)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func sameNodeSet(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[*xmltree.Node]bool, len(a))
	for _, n := range a {
		m[n] = true
	}
	for _, n := range b {
		if !m[n] {
			return false
		}
	}
	return true
}

// markRedundant's parallel path must agree with the sequential path.
func TestMarkRedundantParallelAgreesWithSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(13))
	var crs []*ContainedRewriting
	for len(crs) < 48 {
		q := workload.RandomPattern(rng, []string{"a", "b"}, 4)
		v := workload.RandomPattern(rng, []string{"a", "b"}, 4)
		res, err := MCR(q, v, Options{MaxEmbeddings: 1 << 12})
		if err != nil {
			continue
		}
		crs = append(crs, res.CRs...)
	}
	crs = crs[:48]
	sortCRs(crs)
	contains := func(i, j int) bool {
		return tpq.Contained(crs[i].Rewriting, crs[j].Rewriting)
	}
	parallel, err := markRedundant(context.Background(), len(crs), contains)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reference.
	seq := make([]bool, len(crs))
	for i := range crs {
		for j := range crs {
			if i == j || !contains(i, j) {
				continue
			}
			if !contains(j, i) || j < i {
				seq[i] = true
				break
			}
		}
	}
	for i := range seq {
		if seq[i] != parallel[i] {
			t.Fatalf("divergence at %d: seq=%v parallel=%v", i, seq[i], parallel[i])
		}
	}
}

// TestAssembleDropsRedundantCRs checks that a result keeps no CR it
// dropped reachable: assemble filters the kept CRs into the array it
// deduplicated into, and a cached result holding that array's stale
// tail would keep every redundant CR, with its rewriting and
// embedding, alive for as long as the result is cached.
func TestAssembleDropsRedundantCRs(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	dropped := 0
	for i := 0; i < 300; i++ {
		q, v := composedKey(t, rng)
		crs, considered, err := generateCRs(ComputeLabels(q, v, nil), newCRGen(ctx, q, v, nil), DefaultMaxEmbeddings)
		if err != nil {
			t.Fatal(err)
		}
		distinct := make(map[string]bool)
		for _, cr := range crs {
			distinct[cr.Rewriting.Canonical()] = true
		}
		res, err := assemble(ctx, crs, considered, tpq.Contained, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.CRs) < len(distinct) {
			dropped++
		}
		for _, cr := range res.CRs[len(res.CRs):cap(res.CRs)] {
			if cr != nil {
				t.Fatalf("q=%s v=%s: dropped CR %s still reachable from the result", q, v, cr.Rewriting)
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no key had a redundant CR to drop")
	}
	t.Logf("%d of 300 keys dropped redundant CRs", dropped)
}

// TestMCRDeadlineStopsBuilds checks that a deadline stops CR
// construction within one CR: the context is polled before every
// build, so a deadline landing on the k-th poll leaves at most k CRs
// built, however far apart the enumeration's own polls are.
func TestMCRDeadlineStopsBuilds(t *testing.T) {
	q, v := workload.Fig8Query(7), workload.Fig8View()
	for k := 0; k <= 64; k += 4 {
		sp := obs.NewSpan()
		res, err := MCR(q, v, Options{Context: obs.WithSpan(deadlineAfter(k), sp)})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Partial {
			t.Fatalf("k=%d: result not Partial", k)
		}
		if built, _ := sp.Load(obs.StageBuildCR); built > int64(k) {
			t.Fatalf("k=%d: %d CRs built after the deadline landed", k, built)
		}
	}
}
