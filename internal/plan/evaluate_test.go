package plan

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"qav/internal/tpq"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

// EvaluateIndexed over a whole-document forest is the structural-join
// alternative to tpq's Pattern.Evaluate; these tests cross-check the
// two engines.

func TestEvaluateBasics(t *testing.T) {
	d := xmltree.NewDocument(xmltree.Build("PharmaLab",
		xmltree.Build("Trials",
			xmltree.Build("Trial", xmltree.Build("Patient"), xmltree.Build("Status")),
			xmltree.Build("Trial", xmltree.Build("Patient")),
		),
		xmltree.Build("Trials",
			xmltree.Build("Trial", xmltree.Build("Patient")),
		),
	))
	f := indexDoc(t, d)
	if f.Cardinality("Trial") != 3 || f.Cardinality("Patient") != 3 || f.Cardinality("nope") != 0 {
		t.Fatalf("cardinalities wrong")
	}
	cases := []struct {
		expr string
		want int
	}{
		{"//Trials//Trial", 3},
		{"//Trials[//Status]//Trial", 2},
		{"//Trials//Trial[//Status]", 1},
		{"/PharmaLab", 1},
		{"/Trials", 0},
		{"//Trial/Patient", 3},
		{"//Trial[Status]/Patient", 1},
	}
	for _, tc := range cases {
		p := tpq.MustParse(tc.expr)
		got := evalIndexed(t, f, p)
		if len(got) != tc.want {
			t.Errorf("%s: %d answers, want %d", tc.expr, len(got), tc.want)
		}
		// Agreement with the DP engine, including node identity.
		want := p.Evaluate(d)
		if !sameNodeSet(got, want) {
			t.Errorf("%s: engines disagree", tc.expr)
		}
	}
}

// The two engines must agree on arbitrary inputs.
func TestQuickEnginesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := []string{"a", "b", "c"}
		d := xmltree.Generate(rng, xmltree.GenSpec{
			Tags: alphabet, MaxDepth: 6, MaxFanout: 3, TargetSize: 40,
		})
		fo := indexDoc(t, d)
		for i := 0; i < 5; i++ {
			p := workload.RandomPattern(rng, alphabet, 6)
			if !sameNodeSet(evalIndexed(t, fo, p), p.Evaluate(d)) {
				t.Logf("disagree on %s over %s", p, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateDeepChains(t *testing.T) {
	// Same-tag chains exercise the interval logic: b/b/b/b.
	root := xmltree.Build("b")
	cur := root
	for i := 0; i < 10; i++ {
		cur = cur.AddChild("b")
	}
	f := indexDoc(t, xmltree.NewDocument(root))
	for _, tc := range []struct {
		expr string
		want int
	}{
		{"//b", 11},
		{"//b//b", 10},
		{"//b//b//b//b//b//b//b//b//b//b//b", 1},
		{"//b/b", 10},
		{"//b[b]", 10},
	} {
		if got := len(evalIndexed(t, f, tpq.MustParse(tc.expr))); got != tc.want {
			t.Errorf("%s: %d answers, want %d", tc.expr, got, tc.want)
		}
	}
}

func TestEvaluateSiblingIntervals(t *testing.T) {
	// Two disjoint a-subtrees; descendants must not leak across.
	f := indexDoc(t, xmltree.NewDocument(xmltree.Build("r",
		xmltree.Build("a", xmltree.Build("x")),
		xmltree.Build("a", xmltree.Build("y")),
	)))
	if got := len(evalIndexed(t, f, tpq.MustParse("//a[//x]//y"))); got != 0 {
		t.Errorf("//a[//x]//y leaked across sibling subtrees: %d answers", got)
	}
	if got := len(evalIndexed(t, f, tpq.MustParse("//r[//x]//y"))); got != 1 {
		t.Errorf("//r[//x]//y = %d answers, want 1", got)
	}
}

// sameNodeSet reports whether a and b hold the same nodes, in any order.
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

// indexDoc indexes d as a single-tree forest, failing the test on error.
func indexDoc(tb testing.TB, d *xmltree.Document) *Forest {
	tb.Helper()
	f, err := IndexDocument(context.Background(), d)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// evalIndexed runs EvaluateIndexed with a background context, failing
// the test on error.
func evalIndexed(tb testing.TB, f *Forest, p *tpq.Pattern) []*xmltree.Node {
	tb.Helper()
	out, err := EvaluateIndexed(context.Background(), f, p)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestQuickEnginesAgreeChainsWildcards cross-checks EvaluateIndexed
// with the DP engine on same-tag chains and wildcard patterns, where
// the descendant merges see deeply nested intervals and the wildcard
// candidate list is every position.
func TestQuickEnginesAgreeChainsWildcards(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := xmltree.Generate(rng, xmltree.GenSpec{
			Tags: []string{"a", "a", "a", "b"}, MaxDepth: 9, MaxFanout: 2, TargetSize: 50,
		})
		fo := indexDoc(t, d)
		for i := 0; i < 5; i++ {
			p := workload.RandomPattern(rng, []string{"a", "b", tpq.Wildcard}, 6)
			if !sameNodeSet(evalIndexed(t, fo, p), p.Evaluate(d)) {
				t.Logf("disagree on %s over %s", p, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestJoinsAgainstBruteForce checks each join against its definition
// on random position lists of shipped and nested shared forests, over
// documents of 30–300 nodes with nested a tags. Each list's density is
// drawn on its own, 1/1 down to 1/64, so joins run driven from either a
// much shorter list or a comparable one; every seek branch and every
// fallback must run. Each join also runs in place (dst == src) and must
// hand the bitset back zeroed.
func TestJoinsAgainstBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	semiRan, downRan := map[semiKind]int{}, map[downKind]int{}
	for iter := 0; iter < 300; iter++ {
		d := xmltree.Generate(rng, xmltree.GenSpec{
			Tags: []string{"a", "a", "b"}, MaxDepth: 8, MaxFanout: 4, TargetSize: 30 + rng.Intn(271),
		})
		var f *Forest
		var err error
		if iter%2 == 0 {
			f, err = IndexSubtrees(ctx, d, tpq.MustParse("//a").Evaluate(d))
		} else {
			f, err = IndexForest(ctx, []*xmltree.Document{d, d.Clone(), d.Clone()})
		}
		if err != nil {
			t.Fatal(err)
		}
		sample := func() []int32 {
			var out []int32
			every := 1 << rng.Intn(7)
			for p := range f.nodes {
				if rng.Intn(every) == 0 {
					out = append(out, int32(p))
				}
			}
			return out
		}
		bits := make([]uint64, (len(f.nodes)+63)/64)
		for _, axis := range []tpq.Axis{tpq.Child, tpq.Descendant} {
			for pair := 0; pair < 4; pair++ {
				upper, lower := sample(), sample()
				wantSemi, wantDown := bruteJoins(f, upper, lower, axis)
				semi, down := f.pickSemi(upper, lower, axis), f.pickDown(upper, lower, axis)
				semiRan[semi]++
				downRan[down]++
				if (semi == semiChildSeek || down == downChildSeek) && !f.disjoint(upper) {
					t.Fatalf("joins %d/%d seek child to child from nested upper intervals", semi, down)
				}
				gotSemi := f.semiJoin(bits, upper, lower, axis, make([]int32, len(upper)))
				gotDown := f.downJoin(bits, upper, lower, axis, make([]int32, len(lower)))
				if !slices.Equal(gotSemi, wantSemi) || !slices.Equal(gotDown, wantDown) {
					t.Fatalf("axis %v, joins %d/%d: semi %v want %v; down %v want %v", axis, semi, down, gotSemi, wantSemi, gotDown, wantDown)
				}
				// In place: a list already in its owned region filters there.
				own := slices.Clone(upper)
				if got := f.semiJoin(bits, own, lower, axis, own); !slices.Equal(got, wantSemi) {
					t.Fatalf("axis %v, join %d: in-place semi %v want %v", axis, semi, got, wantSemi)
				}
				own = slices.Clone(lower)
				if got := f.downJoin(bits, upper, own, axis, own); !slices.Equal(got, wantDown) {
					t.Fatalf("axis %v, join %d: in-place down %v want %v", axis, down, got, wantDown)
				}
				if slices.ContainsFunc(bits, func(w uint64) bool { return w != 0 }) {
					t.Fatalf("axis %v, joins %d/%d: left bits set", axis, semi, down)
				}
			}
		}
	}
	for _, k := range []semiKind{semiDescSeek, semiChildSeek, semiChildParents, semiChildBits} {
		if semiRan[k] == 0 {
			t.Errorf("semiJoin kind %d never ran", k)
		}
	}
	for _, k := range []downKind{downDescRuns, downDescMerge, downChildSeek, downChildParents, downChildBits} {
		if downRan[k] == 0 {
			t.Errorf("downJoin kind %d never ran", k)
		}
	}
	t.Logf("runs per kind: semiJoin %v, downJoin %v", semiRan, downRan)
}

// TestChildJoinsOverNestedChainStayLinear bounds the work of the child
// joins from nested upper intervals: a chain of nested a over many x/b
// grandchildren, as //a[b] or the compensation /a//a[b] meet it. A seek
// from each a that stepped over every b in its interval would cost
// chain × grandchildren; each join must stay within a small factor of
// the bitset merge, which costs chain + grandchildren.
func TestChildJoinsOverNestedChainStayLinear(t *testing.T) {
	const chain, grand = 2000, 2000
	root := xmltree.Build("r")
	a := root
	for i := 0; i < chain; i++ {
		a = a.AddChild("a")
	}
	for i := 0; i < grand; i++ {
		a.AddChild("x").AddChild("b")
	}
	f, err := IndexDocument(context.Background(), xmltree.NewDocument(root))
	if err != nil {
		t.Fatal(err)
	}
	upper, lower := f.list("a"), f.list("b")
	bits := make([]uint64, (len(f.nodes)+63)/64)
	fastest := func(run func() []int32) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			run()
			best = min(best, time.Since(start))
		}
		return best
	}
	wantSemi, wantDown := bruteJoins(f, upper, lower, tpq.Child)
	semi := func() []int32 { return f.semiJoin(bits, upper, lower, tpq.Child, make([]int32, len(upper))) }
	down := func() []int32 { return f.downJoin(bits, upper, lower, tpq.Child, make([]int32, len(lower))) }
	if got := semi(); !slices.Equal(got, wantSemi) {
		t.Fatalf("semi %v want %v", got, wantSemi)
	}
	if got := down(); !slices.Equal(got, wantDown) {
		t.Fatalf("down %v want %v", got, wantDown)
	}
	semiBits := fastest(func() []int32 {
		return f.semiJoinAs(semiChildBits, bits, upper, lower, make([]int32, len(upper)))
	})
	downBits := fastest(func() []int32 {
		return f.downJoinAs(downChildBits, bits, upper, lower, make([]int32, len(lower)))
	})
	if got := fastest(semi); got > 20*semiBits {
		t.Errorf("semiJoin (kind %d) took %v, the bitset merge %v", f.pickSemi(upper, lower, tpq.Child), got, semiBits)
	}
	if got := fastest(down); got > 20*downBits {
		t.Errorf("downJoin (kind %d) took %v, the bitset merge %v", f.pickDown(upper, lower, tpq.Child), got, downBits)
	}
}

// bruteJoins computes both joins from their definitions: the upper
// positions with a child (Child) or descendant (Descendant) in lower,
// and the lower positions with their parent or an ancestor in upper.
func bruteJoins(f *Forest, upper, lower []int32, axis tpq.Axis) (semi, down []int32) {
	inUpper := make(map[int32]bool, len(upper))
	for _, u := range upper {
		inUpper[u] = true
	}
	witness := make(map[int32]bool)
	for _, l := range lower {
		kept := false
		for p := f.parent[l]; p >= 0; p = f.parent[p] {
			witness[p] = true
			kept = kept || inUpper[p]
			if axis == tpq.Child {
				break
			}
		}
		if kept {
			down = append(down, l)
		}
	}
	for _, u := range upper {
		if witness[u] {
			semi = append(semi, u)
		}
	}
	return semi, down
}
