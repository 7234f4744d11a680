package plan

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

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

// TestJoinsAgainstBruteForce checks each linear merge against its
// definition on random position lists of shipped and nested shared
// forests, and that the child joins hand their bitset back zeroed.
func TestJoinsAgainstBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 200; iter++ {
		d := xmltree.Generate(rng, xmltree.GenSpec{
			Tags: []string{"a", "a", "b"}, MaxDepth: 6, MaxFanout: 3, TargetSize: 30,
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
			for p := range f.nodes {
				if rng.Intn(3) == 0 {
					out = append(out, int32(p))
				}
			}
			return out
		}
		isParent := func(u, l int32) bool { return f.parent[l] == u }
		isAncestor := func(u, l int32) bool { return u < l && l <= f.end[u] }
		bits := make([]uint64, (len(f.nodes)+63)/64)
		for _, axis := range []tpq.Axis{tpq.Child, tpq.Descendant} {
			rel := isParent
			if axis == tpq.Descendant {
				rel = isAncestor
			}
			upper, lower := sample(), sample()
			var wantSemi, wantDown []int32
			for _, u := range upper {
				if slices.ContainsFunc(lower, func(l int32) bool { return rel(u, l) }) {
					wantSemi = append(wantSemi, u)
				}
			}
			for _, l := range lower {
				if slices.ContainsFunc(upper, func(u int32) bool { return rel(u, l) }) {
					wantDown = append(wantDown, l)
				}
			}
			gotSemi := f.semiJoin(bits, upper, lower, axis, make([]int32, len(upper)))
			gotDown := f.downJoin(bits, upper, lower, axis, make([]int32, len(lower)))
			if !slices.Equal(gotSemi, wantSemi) || !slices.Equal(gotDown, wantDown) {
				t.Fatalf("axis %v: semi %v want %v; down %v want %v", axis, gotSemi, wantSemi, gotDown, wantDown)
			}
			// In place: a list already in its owned region filters there.
			own := slices.Clone(upper)
			if got := f.semiJoin(bits, own, lower, axis, own); !slices.Equal(got, wantSemi) {
				t.Fatalf("axis %v: in-place semi %v want %v", axis, got, wantSemi)
			}
			if slices.ContainsFunc(bits, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("axis %v: joins left bits set", axis)
			}
		}
	}
}
