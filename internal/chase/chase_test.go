package chase

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"qav/internal/constraints"
	"qav/internal/schema"
	"qav/internal/tpq"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

func TestPCRuleConvertsEdges(t *testing.T) {
	g := schema.MustParse("root a\na -> b\nb -> c")
	sigma := constraints.Infer(g)
	v := tpq.MustParse("//a//b")
	out, err := Exhaustive(context.Background(), v, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// b below a is necessarily a child, so the ad-edge becomes pc.
	b := findChild(out.Root, "b")
	if b == nil || b.Axis != tpq.Child {
		t.Errorf("chase did not convert //b to /b: %s", out)
	}
}

func TestSCRuleAddsMandatoryChildren(t *testing.T) {
	g := schema.MustParse("root a\na -> b c?\nb -> d+")
	sigma := constraints.Infer(g)
	out, err := Exhaustive(context.Background(), tpq.MustParse("/a"), sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := findChild(out.Root, "b")
	if b == nil {
		t.Fatalf("mandatory b child not added: %s", out)
	}
	if findChild(out.Root, "c") != nil {
		t.Errorf("optional c child must not be added: %s", out)
	}
	if findChild(b, "d") == nil {
		t.Errorf("mandatory d under b not added: %s", out)
	}
}

func TestFCRuleMergesDuplicates(t *testing.T) {
	g := schema.MustParse("root a\na -> b?\nb -> c* d*")
	sigma := constraints.Infer(g)
	// Hand-build //a[b/c][b/d]: with FC a→b the two b children merge.
	v := tpq.New(tpq.Descendant, "a")
	b1 := v.Root.AddChild(tpq.Child, "b")
	b1.AddChild(tpq.Child, "c")
	b2 := v.Root.AddChild(tpq.Child, "b")
	b2.AddChild(tpq.Child, "d")
	out, err := Exhaustive(context.Background(), v, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var bs []*tpq.Node
	for _, c := range out.Root.Children {
		if c.Tag == "b" {
			bs = append(bs, c)
		}
	}
	if len(bs) != 1 {
		t.Fatalf("FC did not merge b children: %s", out)
	}
	if findChild(bs[0], "c") == nil || findChild(bs[0], "d") == nil {
		t.Errorf("merge lost children: %s", out)
	}
}

func TestFCRuleMovesOutputMarker(t *testing.T) {
	g := schema.MustParse("root a\na -> b?\nb -> c*")
	sigma := constraints.Infer(g)
	v := tpq.New(tpq.Descendant, "a")
	b1 := v.Root.AddChild(tpq.Child, "b")
	b2 := v.Root.AddChild(tpq.Child, "b")
	v.Output = b2
	_ = b1
	out, err := Exhaustive(context.Background(), v, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("output marker lost in merge: %v", err)
	}
	if out.Output.Tag != "b" {
		t.Errorf("output = %q", out.Output.Tag)
	}
}

func TestICRuleInsertsIntermediate(t *testing.T) {
	g := schema.MustParse("root a\na -> person?\nperson -> name?")
	sigma := constraints.Infer(g)
	out, err := Exhaustive(context.Background(), tpq.MustParse("//a//name"), sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	person := findChild(out.Root, "person")
	if person == nil {
		t.Fatalf("IC did not insert person: %s", out)
	}
	if findChild(person, "name") == nil {
		t.Errorf("name not re-attached below person: %s", out)
	}
}

// Figure 2: chasing V = //Auction//person with the auction-schema
// constraints adds an item descendant to Auction (the cousin
// constraint), which is what licenses the MCR.
func TestChaseFigure2(t *testing.T) {
	sigma := constraints.Infer(workload.AuctionSchema())
	q := tpq.MustParse("//Auction[//item]//name")
	v := tpq.MustParse("//Auction//person")
	out := Intelligent(v, q, sigma)
	item := findChild(out.Root, "item")
	if item == nil {
		t.Fatalf("intelligent chase did not add item under Auction: %s", out)
	}
	if out.Output.Tag != "person" {
		t.Errorf("output moved: %q", out.Output.Tag)
	}
}

// Figure 12: exhaustive chase of /a against the diamond schema yields
// the 13-node chased view when driven by the sibling constraints alone.
func TestChaseFigure12ThirteenNodes(t *testing.T) {
	g := workload.Figure12Schema()
	sigma := constraints.Infer(g)
	scOnly := constraints.NewSet(sigma.OfKind(constraints.SC))
	out, err := Exhaustive(context.Background(), tpq.MustParse("/a"), scOnly, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 13 {
		t.Errorf("chased view has %d nodes, the paper's figure shows 13:\n%s", out.Size(), out)
	}
	// With the full (redundant) constraint set the chase is at least as
	// large — the paper notes the figure "does not even show all
	// possible nodes that would be added by chasing with redundant
	// constraints".
	full, err := Exhaustive(context.Background(), tpq.MustParse("/a"), sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Size() < 13 {
		t.Errorf("full chase smaller than SC-only chase: %d", full.Size())
	}
}

// Exhaustive chase grows exponentially with stacked diamonds while the
// intelligent chase stays linear in the query.
func TestChaseDiamondExplosionVsIntelligent(t *testing.T) {
	sizes := make([]int, 0, 4)
	for levels := 1; levels <= 4; levels++ {
		g := workload.DiamondSchema(levels)
		sigma := constraints.NewSet(constraints.Infer(g).OfKind(constraints.SC))
		out, err := Exhaustive(context.Background(), tpq.MustParse("/x0"), sigma, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, out.Size())
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < 2*sizes[i-1] {
			t.Errorf("chase sizes %v do not double per diamond level", sizes)
			break
		}
	}
	// Intelligent chase for a tiny query touches only the needed tags.
	g := workload.DiamondSchema(4)
	sigma := constraints.Infer(g)
	q := tpq.MustParse("/x0[b0]")
	out := Intelligent(tpq.MustParse("/x0"), q, sigma)
	if out.Size() > 3 {
		t.Errorf("intelligent chase added %d nodes for a 2-node query: %s", out.Size(), out)
	}
}

// Theorem 6 (soundness half): the chased view is equivalent to the view
// on every instance of the schema.
func TestQuickChasePreservesEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := workload.RandomDAGSchema(rng, 2+rng.Intn(6), 0.4)
		sigma := constraints.Infer(g)
		v := workload.RandomSchemaPattern(rng, g, 5)
		chased, err := Exhaustive(context.Background(), v, sigma, Options{MaxSteps: 20000})
		if err != nil {
			return true // blown budget is acceptable for this property
		}
		intel := Intelligent(v, workload.RandomSchemaPattern(rng, g, 5), sigma)
		for i := 0; i < 4; i++ {
			d, err := g.RandomInstance(rng, schema.InstanceSpec{MaxRepeat: 3})
			if err != nil {
				return true
			}
			want := v.Evaluate(d)
			got := chased.Evaluate(d)
			if !sameNodes(want, got) {
				t.Logf("exhaustive chase changed semantics\nschema:\n%s\nV: %s\nchased: %s", g, v, chased)
				return false
			}
			got = intel.Evaluate(d)
			if !sameNodes(want, got) {
				t.Logf("intelligent chase changed semantics\nschema:\n%s\nV: %s\nchased: %s", g, v, intel)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// The chase never touches its input pattern.
func TestChaseDoesNotMutateInput(t *testing.T) {
	sigma := constraints.Infer(workload.AuctionSchema())
	v := tpq.MustParse("//Auction//person")
	before := v.Canonical()
	if _, err := Exhaustive(context.Background(), v, sigma, Options{}); err != nil {
		t.Fatal(err)
	}
	Intelligent(v, tpq.MustParse("//Auction[//item]//name"), sigma)
	if v.Canonical() != before {
		t.Error("chase mutated its input")
	}
}

func TestExhaustiveStepLimit(t *testing.T) {
	// A recursive schema with a guaranteed cycle would chase forever;
	// the step limit must turn that into an error. SC b:{}↓a and
	// SC a:{}↓b alternate indefinitely.
	sigma := constraints.NewSet([]constraints.Constraint{
		{Kind: constraints.SC, A: "a", C: "b"},
		{Kind: constraints.SC, A: "b", C: "a"},
	})
	if _, err := Exhaustive(context.Background(), tpq.MustParse("/a"), sigma, Options{MaxSteps: 500}); err == nil {
		t.Error("divergent chase did not error out")
	}
}

func sameNodes(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[*xmltree.Node]bool, len(a))
	for _, n := range a {
		set[n] = true
	}
	for _, n := range b {
		if !set[n] {
			return false
		}
	}
	return true
}

func findChild(n *tpq.Node, tag string) *tpq.Node {
	for _, c := range n.Children {
		if c.Tag == tag {
			return c
		}
	}
	return nil
}

// Conditional SC and CC rules (a : b ↓ c with a premise) are supported
// by the chase even though schema-graph inference only produces
// unconditional SCs; exercise them with hand-built constraint sets.
func TestConditionalRules(t *testing.T) {
	sigma := constraints.NewSet([]constraints.Constraint{
		{Kind: constraints.SC, A: "a", B: "b", C: "c"},
		{Kind: constraints.CC, A: "a", B: "x", C: "y"},
	})
	// SC premise not met: no pc-child b.
	out, err := Exhaustive(context.Background(), tpq.MustParse("//a[//b]"), sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if findChild(out.Root, "c") != nil {
		t.Errorf("conditional SC fired without its premise: %s", out)
	}
	// SC premise met.
	out, err = Exhaustive(context.Background(), tpq.MustParse("//a[b]"), sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if findChild(out.Root, "c") == nil {
		t.Errorf("conditional SC did not fire: %s", out)
	}
	// CC premise met through a deep descendant.
	out, err = Exhaustive(context.Background(), tpq.MustParse("//a[b/x]"), sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	y := findChild(out.Root, "y")
	if y == nil || y.Axis != tpq.Descendant {
		t.Errorf("conditional CC did not add //y: %s", out)
	}
}

// The chase must never relocate the output node or break validity.
func TestChasePreservesValidity(t *testing.T) {
	sigma := constraints.Infer(workload.AuctionSchema())
	for _, expr := range []string{
		"//Auction//person", "//bids/person", "/Auctions//name",
		"//closed_auction[buyer]//name",
	} {
		v := tpq.MustParse(expr)
		out, err := Exhaustive(context.Background(), v, sigma, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Validate(); err != nil {
			t.Errorf("chase of %s produced invalid pattern: %v", expr, err)
		}
		if out.Output.Tag != v.Output.Tag {
			t.Errorf("chase of %s moved output to %s", expr, out.Output.Tag)
		}
	}
}

// TestIntelligentDeterministic checks that the intelligent chase of a
// view against a query is one pattern, however often it runs: the
// order in which it introduces the query's missing tags decides which
// constraint instances it applies, and the labels, embeddings and CRs
// of the §5 rewriting are computed over its result.
func TestIntelligentDeterministic(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := workload.RandomDAGSchema(rng, 3+rng.Intn(5), 0.45)
		sigma := constraints.Infer(g)
		q := workload.RandomSchemaPattern(rng, g, 5)
		v := workload.RandomSchemaPattern(rng, g, 4)
		first := Intelligent(v, q, sigma).String()
		for i := 0; i < 20; i++ {
			if again := Intelligent(v, q, sigma).String(); again != first {
				t.Fatalf("seed %d: chase of %s against %s gave %s, then %s", seed, v, q, first, again)
			}
		}
	}
}
