package viewstore

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"qav/internal/plan"
	"qav/internal/rewrite"
	"qav/internal/tpq"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

func pharma() *xmltree.Document {
	return xmltree.NewDocument(xmltree.Build("PharmaLab",
		xmltree.Build("Trials",
			xmltree.Build("Trial", xmltree.Build("Patient"), xmltree.Build("Status")),
			xmltree.Build("Trial", xmltree.Build("Patient")),
		),
		xmltree.Build("Trials",
			xmltree.Build("Trial", xmltree.Build("Patient")),
		),
	))
}

func TestMaterializeShipsCopies(t *testing.T) {
	d := pharma()
	v := tpq.MustParse("//Trials//Trial")
	m := Materialize(v, d)
	if len(m.Forest) != 3 {
		t.Fatalf("forest has %d trees, want 3", len(m.Forest))
	}
	if m.Size() != 7 { // 3 Trials + 3 Patients + 1 Status
		t.Fatalf("forest size = %d, want 7", m.Size())
	}
	// Mutating the stored forest must not touch the source.
	m.Forest[0].Root.AddChild("intruder")
	if d.Size() != 10 {
		t.Error("materialization aliased the source document")
	}
}

// answer applies the contained rewritings' compensation queries to
// the stored forest, as the engine answers a stored view: one compiled
// plan executed over the cached forest index, answers deduplicated
// across CRs in (tree, preorder) order.
func answer(ctx context.Context, m *Materialized, crs []*rewrite.ContainedRewriting) ([]*xmltree.Node, error) {
	pl, err := plan.Compile(ctx, rewrite.Compensations(crs))
	if err != nil {
		return nil, err
	}
	f, err := m.ForestIndex(ctx)
	if err != nil {
		return nil, err
	}
	res, err := pl.Exec(ctx, f, plan.ExecOptions{})
	if err != nil {
		return nil, err
	}
	return res.Nodes(), nil
}

// Answers from the shipped forest agree (up to node identity) with
// answering against the source: the mediator loses nothing the view
// exposes.
func TestAnswerOnForestMatchesSource(t *testing.T) {
	d := pharma()
	q := tpq.MustParse("//Trials[//Status]//Trial")
	v := tpq.MustParse("//Trials//Trial")
	res, err := rewrite.MCR(q, v, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := Materialize(v, d)
	got, err := answer(context.Background(), m, res.CRs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rewrite.AnswerUsingView(context.Background(), res.CRs, v, d)
	if err != nil {
		t.Fatal(err)
	}
	if !samePathsShape(got, want) {
		t.Fatalf("forest answers %v != source answers %v", shapes(got), shapes(want))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := pharma()
	v := tpq.MustParse("//Trials//Trial")
	m := Materialize(v, d)
	var b strings.Builder
	if err := m.Write(&b); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("read back: %v\n%s", err, b.String())
	}
	if m2.Expr.String() != v.String() {
		t.Errorf("expr round trip: %s", m2.Expr)
	}
	if len(m2.Forest) != len(m.Forest) || m2.Size() != m.Size() {
		t.Fatalf("forest round trip: %d trees / %d nodes", len(m2.Forest), m2.Size())
	}
	for i := range m.Forest {
		if m.Forest[i].String() != m2.Forest[i].String() {
			t.Errorf("tree %d changed: %s vs %s", i, m.Forest[i], m2.Forest[i])
		}
	}
	// Text content survives.
	d2 := pharma()
	d2.Nodes[3].Text = "John Doe"
	m3 := Materialize(v, d2)
	var b3 strings.Builder
	if err := m3.Write(&b3); err != nil {
		t.Fatal(err)
	}
	m4, err := Read(strings.NewReader(b3.String()))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range m4.Forest {
		for _, n := range tr.Nodes {
			if n.Text == "John Doe" {
				found = true
			}
		}
	}
	if !found {
		t.Error("text content lost in round trip")
	}
}

func TestReadErrors(t *testing.T) {
	for _, src := range []string{
		"<wrong/>",
		"<materialized-view/>",            // missing expr
		`<materialized-view expr="///"/>`, // bad expression
		`<materialized-view expr="//a"><bogus/></materialized-view>`,
		`<materialized-view expr="//a"><tree><a/><b/></tree></materialized-view>`,
	} {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", src)
		}
	}
}

// Property: for random documents and answerable query/view pairs, the
// mediator's forest answers match source-side view answering.
func TestQuickForestAnswering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := []string{"a", "b", "c"}
		q := workload.RandomPattern(rng, alphabet, 4)
		v := workload.RandomPattern(rng, alphabet, 4)
		res, err := rewrite.MCR(q, v, rewrite.Options{MaxEmbeddings: 1 << 14})
		if err != nil || res.Union.Empty() {
			return true
		}
		for i := 0; i < 3; i++ {
			d := xmltree.Generate(rng, xmltree.GenSpec{
				Tags: alphabet, MaxDepth: 5, MaxFanout: 3, TargetSize: 25,
			})
			m := Materialize(v, d)
			got, err := answer(context.Background(), m, res.CRs)
			if err != nil {
				return false
			}
			want, err := rewrite.AnswerUsingView(context.Background(), res.CRs, v, d)
			if err != nil {
				return false
			}
			if !samePathsShape(got, want) {
				t.Logf("q=%s v=%s d=%s:\nforest %v\nsource %v", q, v, d, shapes(got), shapes(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// shapes renders answers as the SET of structural strings rooted at
// the answer nodes; forest answers are copies, so node identity cannot
// be compared but subtree shapes can. The set (not multiset) is used:
// overlapping view answers (a view node nested under another) ship the
// same source element twice, and the mediator cannot tell the copies
// apart — an inherent artifact of shipping subtrees.
func shapes(ns []*xmltree.Node) []string {
	set := make(map[string]bool, len(ns))
	for _, n := range ns {
		set[xmltree.NewDocument(cloneSubtree(n)).String()] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func samePathsShape(a, b []*xmltree.Node) bool {
	as, bs := shapes(a), shapes(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestForestIndexCachingAndInvalidation(t *testing.T) {
	ctx := context.Background()
	d := pharma()
	v := tpq.MustParse("//Trials//Trial")
	m := Materialize(v, d)

	f1, err := m.ForestIndex(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := m.ForestIndex(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("ForestIndex rebuilt despite no mutation")
	}
	if f1.Trees() != 3 || f1.Shared() {
		t.Fatalf("Trees=%d Shared=%v", f1.Trees(), f1.Shared())
	}

	m.Invalidate()
	f3, err := m.ForestIndex(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f3 == f1 {
		t.Fatal("Invalidate did not drop the cached index")
	}
}

func TestAppendInvalidatesAndAnswerSeesNewTrees(t *testing.T) {
	ctx := context.Background()
	d := pharma()
	q := tpq.MustParse("//Trials//Trial/Patient")
	v := tpq.MustParse("//Trials//Trial")
	res, err := rewrite.MCR(q, v, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := Materialize(v, d)
	before, err := answer(ctx, m, res.CRs)
	if err != nil {
		t.Fatal(err)
	}
	// Incremental update from the source: one more Trial subtree.
	extra := xmltree.NewDocument(xmltree.Build("Trial", xmltree.Build("Patient")))
	m.Append(extra)
	after, err := answer(ctx, m, res.CRs)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("answers %d -> %d after Append, want +1", len(before), len(after))
	}
	// Stable (tree, preorder) order: the appended tree's answer is last.
	if got := after[len(after)-1]; got.Parent != extra.Root {
		t.Fatalf("appended tree's Patient not last: %v", got.Path())
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	d := pharma()
	v := tpq.MustParse("//Trials//Trial")
	c.Register("b-src", Materialize(v, d))
	c.Register("a-src", Materialize(v, d))
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a-src" || names[1] != "b-src" {
		t.Fatalf("Names = %v, want sorted [a-src b-src]", names)
	}
	m, ok := c.Get("a-src")
	if !ok || m == nil {
		t.Fatal("Get(a-src) missed")
	}
	if _, ok := c.Get("nope"); ok {
		t.Fatal("Get(nope) hit")
	}
	if err := c.Extend("a-src", xmltree.NewDocument(xmltree.Build("Trial"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Extend("nope", xmltree.NewDocument(xmltree.Build("Trial"))); err == nil {
		t.Fatal("Extend(nope) succeeded")
	}
	if len(m.Forest) != 4 {
		t.Fatalf("Extend did not reach the stored view: %d trees", len(m.Forest))
	}
	if !c.Remove("b-src") || c.Remove("b-src") {
		t.Fatal("Remove semantics wrong")
	}
	if c.Len() != 1 {
		t.Fatalf("Len after Remove = %d", c.Len())
	}
}
