package qav_test

import (
	"context"
	"strings"
	"testing"

	"qav"
)

const trialsXML = `<PharmaLab>
  <Trials type="T1">
    <Trial><Patient>John Doe</Patient><Status>Complete</Status></Trial>
    <Trial><Patient>Jennifer Bloe</Patient></Trial>
  </Trials>
  <Trials type="T2">
    <Trial><Patient>Mary Moore</Patient></Trial>
  </Trials>
</PharmaLab>`

const auctionSchema = `
root Auctions
Auctions -> Auction*
Auction  -> open_auction* closed_auction?
open_auction -> item bids?
closed_auction -> item person? buyer?
bids  -> person+
buyer -> person
person -> name
item  -> name
`

func TestPublicAPISchemaless(t *testing.T) {
	q := qav.MustParseQuery("//Trials[//Status]//Trial")
	v := qav.MustParseQuery("//Trials//Trial")
	if !qav.Answerable(q, v) {
		t.Fatal("Answerable = false")
	}
	res, err := qav.Rewrite(q, v)
	if err != nil {
		t.Fatal(err)
	}
	if res.Union.Empty() {
		t.Fatal("empty MCR")
	}
	d, err := qav.ParseDocumentString(trialsXML)
	if err != nil {
		t.Fatal(err)
	}
	direct := res.Union.Evaluate(d)
	viaView, err := qav.AnswerUsingView(context.Background(), res.CRs, v, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != 1 || len(viaView) != 1 || direct[0] != viaView[0] {
		t.Fatalf("direct=%d viaView=%d answers", len(direct), len(viaView))
	}
	if got := direct[0].Path(); got != "/PharmaLab/Trials/Trial" {
		t.Errorf("answer path = %s", got)
	}
}

func TestPublicAPIWithSchema(t *testing.T) {
	s, err := qav.ParseSchema(auctionSchema)
	if err != nil {
		t.Fatal(err)
	}
	rw := qav.NewSchemaRewriter(s)
	q := qav.MustParseQuery("//Auction[//item]//name")
	v := qav.MustParseQuery("//Auction//person")
	if !rw.Answerable(q, v) {
		t.Fatal("Answerable = false under schema")
	}
	res, err := rw.Rewrite(q, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Union.Patterns) != 1 {
		t.Fatalf("MCR = %s, want single CR", res.Union)
	}
	want := qav.MustParseQuery("//Auction//person//name")
	if !rw.Equivalent(res.Union.Patterns[0], want) {
		t.Errorf("MCR = %s, want %s", res.Union.Patterns[0], want)
	}
	if !rw.Contained(res.Union.Patterns[0], q) {
		t.Error("MCR not S-contained in query")
	}
}

func TestPublicAPIContainment(t *testing.T) {
	a := qav.MustParseQuery("//a/b")
	b := qav.MustParseQuery("//a//b")
	if !qav.Contained(a, b) || qav.Contained(b, a) {
		t.Error("containment broken through the facade")
	}
	if !qav.Equivalent(a, a) {
		t.Error("equivalence broken")
	}
}

func TestPublicAPIBuildPatternsProgrammatically(t *testing.T) {
	p := qav.New(qav.Descendant, "a")
	c := p.Root.AddChild(qav.Child, "b")
	p.SetOutput(c)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.String() != "//a/b" {
		t.Errorf("String = %q", p.String())
	}
}

func TestPublicAPIMaterializeView(t *testing.T) {
	d, err := qav.ParseDocumentString(trialsXML)
	if err != nil {
		t.Fatal(err)
	}
	v := qav.MustParseQuery("//Trials//Trial")
	got := qav.MaterializeView(v, d)
	if len(got) != 3 {
		t.Errorf("view returned %d nodes, want 3", len(got))
	}
	for _, n := range got {
		if !strings.HasSuffix(n.Path(), "/Trial") {
			t.Errorf("unexpected view node %s", n.Path())
		}
	}
}

func TestPublicAPIUnanswerable(t *testing.T) {
	q := qav.MustParseQuery("/b/d")
	v := qav.MustParseQuery("/a/b//c")
	if qav.Answerable(q, v) {
		t.Error("mismatched roots must be unanswerable")
	}
	res, err := qav.Rewrite(q, v)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Union.Empty() {
		t.Errorf("MCR = %s, want empty", res.Union)
	}
}

func TestPublicAPIShipAndMediate(t *testing.T) {
	d, err := qav.ParseDocumentString(trialsXML)
	if err != nil {
		t.Fatal(err)
	}
	v := qav.MustParseQuery("//Trials//Trial")
	m := qav.ShipView(v, d)
	if len(m.Forest) != 3 {
		t.Fatalf("shipped %d trees, want 3", len(m.Forest))
	}
	var buf strings.Builder
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := qav.ReadShippedView(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	q := qav.MustParseQuery("//Trials[//Status]//Trial/Patient")
	res, err := qav.RewriteWithOptions(q, m2.Expr, qav.Options{MaxEmbeddings: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := m2.Answer(context.Background(), res.CRs)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || answers[0].Text != "John Doe" {
		t.Fatalf("mediated answers = %v", answers)
	}
}

// Structural-join (indexed) evaluation is reached through an Engine
// answer, whose plan always runs as structural joins.
func TestPublicAPIIndex(t *testing.T) {
	d, err := qav.ParseDocumentString(trialsXML)
	if err != nil {
		t.Fatal(err)
	}
	e := qav.NewEngine(qav.EngineConfig{})
	ans, err := e.Answer(context.Background(), qav.EngineRequest{
		Query:    qav.MustParseQuery("//Trials//Trial"),
		View:     qav.MustParseQuery("//Trials"),
		Document: d,
	})
	if err != nil {
		t.Fatal(err)
	}
	answers := ans.Exec.Nodes()
	if len(answers) != 3 {
		t.Fatalf("indexed evaluation found %d, want 3", len(answers))
	}
	if len(ans.Direct) != len(answers) {
		t.Fatalf("direct evaluation found %d, indexed %d", len(ans.Direct), len(answers))
	}
	patients := 0
	for i, n := range answers {
		if n != ans.Direct[i] {
			t.Errorf("answer %d is not the document's node", i)
		}
		for _, c := range n.Children {
			if c.Tag == "Patient" {
				patients++
			}
		}
	}
	if patients != 3 {
		t.Errorf("answers hold %d Patient children, want 3", patients)
	}
}

func TestPublicAPIRecursiveSchema(t *testing.T) {
	s := qav.MustParseSchema("root a\na -> b*\nb -> b* c? d?\nc ->\nd ->")
	rw := qav.NewSchemaRewriter(s)
	q := qav.MustParseQuery("//a//b[c]")
	v := qav.MustParseQuery("//a//b")
	res, err := rw.RewriteRecursive(q, v, qav.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Union.Empty() {
		t.Fatal("recursive MCR empty")
	}
	if _, err := rw.Rewrite(q, v); err == nil {
		t.Error("Rewrite must refuse recursive schemas")
	}
}

func TestPublicAPIWildcardRejectedInRewrite(t *testing.T) {
	if _, err := qav.Rewrite(qav.MustParseQuery("//a[*]"), qav.MustParseQuery("//a")); err == nil {
		t.Error("wildcard query accepted by Rewrite")
	}
	if qav.Answerable(qav.MustParseQuery("//a[*]"), qav.MustParseQuery("//a")) {
		t.Error("wildcard query reported answerable")
	}
	// But evaluation works: children of the two Trials groups are the
	// two lifted type attributes plus the three Trial elements.
	d, _ := qav.ParseDocumentString(trialsXML)
	got := qav.MustParseQuery("//Trials/*").Evaluate(d)
	if len(got) != 5 {
		t.Errorf("wildcard children = %d, want 5", len(got))
	}
}

func TestPublicAPIParseDocumentReader(t *testing.T) {
	d, err := qav.ParseDocument(strings.NewReader("<a><b/></a>"))
	if err != nil || d.Size() != 2 {
		t.Fatalf("ParseDocument: %v", err)
	}
	if _, err := qav.ParseQuery("///"); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := qav.ParseSchema("nonsense"); err == nil {
		t.Error("bad schema accepted")
	}
}

func TestPublicAPIMinimizeComposeCounterexample(t *testing.T) {
	m := qav.Minimize(qav.MustParseQuery("//a[b][b][//b]"))
	if !qav.Equivalent(m, qav.MustParseQuery("//a[b]")) {
		t.Errorf("Minimize = %s", m)
	}
	r, err := qav.Compose(qav.MustParseQuery("//Trial[//Status]"), qav.MustParseQuery("//Trials//Trial"))
	if err != nil || !qav.Equivalent(r, qav.MustParseQuery("//Trials//Trial[//Status]")) {
		t.Errorf("Compose = %v (%v)", r, err)
	}
	d, w, ok := qav.Counterexample(qav.MustParseQuery("//a//b"), qav.MustParseQuery("//a/b"))
	if !ok || d == nil || w == nil {
		t.Fatal("no counterexample for //a//b vs //a/b")
	}
	if _, _, ok := qav.Counterexample(qav.MustParseQuery("/a"), qav.MustParseQuery("//a")); ok {
		t.Error("counterexample for a valid containment")
	}
}

func TestPublicAPIEquivalentRewriting(t *testing.T) {
	cr, ok, err := qav.EquivalentRewriting(qav.MustParseQuery("//a[b]"), qav.MustParseQuery("//a"), qav.Options{})
	if err != nil || !ok {
		t.Fatalf("expected equivalent rewriting (%v)", err)
	}
	if !qav.Equivalent(cr.Rewriting, qav.MustParseQuery("//a[b]")) {
		t.Errorf("rewriting = %s", cr.Rewriting)
	}
	s := qav.MustParseSchema(auctionSchema)
	rw := qav.NewSchemaRewriter(s)
	if _, ok, _ := rw.EquivalentRewriting(
		qav.MustParseQuery("//Auction[//item]//name"),
		qav.MustParseQuery("//Auction//person"), qav.Options{}); ok {
		t.Error("Fig 2 rewriting must be contained, not equivalent")
	}
}
