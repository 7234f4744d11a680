package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"qav/internal/engine"
	"qav/internal/plan"
	"qav/internal/rewrite"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

// The reflective /v1/answer encoding is the oracle for appendAnswer:
// the response structs below are the body's schema, rendered through
// encodeJSON exactly as every other JSON body is.

type answerJSON struct {
	Path string `json:"path"`
	Text string `json:"text,omitempty"`
}

type planJSON struct {
	Programs int `json:"programs"`
}

type answerResponse struct {
	Union         string       `json:"union"`
	ViewNodes     int          `json:"viewNodes,omitempty"`
	ViewTrees     int          `json:"viewTrees,omitempty"`
	Answers       []answerJSON `json:"answers"`
	DirectSize    int          `json:"directAnswerCount,omitempty"`
	Plan          *planJSON    `json:"plan,omitempty"`
	Partial       bool         `json:"partial,omitempty"`
	PartialReason string       `json:"partialReason,omitempty"`
}

func oracleAnswerBody(t *testing.T, ans *engine.Answer) []byte {
	t.Helper()
	resp := answerResponse{
		Union:         ans.Result.Union.String(),
		ViewNodes:     len(ans.ViewNodes),
		ViewTrees:     ans.Trees,
		DirectSize:    len(ans.Direct),
		Partial:       ans.Result.Partial,
		PartialReason: string(ans.Result.PartialReason),
	}
	if ans.Plan != nil {
		resp.Plan = &planJSON{Programs: ans.Plan.Programs()}
	}
	for _, n := range ans.Exec.Nodes() {
		resp.Answers = append(resp.Answers, answerJSON{Path: n.Path(), Text: n.Text})
	}
	body, err := encodeJSON(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// checkAnswerBody compares the one-pass body with the oracle's, both
// appended to a fresh buffer and to one holding earlier output.
func checkAnswerBody(t *testing.T, tag string, ans *engine.Answer) {
	t.Helper()
	want := oracleAnswerBody(t, ans)
	requireCompact(t, want)
	if got := appendAnswer(nil, ans); !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from the reflective encoding\n got %q\nwant %q", tag, got, want)
	}
	prefix := []byte("earlier output")
	if got := appendAnswer(prefix, ans); !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "earlier output" {
		t.Fatalf("%s: appending after existing bytes changed the output", tag)
	}
}

// partialOf returns a copy of ans whose rewriting reports degradation.
func partialOf(ans *engine.Answer, reason rewrite.PartialReason) *engine.Answer {
	res := *ans.Result
	res.Partial, res.PartialReason = true, reason
	cp := *ans
	cp.Result = &res
	return &cp
}

func TestAnswerBodyMatchesOracle(t *testing.T) {
	ctx := context.Background()
	eng := engine.New(engine.Config{CacheSize: 64})
	rng := rand.New(rand.NewSource(15))
	answer := func(text engine.Text) *engine.Answer {
		t.Helper()
		parsed, err := eng.Parse(engine.OpAnswer, text)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := eng.Answer(ctx, parsed)
		if err != nil {
			t.Fatalf("%+v: %v", text, err)
		}
		return ans
	}
	queries := []struct{ q, v string }{
		{"//Trials[//Status]//Trial/Patient", "//Trials//Trial"},
		{"//Trials//Trial[Status]", "//Trials//Trial"},
		{"//Trials[//Status]", "//Trials"},
		{"//Trials//Trial/Patient", "//Trials"},
		{"//Trials//Nothing", "//Trials"},
	}
	for i := 0; i < 4; i++ {
		d, err := workload.ClinicalTrialsDoc(ctx, rng, 3+i, 4, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		for j, n := range d.Nodes {
			if j%3 == 0 {
				n.Text = "t" + n.Tag
			}
		}
		xml := d.XMLString()
		name := "v" + string(rune('0'+i))
		eng.RegisterView(name, viewstore.Materialize(tpq.MustParse("//Trials"), d))
		for _, qv := range queries {
			direct := answer(engine.Text{Query: qv.q, View: qv.v, Document: xml})
			checkAnswerBody(t, "direct "+qv.q, direct)
			checkAnswerBody(t, "partial "+qv.q, partialOf(direct, rewrite.PartialDeadline))
			if qv.v == "//Trials" {
				stored := answer(engine.Text{Query: qv.q, ViewName: name})
				checkAnswerBody(t, "stored "+qv.q, stored)
				checkAnswerBody(t, "stored partial "+qv.q, partialOf(stored, rewrite.PartialBudget))
			}
		}
	}
	// The bare minimum: no answers, no plan, no optional field.
	checkAnswerBody(t, "empty", &engine.Answer{Result: &rewrite.Result{Union: tpq.NewUnion(tpq.MustParse("//a"))}})
	checkAnswerBody(t, "empty union", &engine.Answer{Result: &rewrite.Result{}, Exec: &plan.ExecResult{}})
}

// execOf returns an exec result holding nodes, in order, as positions
// of their document indexed whole, where a node's position is its
// preorder index.
func execOf(t *testing.T, d *xmltree.Document, nodes []*xmltree.Node) *plan.ExecResult {
	t.Helper()
	f, err := plan.IndexDocument(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int32, len(nodes))
	for i, n := range nodes {
		pos[i] = int32(n.Index)
	}
	return &plan.ExecResult{Matches: pos, Forest: f}
}

// hostile are strings encoding/json must escape or rewrite: HTML
// characters, quotes and backslashes, control characters, the JSON-
// valid but JavaScript-hostile line separators, non-ASCII text and
// invalid UTF-8.
var hostile = []string{
	"<script>", "a&b", `say "hi"`, `back\slash`, "tab\there", "nl\nx", "\x00\x01\x1f\x7f",
	"\u2028", "x\u2029y", "é", "日本語", "\xff\xfe", "bad\xc3", "\xe2\x80", "/", "plain",
}

func TestAnswerBodyHostileStrings(t *testing.T) {
	ctx := context.Background()
	root := xmltree.Build("root")
	var answers []*xmltree.Node
	cur := root
	for i, s := range hostile {
		n := cur.AddChild(s)
		n.Text = hostile[(i+3)%len(hostile)]
		answers = append(answers, n)
		leaf := n.AddChild("leaf")
		leaf.Text = s
		answers = append(answers, leaf)
		if i%2 == 0 {
			cur = n
		}
	}
	d := xmltree.NewDocument(root)
	var union []*tpq.Pattern
	for _, s := range hostile {
		p := tpq.New(tpq.Descendant, s)
		p.Output = p.Root.AddChild(tpq.Child, "leaf")
		union = append(union, p)
	}
	pl, err := plan.Compile(ctx, []*tpq.Pattern{tpq.MustParse("//a/b"), tpq.MustParse("//c")})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range hostile {
		ans := &engine.Answer{
			Result:    &rewrite.Result{Union: tpq.NewUnion(union[:i+1]...), Partial: true, PartialReason: rewrite.PartialReason(s)},
			Exec:      execOf(t, d, answers[:2*i+2]),
			ViewNodes: answers[:i],
			Direct:    answers[:i%3],
			Trees:     i % 2,
			Plan:      pl,
		}
		checkAnswerBody(t, "hostile "+s, ans)
	}
	// Siblings and cousins under plain and hostile tags in one answer:
	// each path must read as the oracle's, next to escaped paths or not.
	top := xmltree.Build("top")
	var mixed []*xmltree.Node
	for i, s := range hostile {
		g := top.AddChild([]string{"g", "h", s}[i%3])
		for _, tag := range []string{"x", s, "x", "y"} {
			mixed = append(mixed, g.AddChild(tag))
		}
		mixed = append(mixed, g.AddChild("z").AddChild("x"))
	}
	checkAnswerBody(t, "hostile siblings", &engine.Answer{
		Result: &rewrite.Result{Union: tpq.NewUnion(tpq.MustParse("//x"))},
		Exec:   execOf(t, xmltree.NewDocument(top), mixed),
	})
}

// TestAnswerEndpointBody pins the handler to the encoder: the served
// bytes are the oracle's bytes for the same engine answer.
func TestAnswerEndpointBody(t *testing.T) {
	eng := engine.New(engine.Config{CacheSize: 64})
	h := NewWith(eng)
	body := `{"query":"//Trials[//Status]//Trial/Patient","view":"//Trials//Trial","document":"<PharmaLab><Trials><Trial><Patient>J&amp;&lt;o</Patient><Status/></Trial></Trials></PharmaLab>"}`
	req := httptest.NewRequest("POST", "/v1/answer", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	parsed, err := eng.Parse(engine.OpAnswer, engine.Text{
		Query: "//Trials[//Status]//Trial/Patient", View: "//Trials//Trial",
		Document: "<PharmaLab><Trials><Trial><Patient>J&amp;&lt;o</Patient><Status/></Trial></Trials></PharmaLab>",
	})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Answer(context.Background(), parsed)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleAnswerBody(t, ans); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("served body\n%s\nwant\n%s", rec.Body.Bytes(), want)
	}
}

// TestAnswerBodyManyPaths answers over more distinct paths than the
// encoder's fixed path table holds, each path twice and out of order,
// so paths past the table are rendered once and then copied too.
func TestAnswerBodyManyPaths(t *testing.T) {
	root := xmltree.Build("root")
	var leaves []*xmltree.Node
	for i := 0; i < 150; i++ {
		tag := fmt.Sprintf("t%d", i)
		if i%7 == 0 {
			tag = hostile[i%len(hostile)] + tag
		}
		leaf := root.AddChild(tag).AddChild("x")
		leaf.Text = hostile[i%len(hostile)]
		leaves = append(leaves, leaf)
	}
	answers := slices.Clone(leaves)
	for i := len(leaves) - 1; i >= 0; i -= 2 {
		answers = append(answers, leaves[i])
	}
	checkAnswerBody(t, "many paths", &engine.Answer{
		Result: &rewrite.Result{Union: tpq.NewUnion(tpq.MustParse("//x"))},
		Exec:   execOf(t, xmltree.NewDocument(root), answers),
	})
}

// fuzzTags are the tags of FuzzAnswerBody's documents and patterns:
// plain ones, so that patterns match, and ones encoding/json escapes.
// None holds a character of the pattern syntax.
var fuzzTags = []string{"a", "b", "c", `q"t`, "<x>", "x&y", "\u2028", "\xff\xfe"}

// FuzzAnswerBody builds a document with hostile tags and texts, a view
// and a query from the fuzz bytes, answers the query directly over the
// document and through the view stored, and demands that both bodies
// are the reflective encoding's bytes.
func FuzzAnswerBody(f *testing.F) {
	f.Add([]byte{0, 1, 18, 24, 179, 228, 17, 24, 24, 0, 1, 22}, []byte{9, 34}, byte(0))
	f.Add([]byte{3, 20, 5, 23, 24, 24, 3, 36, 5, 229}, []byte{36, 5}, byte(3))
	f.Add([]byte{6, 6, 16, 24, 16, 7, 246}, []byte{8}, byte(6))
	eng := engine.New(engine.Config{CacheSize: 64})
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, docBytes, queryBytes []byte, viewTag byte) {
		d := fuzzAnswerDoc(docBytes)
		v := tpq.New(tpq.Descendant, fuzzTags[int(viewTag)%len(fuzzTags)])
		q := fuzzAnswerQuery(v.Root.Tag, queryBytes)
		direct, err := eng.Answer(ctx, engine.Request{Query: q, View: v, Document: d})
		if errors.Is(err, engine.ErrNotAnswerable) {
			return
		}
		if err != nil {
			t.Fatalf("direct %s over %s: %v", q, v, err)
		}
		checkAnswerBody(t, "direct", direct)
		eng.RegisterView("fuzz", viewstore.Materialize(v, d))
		stored, err := eng.Answer(ctx, engine.Request{Query: q, ViewName: "fuzz"})
		if err != nil {
			t.Fatalf("stored %s over %s: %v", q, v, err)
		}
		checkAnswerBody(t, "stored", stored)
	})
}

// fuzzAnswerDoc decodes a document of at most 200 nodes. Per byte, the
// low three bits pick the tag and the next two the move: add a child
// and descend (twice as often), add a child and stay, or climb. Every
// third node gets a text, hostile or plain by the byte's top bits.
func fuzzAnswerDoc(data []byte) *xmltree.Document {
	root := &xmltree.Node{Tag: "r"}
	cur, size := root, 1
	for i, b := range data {
		if size == 200 {
			break
		}
		var n *xmltree.Node
		switch b >> 3 & 3 {
		case 0, 1:
			n = cur.AddChild(fuzzTags[b&7])
			cur = n
		case 2:
			n = cur.AddChild(fuzzTags[b&7])
		case 3:
			if cur.Parent != nil {
				cur = cur.Parent
			}
			continue
		}
		size++
		if i%3 == 0 {
			n.Text = hostile[int(b>>5)%len(hostile)]
		}
	}
	return xmltree.NewDocument(root)
}

// fuzzAnswerQuery decodes a query of at most 6 nodes under a root
// tagged like the view's, so most queries are answerable through it.
// Per byte the low three bits pick the tag, bit 3 the axis and bits 4–5
// the move, as fuzzAnswerDoc's; the output is the node the walk ends
// on.
func fuzzAnswerQuery(rootTag string, data []byte) *tpq.Pattern {
	p := tpq.New(tpq.Descendant, rootTag)
	cur, size := p.Root, 1
	for _, b := range data {
		if size == 6 {
			break
		}
		axis := tpq.Child
		if b&8 != 0 {
			axis = tpq.Descendant
		}
		switch b >> 4 & 3 {
		case 0, 1:
			cur = cur.AddChild(axis, fuzzTags[b&7])
			size++
		case 2:
			cur.AddChild(axis, fuzzTags[b&7])
			size++
		case 3:
			if cur.Parent != nil {
				cur = cur.Parent
			}
		}
	}
	p.Output = cur
	return p
}
