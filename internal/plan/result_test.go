package plan

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"

	"qav/internal/tpq"
	"qav/internal/xmltree"
)

// checkPaths demands that the path column spell every position's node
// path, and that two positions share a path ID iff they share a path.
func checkPaths(t *testing.T, f *Forest) {
	t.Helper()
	idOf := make(map[string]int32)
	pathOf := make(map[int32]string)
	for p := range f.nodes {
		pos := int32(p)
		want := f.Node(pos).Path()
		if got := f.Path(pos); got != want {
			t.Fatalf("position %d: path column reads %q, node path %q", pos, got, want)
		}
		id := f.PathID(pos)
		if prev, ok := idOf[want]; ok && prev != id {
			t.Fatalf("path %q interned twice, as %d and %d", want, prev, id)
		}
		if prev, ok := pathOf[id]; ok && prev != want {
			t.Fatalf("path ID %d names both %q and %q", id, prev, want)
		}
		idOf[want], pathOf[id] = id, want
	}
}

// hostileTags are tags no XML parser yields but a document built in
// code may carry: quotes, the HTML-escaped characters, a JavaScript
// line separator, a slash and invalid UTF-8.
var hostileTags = []string{`q"t`, "<a>", "x&y", "\u2028", "\xff\xfe", "s/l", "bad\xc3", ""}

// hostileDoc builds a document of nested a chains with hostile tags
// between them, so a windows nest and their roots have ancestors, and
// a root with more distinct child tags than the interner scans, each
// met twice.
func hostileDoc() *xmltree.Document {
	root := xmltree.Build("r")
	for i := 0; i < 2*(kidScan+4); i++ {
		root.AddChild(fmt.Sprintf("w%d", i%(kidScan+4))).AddChild("a").AddChild("b")
	}
	cur := root
	for i, tag := range hostileTags {
		n := cur.AddChild(tag)
		a := n.AddChild("a")
		a.AddChild("b").AddChild(hostileTags[(i+1)%len(hostileTags)])
		a.AddChild("a").AddChild("b")
		cur = a
		if i%3 == 2 {
			cur = root
		}
	}
	return xmltree.NewDocument(root)
}

// hostileForests indexes d in every layout: shipped standalone trees
// (d's clone among them), the whole document, nested windows, and
// overlapping windows out of document order.
func hostileForests(t *testing.T, d *xmltree.Document) map[string]*Forest {
	t.Helper()
	ctx := context.Background()
	as := tpq.MustParse("//a").Evaluate(d)
	if len(as) < 4 {
		t.Fatalf("document has %d a nodes, want nested windows", len(as))
	}
	shipped := []*xmltree.Document{d.Clone(), mustDoc(t, "<a><b><c/></b><b/></a>")}
	for _, n := range as[:3] {
		shipped = append(shipped, xmltree.NewDocument(xmltree.Build(n.Tag, xmltree.Build(`"`), xmltree.Build("\u2028"))))
	}
	forests := map[string]func() (*Forest, error){
		"forest":   func() (*Forest, error) { return IndexForest(ctx, shipped) },
		"document": func() (*Forest, error) { return IndexDocument(ctx, d) },
		"nested":   func() (*Forest, error) { return IndexSubtrees(ctx, d, as) },
		// The same window twice and windows out of document order: a
		// node sits in several windows, under the same path each time.
		"overlapping": func() (*Forest, error) {
			return IndexSubtrees(ctx, d, append(slices.Clone(as[1:]), as[0], as[1]))
		},
		"empty": func() (*Forest, error) { return IndexDocument(ctx, nil) },
	}
	out := make(map[string]*Forest, len(forests))
	for name, index := range forests {
		f, err := index()
		if err != nil {
			t.Fatal(err)
		}
		if name != "empty" && f.Size() == 0 {
			t.Fatalf("%s: empty forest", name)
		}
		out[name] = f
	}
	return out
}

func TestForestPathsMatchNodePaths(t *testing.T) {
	for _, f := range hostileForests(t, hostileDoc()) {
		checkPaths(t, f)
	}
}

// hostileTexts are texts encoding/json must escape or rewrite, next to
// plain and empty ones: quotes and backslashes, the HTML-escaped
// characters, control characters and DEL, the JavaScript line
// separators, non-ASCII text and invalid UTF-8.
var hostileTexts = []string{
	"", "plain", `say "hi"`, `back\slash`, "<script>", "a&b", "tab\there", "nl\nx",
	"\x00\x01\x1f\x7f", "\u2028", "x\u2029y", "é", "\xff\xfe", "bad\xc3", "", "two words",
}

// TestForestTextsMatchNodeTexts demands that the text column read, at
// every position of every layout, its node's text, and that its plain
// bit be JSONPlain of that text, so that a text marked plain is one
// encoding/json writes as it stands.
func TestForestTextsMatchNodeTexts(t *testing.T) {
	d := hostileDoc()
	for i, n := range d.Nodes {
		n.Text = hostileTexts[i%len(hostileTexts)]
	}
	for name, f := range hostileForests(t, d) {
		for p := range f.nodes {
			pos := int32(p)
			text, plain := f.Text(pos)
			want := f.Node(pos).Text
			if string(text) != want {
				t.Fatalf("%s: position %d: text column reads %q, node text %q", name, pos, text, want)
			}
			if plain != JSONPlain(want) {
				t.Fatalf("%s: position %d: plain bit %v for %q", name, pos, plain, want)
			}
			if q, _ := json.Marshal(want); plain && string(q) != `"`+want+`"` {
				t.Fatalf("%s: position %d: %q marked plain, but encoding/json writes %s", name, pos, want, q)
			}
		}
	}
}

// TestExecResultOutlivesScratch holds the answers of two execs while
// more execs of other plans run over the same forests, serially and
// concurrently: a result that aliased the pooled join arena would be
// overwritten by the runs that take the arena next.
func TestExecResultOutlivesScratch(t *testing.T) {
	ctx := context.Background()
	var trees []*xmltree.Document
	for i := 0; i < 6; i++ {
		trees = append(trees, mustDoc(t, fmt.Sprintf("<a><b><c/></b><b/><b><c/><d/></b>%s</a>", []string{"", "<b><d/></b>", "<e><b><c/></b></e>"}[i%3])))
	}
	shipped, err := IndexForest(ctx, trees)
	if err != nil {
		t.Fatal(err)
	}
	d := mustDoc(t, "<r><a><b><c/></b><a><b><d/></b><b><c/></b></a><b/></a><a><b><c/><d/></b></a></r>")
	shared, err := IndexSubtrees(ctx, d, tpq.MustParse("//a").Evaluate(d))
	if err != nil {
		t.Fatal(err)
	}
	compile := func(exprs ...string) *Plan {
		var comps []*tpq.Pattern
		for _, e := range exprs {
			comps = append(comps, tpq.MustParse(e))
		}
		pl, err := Compile(ctx, comps)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	held := []struct {
		name string
		f    *Forest
		pl   *Plan
	}{
		{"one program, shipped forest", shipped, compile("/a/b[c]")},
		{"programs, shared forest", shared, compile("/a/b[c]", "/a//d", "/a/a/b")},
	}
	others := []*Plan{
		compile("/a/b[d]"), compile("/a//c"), compile("/a/b/c"), compile("/a[b/d]/b"),
		compile("/a/*[c]"), compile("/a//b[c][d]", "/a/e/b"), compile("/a/b"),
	}
	var results [][]int32
	var wants [][]int32
	for _, h := range held {
		res, err := h.pl.Exec(ctx, h.f, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) == 0 || res.Forest != h.f {
			t.Fatalf("%s: %d answers over forest %p, want some over %p", h.name, len(res.Matches), res.Forest, h.f)
		}
		results = append(results, res.Matches)
		wants = append(wants, slices.Clone(res.Matches))
	}
	check := func(when string) {
		t.Helper()
		for i, h := range held {
			if !slices.Equal(results[i], wants[i]) {
				t.Fatalf("%s: %s answers changed from %v to %v", when, h.name, wants[i], results[i])
			}
		}
	}
	run := func(k int) error {
		h := held[k%len(held)]
		_, err := others[k%len(others)].Exec(ctx, h.f, ExecOptions{})
		return err
	}
	for k := 0; k < 50; k++ {
		if err := run(k); err != nil {
			t.Fatal(err)
		}
	}
	check("after 50 serial execs")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if err := run(g + k); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check("after 8 goroutines of 50 execs")
}
