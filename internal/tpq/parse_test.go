package tpq

import (
	"errors"
	"testing"
)

func TestParseSimplePaths(t *testing.T) {
	tests := []struct {
		expr     string
		size     int
		rootTag  string
		rootAxis Axis
		outTag   string
	}{
		{"/a", 1, "a", Child, "a"},
		{"//a", 1, "a", Descendant, "a"},
		{"/a/b", 2, "a", Child, "b"},
		{"//a//b", 2, "a", Descendant, "b"},
		{"//Trials//Trial", 2, "Trials", Descendant, "Trial"},
		{"/a//b/c", 3, "a", Child, "c"},
	}
	for _, tc := range tests {
		p, err := Parse(tc.expr)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.expr, err)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("Parse(%q): invalid pattern: %v", tc.expr, err)
		}
		if p.Size() != tc.size {
			t.Errorf("Parse(%q).Size = %d, want %d", tc.expr, p.Size(), tc.size)
		}
		if p.Root.Tag != tc.rootTag || p.Root.Axis != tc.rootAxis {
			t.Errorf("Parse(%q) root = %s%s", tc.expr, p.Root.Axis, p.Root.Tag)
		}
		if p.Output.Tag != tc.outTag {
			t.Errorf("Parse(%q) output tag = %q, want %q", tc.expr, p.Output.Tag, tc.outTag)
		}
	}
}

func TestParsePredicates(t *testing.T) {
	p := MustParse("//Trials[//Status]//Trial")
	if p.Size() != 3 {
		t.Fatalf("size = %d, want 3", p.Size())
	}
	root := p.Root
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(root.Children))
	}
	status := root.Children[0]
	if status.Tag != "Status" || status.Axis != Descendant {
		t.Errorf("predicate child = %s%s", status.Axis, status.Tag)
	}
	if p.Output.Tag != "Trial" || p.Output.Axis != Descendant {
		t.Errorf("output = %s%s", p.Output.Axis, p.Output.Tag)
	}
	if !p.OnDistinguishedPath(root) || p.OnDistinguishedPath(status) {
		t.Error("distinguished path membership wrong")
	}
}

func TestParseDefaultChildInPredicate(t *testing.T) {
	p := MustParse("//a//b[c][//b/d]")
	b := p.Output
	if b.Tag != "b" || len(b.Children) != 2 {
		t.Fatalf("output %q with %d children", b.Tag, len(b.Children))
	}
	c := b.Children[0]
	if c.Tag != "c" || c.Axis != Child {
		t.Errorf("bare predicate name should be child axis, got %s%s", c.Axis, c.Tag)
	}
	b2 := b.Children[1]
	if b2.Tag != "b" || b2.Axis != Descendant || len(b2.Children) != 1 {
		t.Fatalf("second predicate shape wrong: %s%s", b2.Axis, b2.Tag)
	}
	if d := b2.Children[0]; d.Tag != "d" || d.Axis != Child {
		t.Errorf("nested step wrong: %s%s", d.Axis, d.Tag)
	}
}

func TestParseNestedPredicates(t *testing.T) {
	p := MustParse("/a[b[//c][d]]/e")
	if p.Size() != 5 {
		t.Fatalf("size = %d, want 5", p.Size())
	}
	b := p.Root.Children[0]
	if b.Tag != "b" || len(b.Children) != 2 {
		t.Fatalf("b has %d children", len(b.Children))
	}
	if b.Children[0].Tag != "c" || b.Children[0].Axis != Descendant {
		t.Error("nested //c wrong")
	}
	if b.Children[1].Tag != "d" || b.Children[1].Axis != Child {
		t.Error("nested d wrong")
	}
}

func TestParseErrors(t *testing.T) {
	for _, expr := range []string{
		"", "a", "/", "//", "/a[", "/a[b", "/a]", "/a[b]]", "/a/[b]",
		"/a/ /b", "/a[]", "/3a", "/a b",
	} {
		if _, err := Parse(expr); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", expr)
		} else if !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q) error %v does not wrap ErrParse", expr, err)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	exprs := []string{
		"/a",
		"//a",
		"//Trials[//Status]//Trial",
		"//Auction[//item]//name",
		"//a//b[c][//b/d]",
		"/a[b[//c][d]]/e",
		"//a//a/b/c[d][//a/b/c/e]",
		"//a//b[//b/d]//b[c]",
		"/PharmaLab//Trial[Patient][//Status]",
	}
	for _, expr := range exprs {
		p := MustParse(expr)
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Errorf("reparse of %q -> %q failed: %v", expr, s, err)
			continue
		}
		if !p.StructuralEqual(p2) {
			t.Errorf("round trip of %q via %q changed the pattern", expr, s)
		}
	}
}

func TestStringUsesDistinguishedPath(t *testing.T) {
	p := MustParse("//a[b]//c")
	if got := p.String(); got != "//a[b]//c" {
		t.Errorf("String = %q", got)
	}
	// Move the output onto the predicate branch and re-render.
	p.Output = p.Root.Children[0]
	s := p.String()
	p2 := MustParse(s)
	if !p.StructuralEqual(p2) {
		t.Errorf("re-rooted render %q lost structure", s)
	}
	if p2.Output.Tag != "b" {
		t.Errorf("output after re-render = %q, want b", p2.Output.Tag)
	}
}

func TestCanonicalOrderInsensitive(t *testing.T) {
	p := MustParse("//a[b][c]")
	q := MustParse("//a[c][b]")
	if !p.StructuralEqual(q) {
		t.Error("sibling order should not matter")
	}
	r := MustParse("//a[b]/c")
	if p.StructuralEqual(r) {
		t.Error("distinct patterns compared equal")
	}
	// Output position matters.
	s := MustParse("//a[b]/c")
	s.Output = s.Root
	if r.StructuralEqual(s) {
		t.Error("output mark ignored by canonical form")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := MustParse("//a[b]//c")
	q, m := p.Clone()
	if !p.StructuralEqual(q) {
		t.Fatal("clone differs")
	}
	if m[p.Output] != q.Output {
		t.Error("clone output mapping wrong")
	}
	q.Output.AddChild(Child, "z")
	if p.Size() != 3 {
		t.Error("mutating clone affected original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := MustParse("//a/b")
	p.Output = &Node{Tag: "zz"}
	if err := p.Validate(); err == nil {
		t.Error("foreign output accepted")
	}
	p = MustParse("//a/b")
	p.Root.Children[0].Parent = nil
	if err := p.Validate(); err == nil {
		t.Error("broken parent pointer accepted")
	}
}

func TestDistinguishedPath(t *testing.T) {
	p := MustParse("//a[x]//b/c[y]")
	path := p.DistinguishedPath()
	var tags []string
	for _, n := range path {
		tags = append(tags, n.Tag)
	}
	want := []string{"a", "b", "c"}
	if len(tags) != len(want) {
		t.Fatalf("path = %v", tags)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("path = %v, want %v", tags, want)
		}
	}
}

// TestCanonicalTracksOutputReassignment pins the cache keys of the
// output-dependent metadata: Output is a plain field, and reassigning it
// without SetOutput must not serve the canonical form, output depth or
// distinguished path cached for the old output.
func TestCanonicalTracksOutputReassignment(t *testing.T) {
	p := MustParse("//a[b]//c")
	b, c := p.Root.Children[0], p.Root.Children[1]
	p.Canonical()
	if p.OutputDepth() != 1 || !p.OnDistinguishedPath(c) || p.OnDistinguishedPath(b) {
		t.Fatalf("before: OutputDepth %d, on path c=%v b=%v", p.OutputDepth(), p.OnDistinguishedPath(c), p.OnDistinguishedPath(b))
	}
	p.Output = b
	want := MustParse(p.String()).Canonical()
	if got := p.Canonical(); got != want {
		t.Errorf("Canonical after output change = %q, fresh parse of the print says %q", got, want)
	}
	if p.OutputDepth() != 1 || !p.OnDistinguishedPath(b) || p.OnDistinguishedPath(c) {
		t.Errorf("after: OutputDepth %d, on path b=%v c=%v; want 1, true, false",
			p.OutputDepth(), p.OnDistinguishedPath(b), p.OnDistinguishedPath(c))
	}
	p.Output = p.Root
	if p.OutputDepth() != 0 || p.OnDistinguishedPath(b) || !p.OnDistinguishedPath(p.Root) {
		t.Errorf("output at root: OutputDepth %d, on path b=%v root=%v; want 0, false, true",
			p.OutputDepth(), p.OnDistinguishedPath(b), p.OnDistinguishedPath(p.Root))
	}
}
