package tpq

import "testing"

// FuzzParse checks that the XPath parser never panics, and that
// whatever it accepts is a valid pattern that survives a print/parse
// round trip.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"//a", "/a/b", "//Trials[//Status]//Trial", "//a//b[c][//b/d]",
		"/a[b[//c][d]]/e", "//a[", "a", "//", "/a[]/b", "//a[b]c",
		"/a//b[c/d][e]//f", "//a[//b[//d][//a]//b/a//b]//c",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := Parse(expr)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) produced invalid pattern: %v", expr, err)
		}
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) -> %q not reparsable: %v", expr, s, err)
		}
		if !p.StructuralEqual(p2) {
			t.Fatalf("round trip changed %q -> %q", expr, s)
		}
		if s2 := p2.String(); s2 != s {
			t.Fatalf("printing is not a fixed point: %q -> %q -> %q", expr, s, s2)
		}
		// Containment on self must hold, and the canonical document must
		// match.
		if !Contained(p, p) {
			t.Fatalf("self-containment failed for %q", s)
		}
		doc, outImg := p.CanonicalDocument()
		found := false
		for _, n := range p.Evaluate(doc) {
			if n == outImg {
				found = true
			}
		}
		if !found {
			t.Fatalf("%q does not match its canonical document", s)
		}
	})
}
