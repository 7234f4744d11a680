package rewrite

import (
	"testing"

	"qav/internal/tpq"
)

// FuzzRewriteRoundTrip drives MCR generation with fuzzer-chosen
// query/view expressions and checks the structural contracts of every
// contained rewriting it emits: the rewriting and compensation
// patterns are valid, survive a print/parse round trip, and each
// rewriting is contained in the query (the soundness half of
// Theorem 1 — an MCR may drop answers, never invent them).
func FuzzRewriteRoundTrip(f *testing.F) {
	seeds := [][2]string{
		{"//Trials[//Status]//Trial", "//Trials//Trial"}, // Figure 1
		{"//a//a/b/c[d1][//a/b/c/d2]", "//a//a/b/c"},     // Figure 8
		{"//a//b[c]", "//a//b"},                          // Figure 9 core
		{"/a/b", "//b"},
		{"//a/b", "/a"},
		{"//a[b][c]//d", "//a//d"},
		{"//a", "//b"}, // unanswerable
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, qExpr, vExpr string) {
		q, err := tpq.Parse(qExpr)
		if err != nil {
			return
		}
		v, err := tpq.Parse(vExpr)
		if err != nil {
			return
		}
		res, err := MCR(q, v, Options{MaxEmbeddings: 64})
		if err != nil {
			return // budget exhausted on an adversarial input is fine
		}
		if len(res.CRs) != len(res.Union.Patterns) {
			t.Fatalf("q=%s v=%s: %d CRs but %d union patterns", q, v, len(res.CRs), len(res.Union.Patterns))
		}
		for i, cr := range res.CRs {
			for _, p := range []*tpq.Pattern{cr.Rewriting, cr.Compensation} {
				if err := p.Validate(); err != nil {
					t.Fatalf("q=%s v=%s CR %d: invalid pattern %s: %v", q, v, i, p, err)
				}
				s := p.String()
				p2, err := tpq.Parse(s)
				if err != nil {
					t.Fatalf("q=%s v=%s CR %d: %q not reparsable: %v", q, v, i, s, err)
				}
				if !p.StructuralEqual(p2) {
					t.Fatalf("q=%s v=%s CR %d: round trip changed %q", q, v, i, s)
				}
			}
			if !tpq.Contained(cr.Rewriting, q) {
				t.Fatalf("q=%s v=%s CR %d: rewriting %s not contained in the query", q, v, i, cr.Rewriting)
			}
			if cr.Compensation.Root.Tag != v.Output.Tag {
				t.Fatalf("q=%s v=%s CR %d: compensation rooted at %q, view output is %q",
					q, v, i, cr.Compensation.Root.Tag, v.Output.Tag)
			}
		}
	})
}

// FuzzMCRMatchesReference differentially checks MCR against
// referenceMCR — the frozen map-based enumerator and one CR built per
// embedding — at an embedding budget of 64, so budget-Partial results
// are compared too: the same union in the same order, the same
// EmbeddingsConsidered, and the same kept CRs with the same
// representative embeddings and compensations.
func FuzzMCRMatchesReference(f *testing.F) {
	seeds := [][2]string{
		{"//Trials[//Status]//Trial", "//Trials//Trial"},
		{"//a//a/b/c[d1][//a/b/c/d2]", "//a//a/b/c"},
		{"//a//a/b/c[d1][d2][d3][d4][d5][d6][d7]", "//a//a/b/c"}, // Figure 8 past the budget
		{"//a//b[c]", "//a//b"},
		{"//a[//b]//b//c[a]", "//a//b"},
		{"/a[b]//c//b[//a]", "/a//c"},
		{"//b[a//c]//a//c", "//b//a"},
		{"//a", "//b"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, qExpr, vExpr string) {
		q, err := tpq.Parse(qExpr)
		if err != nil {
			return
		}
		v, err := tpq.Parse(vExpr)
		if err != nil || q.HasWildcard() || v.HasWildcard() {
			return
		}
		const limit = 64
		got, err := MCR(q, v, Options{MaxEmbeddings: limit})
		if err != nil {
			t.Fatalf("q=%s v=%s: MCR: %v", q, v, err)
		}
		want, err := referenceMCR(q, v, limit)
		if err != nil {
			t.Fatalf("q=%s v=%s: reference: %v", q, v, err)
		}
		if got.Partial != want.Partial || got.PartialReason != want.PartialReason {
			t.Fatalf("q=%s v=%s: partial %v %q, reference %v %q", q, v, got.Partial, got.PartialReason, want.Partial, want.PartialReason)
		}
		if got.EmbeddingsConsidered != want.EmbeddingsConsidered {
			t.Fatalf("q=%s v=%s: EmbeddingsConsidered %d, reference %d", q, v, got.EmbeddingsConsidered, want.EmbeddingsConsidered)
		}
		if got.Union.String() != want.Union.String() {
			t.Fatalf("q=%s v=%s: union %s, reference %s", q, v, got.Union, want.Union)
		}
		if diff := sameCRs(got, want); diff != "" {
			t.Fatalf("q=%s v=%s: %s", q, v, diff)
		}
	})
}
