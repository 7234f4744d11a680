package rewrite

import (
	"context"
	"fmt"
	"time"

	"qav/internal/guard"
	"qav/internal/obs"
	"qav/internal/tpq"
)

// ContainedRewriting is one contained rewriting (CR) of a query using a
// view: the rewriting query R ≡ E ∘ V together with the compensation
// query E (the clip-away tree grafted onto the view output) that is
// applied to the materialized view at answering time.
type ContainedRewriting struct {
	// Rewriting is R = E ∘ V, a pattern over the base documents.
	Rewriting *tpq.Pattern
	// Compensation is E, a pattern rooted at a node carrying the view
	// output's tag; it is evaluated with its root pinned to each node of
	// the materialized view result.
	Compensation *tpq.Pattern
	// Embedding is the useful embedding the CR was induced by.
	Embedding *Embedding

	// dVc is the clone of the view output inside Rewriting, kept so the
	// compensation can be extracted lazily (see ensureCompensation).
	dVc *tpq.Node
}

// ensureCompensation fills Compensation for a CR built by
// buildUnchecked. assemble calls it on the CRs it keeps, so CRs
// dropped as duplicates, as redundant or by the schema's
// satisfiability filter never pay for the extraction; every CR that
// reaches a Result or a MultiViewResult carries its compensation.
func (cr *ContainedRewriting) ensureCompensation() {
	if cr.Compensation == nil && cr.dVc != nil {
		cr.Compensation = extractCompensation(cr.Rewriting, cr.dVc)
	}
}

// BuildCR materializes the contained rewriting induced by a useful
// embedding f against the view base (normally f.V; for the schema case,
// the CAT computed against the chased view is composed with the
// original view, per the paper's Example 3).
//
// Construction (paper §3.1, Fig 4): clone the base view; for every
// unmapped child y of a terminal node, graft a copy of y's subtree
// under the clone of the view output dV, preserving y's edge type; for
// the empty embedding the whole query is grafted. The rewriting's
// output is the dV clone if f maps the query output, else the grafted
// copy of the query output.
func BuildCR(f *Embedding, base *tpq.Pattern) (*ContainedRewriting, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	cr, err := buildUnchecked(f, base)
	if err != nil {
		return nil, err
	}
	cr.ensureCompensation()
	return cr, nil
}

// extractCompensation copies the subtree of R rooted at the dV clone
// into a standalone pattern E. R's output is inside that subtree by
// construction. The copy is indexed on construction — compensations are
// shared read-only with answer evaluation — and its root axis is '//'
// because the compensation root is a context node.
func extractCompensation(r *tpq.Pattern, dVc *tpq.Node) *tpq.Pattern {
	return tpq.SubtreePattern(dVc, tpq.Descendant, r.Output)
}

// VerifyContained reports whether the CR's rewriting is contained in
// the query — the soundness guarantee every CR must satisfy. MCR
// generation calls this as a safety net; it holds by construction for
// useful embeddings.
func (cr *ContainedRewriting) VerifyContained(q *tpq.Pattern) bool {
	return tpq.Contained(cr.Rewriting, q)
}

// crGen turns the useful embeddings of one enumeration into
// verified contained rewritings, one per embedding domain.
//
// The CR induced by f (§3.1, buildUnchecked) is the base view with a
// copy of every unmapped child of f's terminal nodes grafted under dV,
// and dV or the grafted copy of the query output as its output. Which
// children are unmapped, which nodes are terminal and whether the
// output is mapped all depend only on f's domain — the set of query
// nodes f maps — never on where f maps them. Embeddings sharing a
// domain therefore induce the identical rewriting, and only the first
// of each domain in enumeration order is built and verified. That first
// one is also the embedding the structural dedup of assemble would have
// kept, so the kept CRs and their representative embeddings are those
// of building every embedding.
//
// fresh holds the per-enumeration domain set, so a crGen serves one
// enumeration on one goroutine.
type crGen struct {
	ctx     context.Context
	sp      *obs.Span
	q, base *tpq.Pattern
	// sc, when set, makes verification schema-relative (MCRRecursive
	// and the recursion-free schema pipeline).
	sc *SchemaContext

	domains map[string]struct{}
	key     []byte // reused domain bitset over query positions

	// generateCRs' output: the CRs built, the embeddings emitted
	// (repeated domains included) and the time spent in build.
	crs        []*ContainedRewriting
	considered int
	inBuild    time.Duration
}

func newCRGen(ctx context.Context, q, base *tpq.Pattern, sc *SchemaContext) *crGen {
	return &crGen{ctx: ctx, sp: obs.SpanFrom(ctx), q: q, base: base, sc: sc}
}

// fresh validates f (Definition 1, as BuildCR does) and reports whether
// f is the first embedding of its domain in this enumeration. The
// domain key is a bitset over query preorder positions, whatever the
// query's size.
func (g *crGen) fresh(f *Embedding) (first bool, err error) {
	defer guard.Recover(&err, "rewrite.validate")
	if err := f.Validate(); err != nil {
		return false, fmt.Errorf("rewrite: embedding %s: %w", f, err)
	}
	n := (len(f.Q.PreorderNodes()) + 7) / 8
	if cap(g.key) < n {
		g.key = make([]byte, n)
	}
	key := g.key[:n]
	clear(key)
	for x := range f.M {
		i := f.Q.Preorder(x)
		key[i>>3] |= 1 << (i & 7)
	}
	if _, dup := g.domains[string(key)]; dup {
		return false, nil
	}
	if g.domains == nil {
		g.domains = make(map[string]struct{})
	}
	g.domains[string(key)] = struct{}{}
	return true, nil
}

// build materializes the CR induced by the validated embedding f,
// without extracting its compensation, and verifies it: contained in
// the query by homomorphism, or under a schema satisfiable (Theorem
// 7(ii); an unsatisfiable CR is dropped, (nil, nil)) and S-contained
// (Theorem 6). A CR failing containment is an internal error: useful
// embeddings induce contained rewritings by construction. build is
// panic-isolated: a pattern tripping an invariant fails its request,
// not the process (the named-return defer converts the panic into a
// typed ErrInternal with its stack, which the engine routes into the
// slow log).
func (g *crGen) build(f *Embedding) (cr *ContainedRewriting, err error) {
	defer guard.Recover(&err, "rewrite.buildCR")
	if err := faultBuildCR.Hit(g.ctx); err != nil {
		return nil, err
	}
	t := g.sp.Start()
	cr, err = buildUnchecked(f, g.base)
	g.sp.Observe(obs.StageBuildCR, t)
	if err != nil {
		return nil, fmt.Errorf("rewrite: embedding %s: %w", f, err)
	}
	t = g.sp.Start()
	keep, contained := true, false
	if g.sc == nil {
		contained = cr.VerifyContained(g.q)
	} else if keep = g.sc.Schema.Satisfiable(cr.Rewriting); keep {
		contained = g.sc.SContained(cr.Rewriting, g.q)
	}
	g.sp.Observe(obs.StageContain, t)
	if !keep {
		return nil, nil
	}
	if !contained {
		return nil, fmt.Errorf("rewrite: internal error: CR %s not contained in %s (embedding %s)", cr.Rewriting, g.q, f)
	}
	return cr, nil
}

// next is fresh then build: the verified CR of f's domain when f is its
// first embedding, nil for a repeated domain or a dropped CR.
func (g *crGen) next(f *Embedding) (*ContainedRewriting, error) {
	first, err := g.fresh(f)
	if err != nil || !first {
		return nil, err
	}
	return g.build(f)
}
