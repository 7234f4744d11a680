package rewrite

import (
	"context"
	"fmt"

	"qav/internal/chase"
	"qav/internal/constraints"
	"qav/internal/obs"
	"qav/internal/schema"
	"qav/internal/tpq"
)

// SchemaContext bundles a schema with its inferred constraint set. Use
// NewSchemaContext once and reuse it across rewritings: inference is
// O(|S|³) (Theorem 5) and independent of queries.
type SchemaContext struct {
	Schema *schema.Graph
	Sigma  *constraints.Set
}

// NewSchemaContext infers all SC, FC, CC, PC and IC constraints implied
// by the schema.
func NewSchemaContext(g *schema.Graph) *SchemaContext {
	return &SchemaContext{Schema: g, Sigma: constraints.Infer(g)}
}

// SContained decides schema-relative containment p ⊆_S q using the
// chase (Theorem 6): p ⊆_S q iff Chase_Σ(p) ⊆ q, with the chase
// conducted intelligently against q's tags (Lemma 4 guarantees this
// introduces every tag that matters for the homomorphism test).
func (sc *SchemaContext) SContained(p, q *tpq.Pattern) bool {
	chased := chase.Intelligent(p, q, sc.Sigma)
	return tpq.Contained(chased, q)
}

// SEquivalent reports p ≡_S q.
func (sc *SchemaContext) SEquivalent(p, q *tpq.Pattern) bool {
	return sc.SContained(p, q) && sc.SContained(q, p)
}

// graftCut returns the Definition 2 cut check for a view output tag:
// the clipped subtree must be realizable below dV in instances of the
// schema — the graft edge and every edge inside the subtree must be
// supported by the schema graph.
func (sc *SchemaContext) graftCut(dVTag string) CutCheck {
	g := sc.Schema
	var subtreeOK func(n *tpq.Node) bool
	subtreeOK = func(n *tpq.Node) bool {
		for _, c := range n.Children {
			switch c.Axis {
			case tpq.Child:
				if _, ok := g.EdgeBetween(n.Tag, c.Tag); !ok {
					return false
				}
			case tpq.Descendant:
				if !g.Reachable(n.Tag, c.Tag) {
					return false
				}
			}
			if !subtreeOK(c) {
				return false
			}
		}
		return true
	}
	return func(y *tpq.Node) bool {
		switch y.Axis {
		case tpq.Child:
			if _, ok := g.EdgeBetween(dVTag, y.Tag); !ok {
				return false
			}
		case tpq.Descendant:
			if !g.Reachable(dVTag, y.Tag) {
				return false
			}
		}
		return subtreeOK(y)
	}
}

// AnswerableWithSchema reports whether q is answerable using v in the
// presence of the schema (Theorem 7): a useful embedding into the
// intelligently chased view exists whose induced rewriting is
// satisfiable w.r.t. the schema. Runs in polynomial time (Theorem 9).
func (sc *SchemaContext) AnswerableWithSchema(q, v *tpq.Pattern) bool {
	cr, err := sc.mcrSingle(context.Background(), q, v)
	return err == nil && cr != nil
}

// MCRWithSchema computes the maximal contained rewriting of q using v
// under a schema without recursion or union types (Algorithm
// MCRGenSchema, Fig 13). By Theorems 8 and 9 the MCR, when it exists,
// is a single tree pattern; the result union carries zero or one CR.
// For recursive schemas use MCRRecursive.
func (sc *SchemaContext) MCRWithSchema(q, v *tpq.Pattern) (*Result, error) {
	return sc.MCRWithSchemaCtx(context.Background(), q, v)
}

// MCRWithSchemaCtx is MCRWithSchema with a context carrying stage
// instrumentation (obs.WithSpan). The recursion-free pipeline is
// polynomial, so the context is not consulted for cancellation — only
// for its span.
func (sc *SchemaContext) MCRWithSchemaCtx(ctx context.Context, q, v *tpq.Pattern) (*Result, error) {
	if sc.Schema.IsRecursive() {
		return nil, fmt.Errorf("rewrite: schema is recursive; use MCRRecursive")
	}
	cr, err := sc.mcrSingle(ctx, q, v)
	if err != nil {
		return nil, err
	}
	if cr == nil {
		return &Result{Union: &tpq.Union{}}, nil
	}
	return assemble(ctx, []*ContainedRewriting{cr}, 1, sc.SContained, "")
}

// mcrSingle runs the efficient single-embedding pipeline shared by the
// existence test and MCR generation: chase the view, compute labels,
// extract one maximal useful embedding greedily, build the CR against
// the ORIGINAL view (the compensation runs on real materialized data;
// schema-guaranteed nodes need not be re-checked, per Example 3), and
// validate satisfiability and schema-relative containment. Returns
// (nil, nil) when no MCR exists. The CR carries no compensation yet.
func (sc *SchemaContext) mcrSingle(ctx context.Context, q, v *tpq.Pattern) (*ContainedRewriting, error) {
	if q.HasWildcard() || v.HasWildcard() {
		return nil, errWildcard
	}
	if !sc.Schema.Satisfiable(v) || !sc.Schema.Satisfiable(q) {
		// A view or query that can never produce answers on legal
		// instances admits no rewriting with a non-empty instance.
		return nil, nil
	}
	sp := obs.SpanFrom(ctx)
	t := sp.Start()
	vPrime := chase.Intelligent(v, q, sc.Sigma)
	sp.Observe(obs.StageChase, t)
	t = sp.Start()
	labels := ComputeLabels(q, vPrime, sc.graftCut(vPrime.Output.Tag))
	f := labels.greedyMaximal()
	sp.Observe(obs.StageEnumerate, t)
	if f == nil {
		return nil, nil
	}
	// An unsatisfiable CR (Theorem 7(ii): the rewriting must totally
	// embed into the schema graph) comes back nil: no MCR exists.
	return newCRGen(ctx, q, v, sc).next(f)
}

// greedyMaximal extracts one useful embedding that maps a node whenever
// the labeling allows it, cutting only when forced. By Theorem 8 every
// admissible embedding clips the same node set, so any maximal one
// induces the (unique) schema-case CR.
func (l *Labeling) greedyMaximal() *Embedding {
	// cur holds each query position's image position (-1: unmapped).
	cur := make([]int32, len(l.qn))
	for i := range cur {
		cur[i] = -1
	}
	var assign func(i int) bool
	assign = func(i int) bool {
		j := int(cur[i])
		for yi := i + 1; yi < int(l.qEnd[i]); yi = int(l.qEnd[yi]) {
			mapped := false
			for _, c := range l.candidates(yi, j) {
				if l.okAt(yi, int(c)) {
					cur[yi] = c
					if assign(yi) {
						mapped = true
						break
					}
					for k := yi; k < int(l.qEnd[yi]); k++ {
						cur[k] = -1
					}
				}
			}
			if mapped {
				continue
			}
			if !l.cutAllowed(yi, j) {
				return false
			}
		}
		return true
	}
	for j := range l.vn {
		if !l.okAt(0, j) {
			continue
		}
		cur[0] = int32(j)
		if assign(0) {
			m := make(map[*tpq.Node]*tpq.Node)
			for i, c := range cur {
				if c >= 0 {
					m[l.qn[i]] = l.vn[c]
				}
			}
			return &Embedding{Q: l.Q, V: l.V, M: m}
		}
		for k := range cur {
			cur[k] = -1
		}
	}
	if l.emptyAllowed() {
		return &Embedding{Q: l.Q, V: l.V, M: nil}
	}
	return nil
}

// MCRRecursive computes the maximal contained rewriting under a
// possibly recursive schema (§5): unlike the recursion-free case the
// MCR may be a union of exponentially many CRs, so all useful
// embeddings into the chased view are enumerated (bounded by
// opts.MaxEmbeddings), their CRs filtered by schema satisfiability and
// schema-relative redundancy.
func (sc *SchemaContext) MCRRecursive(q, v *tpq.Pattern, opts Options) (*Result, error) {
	return mcr(q, v, sc, opts)
}
