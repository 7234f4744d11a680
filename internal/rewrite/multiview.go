package rewrite

import (
	"context"
	"fmt"
	"sort"

	"qav/internal/obs"
	"qav/internal/plan"
	"qav/internal/tpq"
	"qav/internal/xmltree"
)

// ViewSource pairs a named view with the document it is materialized
// over (in a real deployment, the source behind it).
type ViewSource struct {
	Name string
	View *tpq.Pattern
}

// MultiViewResult is the maximal contained rewriting of a query over a
// SET of views: per-view contributions, globally deduplicated and made
// irredundant. This is the information-integration setting of Halevy's
// survey (the paper's [13]): each source exposes one view, and the
// mediator unions the best sound answers obtainable from each.
type MultiViewResult struct {
	// Union is the global MCR: the irredundant union of every view's
	// contained rewritings.
	Union *tpq.Union
	// Contributions maps positions in Union.Patterns to the index of
	// the view whose compensation produces that disjunct.
	Contributions []int
	// CRs aligns with Union.Patterns.
	CRs []*ContainedRewriting
	// PerView records, per view, the number of structurally distinct
	// rewritings the view produced BEFORE global redundancy elimination
	// (views whose CRs are all subsumed contribute 0 to Union but keep
	// their local count here). The batch pipeline skips the per-view
	// elimination pass — globally eliminating once is equivalent — so
	// unlike the frozen MCRMultiViewRef baseline these counts are not
	// per-view MCR sizes.
	PerView []int
	// Labeled is the number of views that passed the candidate filter
	// and paid the full O(|Q|·|V|²) labeling pass; the remaining
	// len(PerView)-Labeled views were classified in O(1) and at most
	// synthesized the trivial CR.
	Labeled int
	// Partial reports that a view's enumeration stopped at the
	// embedding budget or the context deadline, or that the deadline
	// stopped the views not yet started or the global redundancy
	// elimination: the union is sound (every disjunct verified
	// contained), deduplicated and ordered, but possibly non-maximal
	// and not irredundant, as for Result. PartialReason carries the
	// first view's reason in view order, else "deadline".
	Partial       bool
	PartialReason PartialReason
}

// viewCRs is one view's slot in the batch pipeline output.
type viewCRs struct {
	crs     []*ContainedRewriting
	partial PartialReason
	err     error
}

// MCRMultiView computes the maximal contained rewriting of q using all
// the views together: the union of the per-view MCRs with redundancy
// eliminated across views. A view subsumed by a more informative view
// contributes nothing.
//
// The implementation is a batch pipeline built to scale to catalogs of
// 10⁴–10⁶ views (the frozen flat-scan baseline, MCRMultiViewRef, pays
// a full labeling pass per view):
//
//   - the query-side labeling metadata (QuerySide) is computed ONCE and
//     shared by every view;
//   - each view is classified in O(1) by the necessary root condition
//     (QuerySide.NonemptyPossible — the same condition the viewstore
//     signature index evaluates as a root-tag partition probe plus
//     tag-bitmap scan): views that fail it admit no nonempty useful
//     embedding, so for a '/'-rooted query they contribute nothing at
//     all, and for a '//'-rooted query exactly the trivial CR (the
//     whole query grafted below the view output), which is synthesized
//     directly without labeling;
//   - each surviving candidate runs generateCRs, MCR's loop, on the
//     bounded worker loop (forEach), reusing the shared query side and
//     honoring the per-view embedding budget and the context's
//     deadline, and keeps its first CR of each canonical form; a panic
//     in any view fails the call;
//   - redundancy elimination runs once, globally (assemble) —
//     equivalent to the baseline's per-view-then-global elimination
//     because containment is transitive and markRedundant's criterion
//     is order-independent.
//
// The result's Union, Contributions and CRs are identical to
// MCRMultiViewRef's (pinned by differential tests); only the PerView
// counts differ in semantics, as documented on MultiViewResult.
func MCRMultiView(q *tpq.Pattern, views []ViewSource, opts Options) (*MultiViewResult, error) {
	limit := opts.MaxEmbeddings
	if limit <= 0 {
		limit = DefaultMaxEmbeddings
	}
	ctx := opts.ctx()
	sp := obs.SpanFrom(ctx)

	// Shared query-side metadata: one pass, reused by every candidate.
	t := sp.Start()
	wildcardQ := q.HasWildcard()
	var qs *QuerySide
	emptyOK := false
	if !wildcardQ {
		qs = NewQuerySide(q, nil)
		emptyOK = qs.EmptyAllowed()
	}
	sp.Observe(obs.StageBatchChase, t)

	// O(1)-per-view candidate classification.
	t = sp.Start()
	cand := make([]bool, len(views))
	labeled := 0
	if !wildcardQ {
		for i, vs := range views {
			if !vs.View.HasWildcard() && qs.NonemptyPossible(vs.View) {
				cand[i] = true
				labeled++
			}
		}
	}
	sp.Observe(obs.StageCatalogPrune, t)

	// Per-view generation across the bounded worker loop. Each slot is
	// written by the one worker that claims its view; views are serial
	// internally, so the per-view CR order is the serial enumeration
	// order and the assembly below is deterministic.
	slots := make([]viewCRs, len(views))
	generate := func(i int, s *viewCRs) error {
		v := views[i].View
		if wildcardQ || v.HasWildcard() {
			return errWildcard
		}
		if err := faultWorker.Hit(ctx); err != nil {
			return err
		}
		if !cand[i] {
			if !emptyOK {
				return nil // no nonempty embedding possible, no trivial CR
			}
			// Trivial CR only: synthesized directly, no labeling pass.
			cr, err := newCRGen(ctx, q, v, nil).next(&Embedding{Q: q, V: v})
			if err == nil {
				s.crs = []*ContainedRewriting{cr}
			}
			return err
		}
		tl := sp.Start()
		labels := qs.LabelsFor(v)
		sp.Observe(obs.StageBatchChase, tl)
		crs, _, err := generateCRs(labels, newCRGen(ctx, q, v, nil), limit)
		s.crs = dedupCRs(crs)
		return err
	}
	err := forEach(ctx, len(views), 2, "rewrite.multiViewWorker", func(i int) error {
		s := &slots[i]
		// A budget or deadline overrun keeps the view's sound prefix:
		// every collected CR is verified contained in q.
		if err := generate(i, s); err != nil {
			if s.partial = partialReason(err); s.partial == "" {
				s.crs, s.err = nil, err
			}
		}
		return nil
	})
	// A deadline stops the loop with the views claimed so far; the rest
	// contribute nothing and the result is Partial.
	stopped := partialReason(err)
	if err != nil && stopped == "" {
		return nil, err
	}

	// First failing view (in view order) wins, matching the flat scan.
	perView := make([]int, len(views))
	reason := PartialReason("")
	total := 0
	for i := range views {
		if err := slots[i].err; err != nil {
			return nil, fmt.Errorf("rewrite: view %q: %w", views[i].Name, err)
		}
		if reason == "" {
			reason = slots[i].partial
		}
		perView[i] = len(slots[i].crs)
		total += perView[i]
	}
	if reason == "" {
		reason = stopped
	}
	crs := make([]*ContainedRewriting, 0, total)
	from := make(map[*ContainedRewriting]int, total)
	for i := range views {
		for _, cr := range slots[i].crs {
			from[cr] = i
			crs = append(crs, cr)
		}
	}

	// Global assembly: dedup in (view, enumeration) order and one
	// redundancy-elimination pass across all views.
	res, err := assemble(ctx, crs, 0, tpq.Contained, reason)
	if err != nil {
		return nil, err
	}
	out := &MultiViewResult{
		Union:         res.Union,
		Contributions: make([]int, len(res.CRs)),
		CRs:           res.CRs,
		PerView:       perView,
		Labeled:       labeled,
		Partial:       res.Partial,
		PartialReason: res.PartialReason,
	}
	for k, cr := range res.CRs {
		out.Contributions[k] = from[cr]
	}
	return out, nil
}

// AnswerMultiView answers the query against a document through the
// views only: the kept CRs' compensations are grouped by contributing
// view, each group compiles to one answer plan (internal/plan), and
// each plan executes over its own view's materialization. The answers
// are unioned with cross-view dedup and returned in document order —
// independent of both CR enumeration order and view order. The context
// is polled throughout compilation, indexing and execution, so a
// cancelled ctx aborts a large multi-source answering run promptly.
func (r *MultiViewResult) AnswerMultiView(ctx context.Context, views []ViewSource, d *xmltree.Document) ([]*xmltree.Node, error) {
	byView := make(map[int][]*tpq.Pattern)
	var order []int
	for i, cr := range r.CRs {
		vi := r.Contributions[i]
		if _, ok := byView[vi]; !ok {
			order = append(order, vi)
		}
		byView[vi] = append(byView[vi], cr.Compensation)
	}
	seen := make(map[*xmltree.Node]bool)
	var out []*xmltree.Node
	for _, vi := range order {
		pl, err := plan.Compile(ctx, byView[vi])
		if err != nil {
			return nil, err
		}
		f, err := plan.IndexSubtrees(ctx, d, views[vi].View.Evaluate(d))
		if err != nil {
			return nil, err
		}
		res, err := pl.Exec(ctx, f, plan.ExecOptions{})
		if err != nil {
			return nil, err
		}
		for _, n := range res.Nodes() {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, nil
}
