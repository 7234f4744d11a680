package rewrite

import (
	"context"

	"qav/internal/plan"
	"qav/internal/tpq"
	"qav/internal/xmltree"
)

// MaterializeView evaluates the view over the document and returns the
// view result: the document nodes whose subtrees constitute the
// materialized view (Figure 1(b) of the paper shows such a forest).
func MaterializeView(v *tpq.Pattern, d *xmltree.Document) []*xmltree.Node {
	return v.Evaluate(d)
}

// Compensations extracts the compensation queries of the contained
// rewritings — the input the plan compiler consumes.
func Compensations(crs []*ContainedRewriting) []*tpq.Pattern {
	out := make([]*tpq.Pattern, 0, len(crs))
	for _, cr := range crs {
		out = append(out, cr.Compensation)
	}
	return out
}

// AnswerUsingView answers a query through its contained rewritings:
// the view is materialized once and each CR's compensation query is
// applied to the view forest (E ∘ V evaluated as the paper prescribes,
// footnote 1 of §2). The result equals evaluating the union of the
// rewritings directly, without ever running the query itself. Answers
// come back deduplicated across CRs, in document order.
func AnswerUsingView(ctx context.Context, crs []*ContainedRewriting, v *tpq.Pattern, d *xmltree.Document) ([]*xmltree.Node, error) {
	return AnswerMaterialized(ctx, crs, d, MaterializeView(v, d))
}

// AnswerMaterialized answers through an already-materialized view
// forest by compiling the CRs' compensation queries into an answer
// plan (internal/plan) and executing it over the indexed view windows:
// only the compensation queries run, in time proportional to the
// compensation candidate lists within the view subtrees — the source
// of the paper's reported savings when the view is selective. Answers
// are deduplicated across CRs and returned in document order,
// independent of CR enumeration order. The context is polled
// throughout compilation, indexing and execution.
func AnswerMaterialized(ctx context.Context, crs []*ContainedRewriting, d *xmltree.Document, viewNodes []*xmltree.Node) ([]*xmltree.Node, error) {
	pl, err := plan.Compile(ctx, Compensations(crs))
	if err != nil {
		return nil, err
	}
	f, err := plan.IndexSubtrees(ctx, d, viewNodes)
	if err != nil {
		return nil, err
	}
	res, err := pl.Exec(ctx, f, plan.ExecOptions{})
	if err != nil {
		return nil, err
	}
	return res.Nodes(), nil
}
