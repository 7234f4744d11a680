package rewrite

import (
	"context"
	"sort"

	"qav/internal/xmltree"
)

// This file freezes the pre-plan naive answer evaluators. They are the
// reference semantics the compiled answer plans (internal/plan) are
// differentially tested against (plan_diff_test.go) and the baseline
// the answering benchmark reports speedups over. Do not "optimize"
// them: their value is being obviously correct and independent of the
// plan code paths.

// NaiveAnswerMaterialized answers through a materialized view forest
// the way the pre-plan implementation did: each CR's compensation is
// pinned to each view node in turn via the tpq dynamic program, with
// map dedup and a document-order sort at the end. The context is
// polled once per (rewriting, view node) pair.
func NaiveAnswerMaterialized(ctx context.Context, crs []*ContainedRewriting, d *xmltree.Document, viewNodes []*xmltree.Node) ([]*xmltree.Node, error) {
	seen := make(map[*xmltree.Node]bool)
	for _, cr := range crs {
		comp := cr.Compensation.Prepare()
		for _, vn := range viewNodes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, n := range comp.EvaluateAt(d, vn) {
				seen[n] = true
			}
		}
	}
	return sortedByIndex(seen), nil
}

// NaiveAnswerForest is the reference evaluator for shipped forests
// (the viewstore layout, one standalone document per view answer):
// per-CR, per-tree pinned evaluation, deduplicated by node and ordered
// by (tree, preorder) — the ordering contract of the plan layer's
// stored-view answers. The context is polled once per (rewriting,
// tree) pair.
func NaiveAnswerForest(ctx context.Context, crs []*ContainedRewriting, forest []*xmltree.Document) ([]*xmltree.Node, error) {
	type hit struct {
		tree int
		node *xmltree.Node
	}
	seen := make(map[*xmltree.Node]bool)
	var out []hit
	for _, cr := range crs {
		comp := cr.Compensation.Prepare()
		for ti, tree := range forest {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, n := range comp.EvaluateAt(tree, tree.Root) {
				if !seen[n] {
					seen[n] = true
					out = append(out, hit{tree: ti, node: n})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].tree != out[j].tree {
			return out[i].tree < out[j].tree
		}
		return out[i].node.Index < out[j].node.Index
	})
	nodes := make([]*xmltree.Node, len(out))
	for i, h := range out {
		nodes[i] = h.node
	}
	return nodes, nil
}

// sortedByIndex flattens an answer set into document order.
func sortedByIndex(seen map[*xmltree.Node]bool) []*xmltree.Node {
	out := make([]*xmltree.Node, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
