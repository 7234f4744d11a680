// Package chase implements the paper's chase procedure (§4.3): rewriting
// a tree pattern view with the constraints implied by a schema so that
// schema-relative containment reduces to plain containment (Theorem 6),
// and the goal-directed "intelligent chase" (Lemma 4) that keeps the
// chased view polynomial by only introducing tags the query mentions.
package chase

import (
	"context"
	"fmt"

	"qav/internal/constraints"
	"qav/internal/fault"
	"qav/internal/names"
	"qav/internal/tpq"
)

// faultStep fires once per fixpoint round of the exhaustive chase
// (no-op unless a chaos plan arms it; see internal/fault).
var faultStep = fault.Register(names.FaultChaseStep)

// Options configures Exhaustive.
type Options struct {
	// MaxSteps bounds the number of rule applications; 0 means a
	// generous default. Exhaustive chase is exponential on DAG schemas
	// (Fig 12) and may diverge on recursive ones, so the bound turns
	// runaway chases into errors.
	MaxSteps int
}

// Exhaustive applies the five chase rules until fixpoint and returns the
// chased pattern (the input is not modified). It fails if MaxSteps rule
// applications do not reach a fixpoint. The fixpoint loop polls ctx, so
// a cancelled context aborts a diverging or exponential chase promptly
// with the context's error.
func Exhaustive(ctx context.Context, v *tpq.Pattern, sigma *constraints.Set, opt Options) (*tpq.Pattern, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	maxSteps := opt.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 100000
	}
	out, _ := v.Clone()
	steps := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := faultStep.Hit(ctx); err != nil {
			return nil, err
		}
		changed := false
		for _, apply := range []func(*tpq.Pattern, *constraints.Set) int{
			applyPC, applyFC, applySC, applyIC, applyCC,
		} {
			n := apply(out, sigma)
			steps += n
			if n > 0 {
				changed = true
			}
			if steps > maxSteps {
				return nil, fmt.Errorf("chase: no fixpoint after %d steps (recursive schema or pathological constraint set)", steps)
			}
		}
		if !changed {
			return out, nil
		}
	}
}

// Intelligent performs the goal-directed chase of Lemma 4: it applies
// the cheap edge rules (PC, FC) exhaustively, but introduces new nodes
// only for tags that occur in the query q and not (yet) in the view.
// Because the inferred constraint set is transitively closed, any tag
// that the full chase could introduce is introduced here by a single
// constraint application (Lemma 4), so the loop runs at most |q - v|
// times and the result grows by at most |q| nodes: total time
// O(|Q-V| · |V|²).
//
//qavlint:ignore ctxpoll the fixpoint loops are bounded: each round either introduces a query tag absent from the view (at most |q| rounds, Lemma 4) or merges/contracts nodes, so no ctx is threaded through the SContained call chain
func Intelligent(v, q *tpq.Pattern, sigma *constraints.Set) *tpq.Pattern {
	out, _ := v.Clone()
	applyPC(out, sigma)
	applyFC(out, sigma)

	// Tags the query needs. The loop below applies their constraints in
	// query preorder, one node per tag (filtered in place in the fresh
	// slice Nodes returns), never in a map's order.
	want := make(map[string]bool)
	nodes := q.Nodes()
	wanted := nodes[:0]
	for _, n := range nodes {
		if !want[n.Tag] {
			want[n.Tag] = true
			wanted = append(wanted, n)
		}
	}
	for {
		have := make(map[string]bool)
		for _, n := range out.Nodes() {
			have[n.Tag] = true
		}
		added := 0
		for _, w := range wanted {
			if have[w.Tag] {
				continue
			}
			for _, c := range sigma.Introducing(w.Tag) {
				n := applyOne(out, c)
				added += n
				if n > 0 {
					break
				}
			}
		}
		if added == 0 {
			break
		}
		applyPC(out, sigma)
		applyFC(out, sigma)
	}
	// A final pass of the node-adding rules restricted to wanted tags,
	// so that every *occurrence* the query can use is materialized (the
	// loop above stops as soon as each tag exists somewhere; embeddings
	// may need it under several parents, cf. Fig 14's two bids nodes).
	for {
		n := applyRestricted(out, sigma, want)
		applyPC(out, sigma)
		applyFC(out, sigma)
		if n == 0 {
			break
		}
	}
	return out
}

// applyOne applies a single constraint at the first applicable place,
// returning the number of applications (0 or 1).
func applyOne(p *tpq.Pattern, c constraints.Constraint) int {
	switch c.Kind {
	case constraints.SC:
		return applySCAt(p, c, true)
	case constraints.CC:
		return applyCCAt(p, c, true)
	case constraints.IC:
		return applyICAt(p, c, true)
	default:
		// FC and PC are not node-adding rules; the exhaustive chase
		// applies them separately (applyFC/applyPC) because they edit
		// edges in place rather than introducing tags.
		return 0
	}
}

// applyRestricted runs the node-adding rules (SC, CC, IC) everywhere,
// but only for constraints whose introduced tag is in want.
func applyRestricted(p *tpq.Pattern, sigma *constraints.Set, want map[string]bool) int {
	total := 0
	for _, c := range sigma.OfKind(constraints.SC) {
		if want[c.C] {
			total += applySCAt(p, c, false)
		}
	}
	for _, c := range sigma.OfKind(constraints.IC) {
		if want[c.C] {
			total += applyICAt(p, c, false)
		}
	}
	for _, c := range sigma.OfKind(constraints.CC) {
		if want[c.C] {
			total += applyCCAt(p, c, false)
		}
	}
	return total
}

// ---- individual chase rules ----

// applyPC converts ad-edges to pc-edges wherever a PC constraint a ⇓1 b
// applies. Returns the number of conversions.
func applyPC(p *tpq.Pattern, sigma *constraints.Set) int {
	count := 0
	for _, n := range p.Nodes() {
		for _, c := range n.Children {
			if c.Axis != tpq.Descendant {
				continue
			}
			if sigma.Has(constraints.Constraint{Kind: constraints.PC, A: n.Tag, B: c.Tag}) {
				c.SetAxis(tpq.Child)
				count++
			}
		}
	}
	return count
}

// applyFC merges duplicate pc-children wherever an FC constraint a → b
// applies. Returns the number of merges.
func applyFC(p *tpq.Pattern, sigma *constraints.Set) int {
	count := 0
	for {
		merged := false
		for _, n := range p.Nodes() {
			byTag := make(map[string]*tpq.Node)
			for i := 0; i < len(n.Children); i++ {
				c := n.Children[i]
				if c.Axis != tpq.Child {
					continue
				}
				first, ok := byTag[c.Tag]
				if !ok {
					byTag[c.Tag] = c
					continue
				}
				if !sigma.Has(constraints.Constraint{Kind: constraints.FC, A: n.Tag, B: c.Tag}) {
					continue
				}
				// Merge c into first: move children, fix output marker,
				// remove c from n.
				first.AdoptChildren(c)
				if p.Output == c {
					p.SetOutput(first)
				}
				n.RemoveChildAt(i)
				i--
				count++
				merged = true
			}
		}
		if !merged {
			return count
		}
	}
}

func applySC(p *tpq.Pattern, sigma *constraints.Set) int {
	total := 0
	for _, c := range sigma.OfKind(constraints.SC) {
		total += applySCAt(p, c, false)
	}
	return total
}

// applySCAt adds the pc-child required by an SC constraint at every
// applicable node (or just the first, if once is set).
func applySCAt(p *tpq.Pattern, c constraints.Constraint, once bool) int {
	count := 0
	for _, n := range p.Nodes() {
		if n.Tag != c.A {
			continue
		}
		if c.B != "" && !hasChildTag(n, c.B, tpq.Child) {
			continue
		}
		if hasChildTag(n, c.C, tpq.Child) {
			continue
		}
		n.AddChild(tpq.Child, c.C)
		count++
		if once {
			return count
		}
	}
	return count
}

func applyCC(p *tpq.Pattern, sigma *constraints.Set) int {
	total := 0
	for _, c := range sigma.OfKind(constraints.CC) {
		total += applyCCAt(p, c, false)
	}
	return total
}

// applyCCAt adds the ad-child required by a CC constraint. The premise
// "b-descendant" is checked against the whole subtree of the a node (a
// sound strengthening of the paper's edge-local rule: a pc- or deeper
// descendant tagged b also guarantees a b descendant in every match).
// Symmetrically, the conclusion counts as already present if a c node
// occurs ANYWHERE in the subtree — every subtree node maps to a
// descendant, and a direct-child-only check would let CC re-fire
// forever after IC splits the edge it just added.
func applyCCAt(p *tpq.Pattern, c constraints.Constraint, once bool) int {
	count := 0
	for _, n := range p.Nodes() {
		if n.Tag != c.A {
			continue
		}
		if c.B != "" && !hasDescendantTag(n, c.B) {
			continue
		}
		if hasDescendantTag(n, c.C) {
			continue
		}
		n.AddChild(tpq.Descendant, c.C)
		count++
		if once {
			return count
		}
	}
	return count
}

func applyIC(p *tpq.Pattern, sigma *constraints.Set) int {
	total := 0
	for _, c := range sigma.OfKind(constraints.IC) {
		total += applyICAt(p, c, false)
	}
	return total
}

// applyICAt splits ad-edges a⇝b into a⇝c⇝b wherever an IC constraint
// a -c-> b applies.
func applyICAt(p *tpq.Pattern, c constraints.Constraint, once bool) int {
	count := 0
	for _, n := range p.Nodes() {
		for i, ch := range n.Children {
			if ch.Axis != tpq.Descendant || n.Tag != c.A || ch.Tag != c.B {
				continue
			}
			n.SpliceAbove(i, tpq.Descendant, c.C)
			count++
			if once {
				return count
			}
		}
	}
	return count
}

func hasChildTag(n *tpq.Node, tag string, axis tpq.Axis) bool {
	for _, c := range n.Children {
		if c.Tag == tag && c.Axis == axis {
			return true
		}
	}
	return false
}

func hasDescendantTag(n *tpq.Node, tag string) bool {
	var walk func(*tpq.Node) bool
	walk = func(x *tpq.Node) bool {
		for _, c := range x.Children {
			if c.Tag == tag || walk(c) {
				return true
			}
		}
		return false
	}
	return walk(n)
}
