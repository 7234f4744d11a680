// Package plan compiles the output of the rewriting pipeline — a set
// of compensation queries, one per contained rewriting of the MCR —
// into an executable, immutable answer plan.
//
// The paper's mediator answers a query by running every CR's
// compensation query over the materialized view forest (E ∘ V,
// footnote 1 of §2). Evaluating each compensation naively against each
// view subtree repeats work proportional to |CRs| × |forest| × |E|.
// This package splits that into the classic three phases of the
// structural-join literature the paper cites (Al-Khalifa et al.,
// Bruno et al., and the tree-pattern survey):
//
//   - compile: each compensation query is normalized (root pinned, the
//     semantics of tpq's EvaluateAt), deduplicated by canonical form,
//     and lowered to a structural-join program over preorder
//     positions. Plans are pure functions of the CR union, so the
//     engine caches them by Key.
//   - index: the view forest is indexed once into inverted tag lists
//     with (pre, end) interval labels (see Forest) — shared by every
//     program and every request against the same materialization.
//   - exec: the programs run as structural joins against the index and
//     their answers are unioned with document-order dedup. This is the
//     one evaluation path; the per-tree dynamic program
//     (tpq.Prepared.EvaluateAt) is kept only as the tests' oracle.
//
// The package deliberately depends only on tpq and xmltree among the
// evaluation packages: rewrite, viewstore and engine all sit above it.
package plan

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"qav/internal/obs"
	"qav/internal/tpq"
)

// op is one lowered pattern node: its tag, the axis of the edge to its
// parent, whether it lies on the distinguished path, and the preorder
// positions of its predicate children (every child but the one on the
// path). The positions replace pointer chasing in the exec inner loops.
type op struct {
	tag    string
	axis   tpq.Axis
	onPath bool
	preds  []int32
}

// program is one compiled compensation query.
type program struct {
	// canon is the canonical form of the normalized pattern — the
	// dedup and cache-key unit.
	canon string
	// ops lists the pattern nodes in preorder; ops[0] is the root.
	ops []op
	// path holds the preorder positions of the distinguished path,
	// root first, output last.
	path []int32
}

// Plan is an immutable compiled answer plan: one program per distinct
// compensation query of the CR union. Safe for concurrent use; the
// engine shares one plan across requests via its plan cache.
type Plan struct {
	key      string
	programs []*program
}

// Key returns the plan's cache key: the sorted canonical forms of its
// normalized compensation queries. Two CR sets with the same
// compensations — regardless of order or duplication — share a key and
// therefore a cached plan.
func (p *Plan) Key() string { return p.key }

// Programs returns the number of distinct compiled programs.
func (p *Plan) Programs() int { return len(p.programs) }

// normalize clones comp into the standalone pinned form the programs
// are lowered from: the root axis becomes Child, and over a standalone
// tree a Child root is exactly "pinned to the tree root", the semantics
// of EvaluateAt.
func normalize(comp *tpq.Pattern) (*tpq.Pattern, error) {
	if comp == nil || comp.Root == nil {
		return nil, fmt.Errorf("plan: nil compensation pattern")
	}
	if err := comp.Validate(); err != nil {
		return nil, fmt.Errorf("plan: invalid compensation: %w", err)
	}
	pinned := tpq.SubtreePattern(comp.Root, tpq.Child, comp.Output)
	if pinned.Output == nil {
		return nil, fmt.Errorf("plan: compensation %s has no output node", comp)
	}
	return pinned, nil
}

// KeyOf computes the cache key Compile would give a plan for comps,
// without lowering the programs — what the engine's plan cache looks
// up before deciding to compile.
func KeyOf(comps []*tpq.Pattern) (string, error) {
	canons := make([]string, 0, len(comps))
	seen := make(map[string]bool, len(comps))
	for _, c := range comps {
		pinned, err := normalize(c)
		if err != nil {
			return "", err
		}
		canon := pinned.Canonical()
		if !seen[canon] {
			seen[canon] = true
			canons = append(canons, canon)
		}
	}
	sort.Strings(canons)
	return strings.Join(canons, "\x00"), nil
}

// Compile lowers the compensation queries into an executable plan.
// Duplicate compensations (distinct CRs frequently share one, e.g. the
// trivial compensation) compile to a single program. An empty comps
// set compiles to an empty plan whose Exec returns no answers.
func Compile(ctx context.Context, comps []*tpq.Pattern) (*Plan, error) {
	sp := obs.SpanFrom(ctx)
	start := sp.Start()
	defer sp.Observe(obs.StagePlanCompile, start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	byCanon := make(map[string]*program, len(comps))
	for _, c := range comps {
		pinned, err := normalize(c)
		if err != nil {
			return nil, err
		}
		canon := pinned.Canonical()
		if byCanon[canon] != nil {
			continue
		}
		byCanon[canon] = lower(canon, pinned)
	}
	pl := &Plan{programs: make([]*program, 0, len(byCanon))}
	canons := make([]string, 0, len(byCanon))
	for canon := range byCanon {
		canons = append(canons, canon)
	}
	sort.Strings(canons)
	for _, canon := range canons {
		pl.programs = append(pl.programs, byCanon[canon])
	}
	pl.key = strings.Join(canons, "\x00")
	return pl, nil
}

// lower turns a normalized pattern into its structural-join program.
func lower(canon string, pinned *tpq.Pattern) *program {
	nodes := pinned.PreorderNodes()
	pr := &program{canon: canon, ops: make([]op, len(nodes))}
	for _, n := range pinned.DistinguishedPath() {
		i := int32(pinned.Preorder(n))
		pr.path = append(pr.path, i)
		pr.ops[i].onPath = true
	}
	for i, n := range nodes {
		o := &pr.ops[i]
		o.tag, o.axis = n.Tag, n.Axis
		for _, c := range n.Children {
			if ci := int32(pinned.Preorder(c)); !pr.ops[ci].onPath {
				o.preds = append(o.preds, ci)
			}
		}
	}
	return pr
}
