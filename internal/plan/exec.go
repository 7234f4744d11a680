package plan

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/names"
	"qav/internal/obs"
	"qav/internal/stream"
	"qav/internal/tpq"
	"qav/internal/xmltree"
)

// faultExec fires at the top of every plan execution (no-op unless a
// chaos plan arms it; see internal/fault).
var faultExec = fault.Register(names.FaultPlanExec)

// Backend selects the evaluation strategy of one program.
type Backend int

const (
	// Auto runs StructJoin: its linear merges cost O(Σ|lists|) ≤
	// O(|E|·|F|), the per-tree DP's work, and measured faster than
	// both other backends on dense and sparse tags alike (EXPERIMENTS.md
	// E19).
	Auto Backend = iota
	// StructJoin merges the forest's sorted tag lists bottom-up, then
	// walks the distinguished path top-down — work proportional to the
	// candidate lists, not the forest.
	StructJoin
	// TreeDP runs the compiled tpq dynamic program per tree — work
	// |E| × |forest| with small constants.
	TreeDP
	// Stream replays each tree through the SAX evaluator — the
	// bounded-memory evaluator, O(depth · |E|) resident per tree.
	Stream
)

var backendNames = [...]string{"auto", "structjoin", "treedp", "stream"}

func (b Backend) String() string {
	if b < 0 || int(b) >= len(backendNames) {
		return "unknown"
	}
	return backendNames[b]
}

// ParseBackend parses a backend name as accepted by CLI flags and the
// HTTP API ("auto", "structjoin", "treedp", "stream").
func ParseBackend(s string) (Backend, error) {
	for i, n := range backendNames {
		if s == n {
			return Backend(i), nil
		}
	}
	return Auto, fmt.Errorf("plan: unknown backend %q", s)
}

// ExecOptions tune one plan execution.
type ExecOptions struct {
	// Backend forces one backend for every program; Auto runs the
	// structural joins.
	Backend Backend
	// Parallel bounds the number of programs executing concurrently;
	// <= 0 means GOMAXPROCS.
	Parallel int
}

// Match is one answer: the node and the forest tree it was found in.
// For a shared-document forest the same node can match under several
// windows; Exec reports it once, under the first window in tree order.
type Match struct {
	Tree int
	Node *xmltree.Node
}

// ExecResult is the outcome of one plan execution.
type ExecResult struct {
	// Matches holds the deduplicated answer union in document order:
	// global preorder for a shared-document forest, (tree, preorder)
	// for a shipped forest.
	Matches []Match
	// Backends records the backend each program ran with, parallel to
	// the plan's programs.
	Backends []Backend
}

// Nodes flattens the matches to their nodes, preserving order.
func (r *ExecResult) Nodes() []*xmltree.Node {
	if r == nil || len(r.Matches) == 0 {
		return nil
	}
	out := make([]*xmltree.Node, len(r.Matches))
	for i, m := range r.Matches {
		out[i] = m.Node
	}
	return out
}

// Exec runs every program of the plan against the forest and returns
// the deduplicated answer union in document order. Programs run
// concurrently up to ExecOptions.Parallel, each behind panic isolation
// (a panic in one program fails the request with a typed ErrInternal,
// not the process). The context is polled throughout; a cancelled ctx
// aborts with its error.
func (p *Plan) Exec(ctx context.Context, f *Forest, opts ExecOptions) (*ExecResult, error) {
	sp := obs.SpanFrom(ctx)
	start := sp.Start()
	defer sp.Observe(obs.StagePlanExec, start)
	if err := faultExec.Hit(ctx); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	backend := opts.Backend
	if backend == Auto {
		backend = StructJoin
	}
	backends := make([]Backend, len(p.programs))
	for i := range backends {
		backends[i] = backend
	}
	per := make([][]int32, len(p.programs))
	scratches := make([]*scratch, len(p.programs))
	errs := make([]error, len(p.programs))
	if par := parallelism(opts.Parallel, len(p.programs)); par <= 1 {
		for i, pr := range p.programs {
			per[i], scratches[i], errs[i] = runProgram(ctx, pr, f, backend)
			if errs[i] != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, par)
		for i, pr := range p.programs {
			if err := ctx.Err(); err != nil {
				break
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, pr *program) {
				defer wg.Done()
				defer func() { <-sem }()
				// A panic in a worker must become this program's error,
				// never a process crash: indices are disjoint, so the
				// write needs no lock.
				defer guard.Rescue("plan.exec", func(err error) { errs[i] = err })
				per[i], scratches[i], errs[i] = runProgram(ctx, pr, f, backend)
			}(i, pr)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &ExecResult{Matches: f.matches(f.union(per)), Backends: backends}
	for _, sc := range scratches {
		if sc != nil {
			f.putScratch(sc)
		}
	}
	return res, nil
}

func parallelism(requested, programs int) int {
	par := requested
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > programs {
		par = programs
	}
	return par
}

// runProgram returns the program's answer positions, ascending, with
// the scratch they may alias (nil for the DP and streaming backends),
// which the caller pools again once it is done with the positions. A
// panicking run returns nothing, so its scratch is never reused.
func runProgram(ctx context.Context, pr *program, f *Forest, b Backend) ([]int32, *scratch, error) {
	switch b {
	case TreeDP:
		pos, err := runTreeDP(ctx, pr, f)
		return pos, nil, err
	case Stream:
		pos, err := runStream(ctx, pr, f)
		return pos, nil, err
	default:
		sc := f.getScratch()
		pos, err := joinForest(ctx, pr, f, true, sc)
		return pos, sc, err
	}
}

// runTreeDP evaluates the program by pinning the compiled pattern to
// each tree root in turn — the naive per-tree strategy, compiled once.
// Its answers come back in window order, which maps onto positions by
// their preorder offset from the tree root.
func runTreeDP(ctx context.Context, pr *program, f *Forest) ([]int32, error) {
	var out []int32
	for ti, t := range f.trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		base, off := f.roots[ti], t.Root.Index
		for _, n := range pr.prep.EvaluateAt(t.Doc, t.Root) {
			out = append(out, base+int32(n.Index-off))
		}
	}
	return out, nil
}

// runStream replays each tree through the SAX evaluator. The answers
// come back as preorder positions within the walked subtree, which are
// offsets from the tree's root position.
func runStream(ctx context.Context, pr *program, f *Forest) ([]int32, error) {
	var out []int32
	for ti, t := range f.trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		answers, err := stream.EvaluateNode(ctx, t.Root, pr.comp)
		if err != nil {
			return nil, err
		}
		for _, a := range answers {
			out = append(out, f.roots[ti]+int32(a.Index))
		}
	}
	return out, nil
}

// joinForest is the structural-join backend: bottom-up semi-joins over
// the sorted position lists compute, per pattern node, the positions
// whose subtree embeds the pattern subtree; a top-down pass along the
// distinguished path then selects the output positions. pinRoot
// restricts the root candidates to the tree roots (the compensation
// pinning); the general entry point (EvaluateIndexed) passes the
// pattern's own root axis semantics instead. Every join is one linear
// merge of its two lists. A join only ever narrows a pattern node's
// candidates, so each node owns an arena region as long as its initial
// list and is filtered there in place; the result aliases sc's arena
// and is valid until sc goes back to the pool.
func joinForest(ctx context.Context, pr *program, f *Forest, pinRoot bool, sc *scratch) ([]int32, error) {
	n := len(pr.ops)
	lists := slices.Grow(sc.lists[:0], n)[:n]
	owned := slices.Grow(sc.owned[:0], n)[:n]
	need := 0
	for i, o := range pr.ops {
		if i == 0 && pinRoot {
			lists[i] = f.rootList(o.tag)
		} else {
			lists[i] = f.list(o.tag)
		}
		need += len(lists[i])
	}
	if cap(sc.arena) < need {
		sc.arena = make([]int32, need)
	}
	off := 0
	for i, l := range lists {
		owned[i] = sc.arena[off : off+len(l) : off+len(l)]
		off += len(l)
	}
	sc.lists, sc.owned = lists, owned
	for i := n - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, c := range pr.ops[i].children {
			if len(lists[i]) == 0 {
				break
			}
			lists[i] = f.semiJoin(sc.bits, lists[i], lists[c], pr.ops[c].axis, owned[i])
		}
	}
	cur := lists[0]
	for _, pos := range pr.path[1:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur = f.downJoin(sc.bits, cur, lists[pos], pr.ops[pos].axis, owned[pos])
	}
	return cur, nil
}

// EvaluateIndexed evaluates a general (not root-pinned) pattern over
// the forest with structural joins, honoring the pattern's root axis: a
// Child root must match a tree root, a Descendant root may match
// anywhere. Over an IndexDocument forest it is the structural-join
// alternative to tpq's Pattern.Evaluate.
func EvaluateIndexed(ctx context.Context, f *Forest, p *tpq.Pattern) ([]*xmltree.Node, error) {
	if p == nil || p.Root == nil {
		return nil, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pr := lower("", tpq.SubtreePattern(p.Root, p.Root.Axis, p.Output))
	sc := f.getScratch()
	pos, err := joinForest(ctx, pr, f, pr.ops[0].axis == tpq.Child, sc)
	if err != nil {
		return nil, err
	}
	res := &ExecResult{Matches: f.matches(f.union([][]int32{pos}))}
	f.putScratch(sc)
	return res.Nodes(), nil
}

// subset narrows src one keep decision at a time into dst, the arena
// region src's pattern node owns. It shares src itself until the first
// element is dropped, so a join that filters nothing copies nothing,
// and a src already in dst is filtered in place.
type subset struct {
	src, dst []int32
	n        int
	cut      bool
}

func (s *subset) keep(i int, ok bool) {
	if ok {
		if s.cut {
			s.dst[s.n] = s.src[i]
			s.n++
		}
		return
	}
	if !s.cut {
		s.cut = true
		if &s.src[0] != &s.dst[0] {
			copy(s.dst, s.src[:i])
		}
		s.n = i
	}
}

func (s *subset) list() []int32 {
	if s.cut {
		return s.dst[:s.n]
	}
	return s.src
}

func setBit(bits []uint64, p int32)      { bits[p>>6] |= 1 << uint(p&63) }
func hasBit(bits []uint64, p int32) bool { return bits[p>>6]&(1<<uint(p&63)) != 0 }

// semiJoin keeps the positions ∈ upper that have a witness in lower via
// the given axis: a child whose parent they are, or a descendant in
// their interval (u, end[u]]. Both lists ascend; so does the output,
// which is upper itself or lies in dst. bits is zero on entry and on
// return.
func (f *Forest) semiJoin(bits []uint64, upper, lower []int32, axis tpq.Axis, dst []int32) []int32 {
	if len(lower) == 0 {
		return nil
	}
	s := subset{src: upper, dst: dst}
	switch axis {
	case tpq.Child:
		for _, l := range lower {
			if p := f.parent[l]; p >= 0 {
				setBit(bits, p)
			}
		}
		for i, u := range upper {
			s.keep(i, hasBit(bits, u))
		}
		for _, l := range lower {
			if p := f.parent[l]; p >= 0 {
				bits[p>>6] = 0
			}
		}
	case tpq.Descendant:
		// The first lower position after u is u's witness iff it lies
		// inside u's interval; u ascends, so the cursor only moves on.
		j := 0
		for i, u := range upper {
			for j < len(lower) && lower[j] <= u {
				j++
			}
			s.keep(i, j < len(lower) && lower[j] <= f.end[u])
		}
	}
	return s.list()
}

// downJoin keeps the positions ∈ lower whose parent (Child) or some
// ancestor (Descendant) is in upper. Both lists ascend; so does the
// output, which is lower itself or lies in dst. bits is zero on entry
// and on return.
func (f *Forest) downJoin(bits []uint64, upper, lower []int32, axis tpq.Axis, dst []int32) []int32 {
	if len(upper) == 0 || len(lower) == 0 {
		return nil
	}
	s := subset{src: lower, dst: dst}
	switch axis {
	case tpq.Child:
		for _, u := range upper {
			setBit(bits, u)
		}
		for i, l := range lower {
			p := f.parent[l]
			s.keep(i, p >= 0 && hasBit(bits, p))
		}
		for _, u := range upper {
			bits[u>>6] = 0
		}
	case tpq.Descendant:
		// l has an ancestor in upper iff some u < l has end[u] ≥ l, so
		// a running maximum of end over the upper positions below l
		// decides it. Intervals never span trees, so neither can a
		// match.
		i, maxEnd := 0, int32(-1)
		for k, l := range lower {
			for i < len(upper) && upper[i] < l {
				if e := f.end[upper[i]]; e > maxEnd {
					maxEnd = e
				}
				i++
			}
			s.keep(k, maxEnd >= l)
		}
	}
	return s.list()
}

// union merges the per-program answer positions with document-order
// dedup. In a shipped forest a position is a node, so the union is the
// ascending distinct positions — a single program's list as is. In a
// shared forest one node can hold a position in several windows; the
// union orders by global preorder and keeps each node once, at its
// first window.
func (f *Forest) union(per [][]int32) []int32 {
	var only []int32
	lists, total := 0, 0
	for _, ps := range per {
		if len(ps) > 0 {
			only = ps
			lists++
			total += len(ps)
		}
	}
	if total == 0 {
		return nil
	}
	if !f.shared {
		if lists == 1 {
			return only
		}
		all := make([]int32, 0, total)
		for _, ps := range per {
			all = append(all, ps...)
		}
		slices.Sort(all)
		return slices.Compact(all)
	}
	// Key each position by (global preorder, position): positions of
	// one node ascend with the window, so the first of a run of equal
	// preorders is the node's first window.
	keys := make([]uint64, 0, total)
	for _, ps := range per {
		for _, p := range ps {
			keys = append(keys, uint64(f.nodes[p].Index)<<32|uint64(p))
		}
	}
	slices.Sort(keys)
	out := make([]int32, 0, len(keys))
	for i, k := range keys {
		if i == 0 || k>>32 != keys[i-1]>>32 {
			out = append(out, int32(uint32(k)))
		}
	}
	return out
}

// matches resolves answer positions to their trees and nodes.
func (f *Forest) matches(pos []int32) []Match {
	if len(pos) == 0 {
		return nil
	}
	out := make([]Match, len(pos))
	for i, p := range pos {
		out[i] = Match{Tree: int(f.tree[p]), Node: f.nodes[p]}
	}
	return out
}
