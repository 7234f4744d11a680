package plan

import (
	"context"
	"fmt"
	"runtime"
	"sort"
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
	// Auto picks per program and forest: structural joins when the
	// candidate lists are selective, the per-tree dynamic program
	// otherwise, and the streaming evaluator when the DP's bitmaps
	// would not fit the resident budget.
	Auto Backend = iota
	// StructJoin joins the forest's inverted tag lists bottom-up, then
	// walks the distinguished path top-down — work proportional to the
	// candidate lists, not the forest.
	StructJoin
	// TreeDP runs the compiled tpq dynamic program per tree — work
	// |E| × |forest| with small constants.
	TreeDP
	// Stream replays each tree through the SAX evaluator — the
	// bounded-memory fallback, O(depth · |E|) resident per tree.
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

// dpCellBudget bounds the |E| × |tree| boolean matrices of the TreeDP
// backend; beyond it Auto degrades to the streaming evaluator, whose
// residency is O(depth · |E|) regardless of tree size.
const dpCellBudget = 1 << 26

// ExecOptions tune one plan execution.
type ExecOptions struct {
	// Backend forces one backend for every program; Auto selects per
	// program using the forest's statistics.
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
	backends := make([]Backend, len(p.programs))
	for i, pr := range p.programs {
		backends[i] = chooseBackend(pr, f, opts.Backend)
	}
	per := make([][]Match, len(p.programs))
	errs := make([]error, len(p.programs))
	if par := parallelism(opts.Parallel, len(p.programs)); par <= 1 {
		for i, pr := range p.programs {
			per[i], errs[i] = runProgram(ctx, pr, f, backends[i])
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
				per[i], errs[i] = runProgram(ctx, pr, f, backends[i])
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
	return &ExecResult{Matches: mergeMatches(f, per), Backends: backends}, nil
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

// chooseBackend implements the selection heuristic (see the DESIGN.md
// "Answer plans" section): structural joins when the candidate lists
// are selective — their total length below |E|·|F|/8 — since join work
// is proportional to the lists; otherwise the per-tree DP, whose
// |E|·|F| scan has better constants on dense tags; and the streaming
// evaluator when the DP's per-tree bitmaps would exceed dpCellBudget.
func chooseBackend(pr *program, f *Forest, forced Backend) Backend {
	if forced != Auto {
		return forced
	}
	sum := 0
	for _, o := range pr.ops {
		sum += f.cardinalityFor(o.tag)
	}
	if sum*8 <= len(pr.ops)*f.size {
		return StructJoin
	}
	if len(pr.ops)*f.maxTree > dpCellBudget {
		return Stream
	}
	return TreeDP
}

func runProgram(ctx context.Context, pr *program, f *Forest, b Backend) ([]Match, error) {
	switch b {
	case TreeDP:
		return runTreeDP(ctx, pr, f)
	case Stream:
		return runStream(ctx, pr, f)
	default:
		return joinForest(ctx, pr, f, true)
	}
}

// runTreeDP evaluates the program by pinning the compiled pattern to
// each tree root in turn — the naive per-tree strategy, compiled once.
func runTreeDP(ctx context.Context, pr *program, f *Forest) ([]Match, error) {
	var out []Match
	for ti, t := range f.trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, n := range pr.prep.EvaluateAt(t.Doc, t.Root) {
			out = append(out, Match{Tree: ti, Node: n})
		}
	}
	return out, nil
}

// runStream replays each tree through the SAX evaluator. The answers
// come back as preorder positions within the walked subtree, which map
// straight onto the tree's window.
func runStream(ctx context.Context, pr *program, f *Forest) ([]Match, error) {
	var out []Match
	for ti, t := range f.trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		answers, err := stream.EvaluateNode(ctx, t.Root, pr.comp)
		if err != nil {
			return nil, err
		}
		window := t.Doc.Window(t.Root)
		for _, a := range answers {
			out = append(out, Match{Tree: ti, Node: window[a.Index]})
		}
	}
	return out, nil
}

// joinForest is the structural-join backend: bottom-up semi-joins over
// the inverted lists compute, per pattern node, the forest items whose
// subtree embeds the pattern subtree; a top-down pass along the
// distinguished path then selects the output items. pinRoot restricts
// the root candidates to the tree roots (the compensation pinning); the
// general entry point (EvaluateIndexed) passes the pattern's own root
// axis semantics instead.
func joinForest(ctx context.Context, pr *program, f *Forest, pinRoot bool) ([]Match, error) {
	lists := make([][]item, len(pr.ops))
	for i := len(pr.ops) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var cand []item
		if i == 0 && pinRoot {
			cand = f.rootItems(pr.ops[0].tag)
		} else {
			cand = f.itemsFor(pr.ops[i].tag)
		}
		for _, c := range pr.ops[i].children {
			if len(cand) == 0 {
				break
			}
			cand = semiJoinItems(cand, lists[c], pr.ops[c].axis)
		}
		lists[i] = cand
	}
	cur := lists[0]
	for _, pos := range pr.path[1:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur = downJoinItems(cur, lists[pos], pr.ops[pos].axis)
	}
	out := make([]Match, 0, len(cur))
	for _, it := range cur {
		out = append(out, Match{Tree: int(it.tree), Node: it.node})
	}
	return out, nil
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
	var matches []Match
	var err error
	if pr.ops[0].axis == tpq.Child {
		matches, err = joinForest(ctx, pr, f, true)
	} else {
		matches, err = joinForest(ctx, pr, f, false)
	}
	if err != nil {
		return nil, err
	}
	res := &ExecResult{Matches: mergeMatches(f, [][]Match{matches})}
	return res.Nodes(), nil
}

// semiJoinItems keeps the items ∈ upper that have a same-tree witness
// in lower via the given axis. Both lists are in packed-key order;
// output preserves order.
func semiJoinItems(upper, lower []item, axis tpq.Axis) []item {
	if len(lower) == 0 {
		return nil
	}
	var out []item
	switch axis {
	case tpq.Child:
		// Witness iff some lower item's parent is the upper item:
		// binary-search the sorted packed keys of the parents. A lower
		// node whose parent lies outside its window packs to a key
		// below the window, which no upper item carries.
		parents := parentKeys(lower)
		for _, it := range upper {
			if containsKey(parents, it.key()) {
				out = append(out, it)
			}
		}
	case tpq.Descendant:
		// Witness iff some same-tree lower item lies inside
		// (Index, end]: binary search the first lower item after it.
		for _, it := range upper {
			j := sort.Search(len(lower), func(i int) bool {
				return lower[i].key() > it.key()
			})
			if j < len(lower) && lower[j].tree == it.tree && it.node.IsAncestorOf(lower[j].node) {
				out = append(out, it)
			}
		}
	}
	return out
}

// downJoinItems keeps the items ∈ lower that have a same-tree parent
// (Child) or ancestor (Descendant) in upper. Both lists are in
// packed-key order.
func downJoinItems(upper, lower []item, axis tpq.Axis) []item {
	if len(upper) == 0 || len(lower) == 0 {
		return nil
	}
	var out []item
	switch axis {
	case tpq.Child:
		ups := make([]uint64, len(upper))
		for i, it := range upper {
			ups[i] = it.key()
		}
		for _, m := range lower {
			if m.node.Parent != nil && containsKey(ups, packKey(m.tree, m.node.Parent.Index)) {
				out = append(out, m)
			}
		}
	case tpq.Descendant:
		// Merge the upper intervals (Index, end] into disjoint covered
		// key ranges. Intervals of one tree nest or are disjoint, so
		// they collapse; ranges are never merged across trees, the
		// tree id in the high bits notwithstanding.
		type span struct{ lo, hi uint64 }
		spans := make([]span, 0, len(upper))
		for _, it := range upper { // already key-sorted
			end := it.node.SubtreeEnd()
			if end <= it.node.Index {
				continue
			}
			s := span{packKey(it.tree, it.node.Index+1), packKey(it.tree, end)}
			if len(spans) > 0 {
				prev := &spans[len(spans)-1]
				if s.lo>>32 == prev.hi>>32 && s.lo <= prev.hi+1 {
					if s.hi > prev.hi {
						prev.hi = s.hi
					}
					continue
				}
			}
			spans = append(spans, s)
		}
		for _, m := range lower {
			k := m.key()
			j := sort.Search(len(spans), func(i int) bool {
				return spans[i].hi >= k
			})
			if j < len(spans) && spans[j].lo <= k {
				out = append(out, m)
			}
		}
	}
	return out
}

// parentKeys returns the sorted distinct packed keys of the items'
// parents (within the same tree).
func parentKeys(items []item) []uint64 {
	out := make([]uint64, 0, len(items))
	for _, it := range items {
		if it.node.Parent != nil {
			out = append(out, packKey(it.tree, it.node.Parent.Index))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// containsKey reports membership in a sorted key slice.
func containsKey(sorted []uint64, k uint64) bool {
	i := sort.Search(len(sorted), func(j int) bool { return sorted[j] >= k })
	return i < len(sorted) && sorted[i] == k
}

// mergeMatches unions the per-program matches with document-order
// dedup: global preorder for a shared-document forest (where one node
// may match under several windows and across programs), (tree,
// preorder) order for a shipped forest.
func mergeMatches(f *Forest, per [][]Match) []Match {
	total := 0
	for _, ms := range per {
		total += len(ms)
	}
	if total == 0 {
		return nil
	}
	all := make([]Match, 0, total)
	for _, ms := range per {
		all = append(all, ms...)
	}
	if f.shared {
		sort.Slice(all, func(i, j int) bool {
			if all[i].Node.Index != all[j].Node.Index {
				return all[i].Node.Index < all[j].Node.Index
			}
			return all[i].Tree < all[j].Tree
		})
	} else {
		sort.Slice(all, func(i, j int) bool {
			ki := packKey(int32(all[i].Tree), all[i].Node.Index)
			kj := packKey(int32(all[j].Tree), all[j].Node.Index)
			return ki < kj
		})
	}
	seen := make(map[*xmltree.Node]bool, len(all))
	out := all[:0]
	for _, m := range all {
		if !seen[m.Node] {
			seen[m.Node] = true
			out = append(out, m)
		}
	}
	return out
}
