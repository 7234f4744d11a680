package plan

import (
	"context"
	"slices"

	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/names"
	"qav/internal/obs"
	"qav/internal/tpq"
	"qav/internal/xmltree"
)

// faultExec fires at the top of every plan execution (no-op unless a
// chaos plan arms it; see internal/fault).
var faultExec = fault.Register(names.FaultPlanExec)

// ExecOptions tune one plan execution. It has no fields: programs run
// serially on the calling goroutine.
type ExecOptions struct{}

// ExecResult is the outcome of one plan execution.
type ExecResult struct {
	// Matches holds the deduplicated answer union as positions of
	// Forest, in document order: global preorder for a shared-document
	// forest, (tree, preorder) for a shipped forest. A node that
	// matches under several windows of a shared forest is reported
	// once, at its first window. The slice is the result's own.
	Matches []int32
	// Forest is the forest the positions index; Forest.Node and
	// Forest.PathID read an answer's node and path.
	Forest *Forest
}

// Nodes resolves the matches to their nodes, preserving order.
func (r *ExecResult) Nodes() []*xmltree.Node {
	if r == nil {
		return nil
	}
	return r.Forest.resolve(r.Matches)
}

// Exec runs the plan's programs one after another against the forest
// and returns the deduplicated answer union in document order. The
// whole run is panic-isolated: a panic fails the request with a typed
// ErrInternal named plan.exec, not the process, and the scratch of the
// run goes to the collector instead of back to the pool. The context
// is polled throughout; a cancelled ctx aborts with its error.
func (p *Plan) Exec(ctx context.Context, f *Forest, _ ExecOptions) (res *ExecResult, err error) {
	sp := obs.SpanFrom(ctx)
	start := sp.Start()
	defer sp.Observe(obs.StagePlanExec, start)
	defer guard.Recover(&err, "plan.exec")
	if err := faultExec.Hit(ctx); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	per := make([][]int32, len(p.programs))
	scratches := make([]*scratch, len(p.programs))
	for i, pr := range p.programs {
		scratches[i] = f.getScratch()
		if per[i], err = joinForest(ctx, pr, f, true, scratches[i]); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res = &ExecResult{Matches: f.union(per), Forest: f}
	for _, sc := range scratches {
		f.putScratch(sc)
	}
	return res, nil
}

// joinForest runs one program as structural joins. pinRoot restricts the root
// candidates to the tree roots (the compensation pinning); the general
// entry point (EvaluateIndexed) passes the pattern's own root axis
// semantics instead. The joins run path first:
//
//   - bottom-up, every node off the distinguished path is semi-joined
//     with its children, so its list holds the positions whose subtree
//     embeds its pattern subtree;
//   - top-down along the path, each path node's list is narrowed by a
//     downJoin from the node above it and only then semi-joined with
//     its predicate children (never with its path child: the downJoin
//     below checks that edge for the positions that still matter).
//
// A node's predicates join shortest list first, and every join
// seeks through its longer list where it can (see semiKind and
// downKind for the cost of each kind of join). A join only
// ever narrows a pattern node's candidates, so each node owns an arena
// region as long as its initial list and is filtered there in place;
// the result aliases sc's arena and is valid until sc goes back to the
// pool.
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
	for i := int32(n - 1); i >= 0; i-- {
		if pr.ops[i].onPath {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lists[i] = f.filter(sc, pr, lists[i], i, owned[i])
	}
	var cur []int32
	for k, pos := range pr.path {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if k == 0 {
			cur = lists[pos]
		} else {
			cur = f.downJoin(sc.bits, cur, lists[pos], pr.ops[pos].axis, owned[pos])
		}
		cur = f.filter(sc, pr, cur, pos, owned[pos])
	}
	return cur, nil
}

// filter semi-joins list, the candidates of pattern node i, with each
// of i's predicate children in turn, shortest child list first, so the
// most selective join narrows list before the others run over it.
func (f *Forest) filter(sc *scratch, pr *program, list []int32, i int32, dst []int32) []int32 {
	preds := pr.ops[i].preds
	if len(preds) == 0 || len(list) == 0 {
		return list
	}
	lists := sc.lists
	order := append(sc.order[:0], preds...)
	for a := 1; a < len(order); a++ {
		for b := a; b > 0 && len(lists[order[b]]) < len(lists[order[b-1]]); b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}
	sc.order = order
	for _, c := range order {
		if len(list) == 0 {
			break
		}
		list = f.semiJoin(sc.bits, list, lists[c], pr.ops[c].axis, dst)
	}
	return list
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
	out := f.resolve(f.union([][]int32{pos}))
	f.putScratch(sc)
	return out, nil
}

// subset narrows src into dst, the arena region src's pattern node
// owns, keeping elements in ascending index order and dropping every
// element skipped over. It shares src itself until the first element is
// dropped, so a join that filters nothing copies nothing, and a src
// already in dst is filtered in place: a kept element never moves up.
type subset struct {
	src, dst []int32
	next     int // the first src index neither kept nor dropped yet
	n        int // len(dst) once cut
	cut      bool
}

// keep keeps src[i] and drops src[next:i].
func (s *subset) keep(i int) {
	if i > s.next && !s.cut {
		s.split()
	}
	if s.cut {
		s.dst[s.n] = s.src[i]
		s.n++
	}
	s.next = i + 1
}

// keepRun keeps src[i:j] and drops src[next:i].
func (s *subset) keepRun(i, j int) {
	if i > s.next && !s.cut {
		s.split()
	}
	if s.cut {
		s.n += copy(s.dst[s.n:], s.src[i:j])
	}
	s.next = j
}

// split moves the kept prefix into dst at the first drop.
func (s *subset) split() {
	s.cut = true
	if &s.src[0] != &s.dst[0] {
		copy(s.dst, s.src[:s.next])
	}
	s.n = s.next
}

func (s *subset) list() []int32 {
	if s.cut {
		return s.dst[:s.n]
	}
	return s.src[:s.next]
}

func setBit(bits []uint64, p int32)      { bits[p>>6] |= 1 << uint(p&63) }
func hasBit(bits []uint64, p int32) bool { return bits[p>>6]&(1<<uint(p&63)) != 0 }

// seek returns the least index j ≥ i with list[j] ≥ key, or len(list);
// list ascends. A seek that passes d elements costs O(log d), so s
// ascending seeks through a list of n cost O(s · log(n/s)), and
// O(s + n) at worst.
func seek(list []int32, i int, key int32) int {
	if i < len(list) && list[i] < key {
		return gallop(list, i, key)
	}
	return i
}

// gallop is seek past list[i] < key: doubling steps until one reaches
// key, then a binary search inside the last step. It stays out of line
// so that seek, whose first probe mostly settles it, inlines.
//
//go:noinline
func gallop(list []int32, i int, key int32) int {
	lo, step, hi := i, 1, i+1
	for hi < len(list) && list[hi] < key {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	hi = min(hi, len(list))
	lo++ // list[lo-1] < key ≤ list[hi] (or hi == len)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if list[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// semiKind names how one semiJoin runs: by seeks through one list
// from each element of the other or, where a seek order would not yield
// ascending output or would revisit positions, by a linear pass. Each
// kind's cost is stated with it; no kind costs more than O(|upper| +
// |lower|), a linear merge.
type semiKind uint8

const (
	// semiDescSeek seeks lower past each u for the first position after
	// u, its witness iff it lies in u's interval, and skips the upper
	// positions nested in a u without one. It is always driven from
	// upper: O(v · log(|lower|/v)) for the v upper positions it visits,
	// which is every one with a witness, so up to |upper| even when
	// lower is the shorter list.
	semiDescSeek semiKind = iota
	// semiChildSeek seeks lower from each u and steps from child to
	// child, skipping each non-child's subtree (end[l]): upper is the
	// shorter list and its intervals do not nest, so no lower position
	// is stepped over twice. O(|upper| · log(|lower|/|upper|)) plus one
	// step per outermost non-child of lower passed in a u's interval.
	semiChildSeek
	// semiChildParents goes from each l up to its parent and gallops
	// upper to it: the parents of lower ascend and lower is the shorter
	// list or upper's intervals nest. O(|lower| · log(|upper|/|lower|)).
	semiChildParents
	// semiChildBits marks lower's parents in the bitset and keeps the
	// marked upper positions: the parents of lower do not ascend, and
	// lower is the shorter list or upper's intervals nest.
	// O(|upper| + |lower|).
	semiChildBits
)

// downKind names how one downJoin runs, as semiKind does for semiJoin.
type downKind uint8

const (
	// downDescRuns copies, for each outermost u, the run of lower inside
	// u's interval; nested upper intervals add nothing and are skipped.
	// upper is the shorter list: O(|upper| · log(|lower|/|upper|)) plus
	// the copy of the output.
	downDescRuns downKind = iota
	// downDescMerge walks both lists with a running maximum of end over
	// the upper positions passed: lower is the shorter list.
	// O(|upper| + |lower|).
	downDescMerge
	// downChildSeek walks each u's run of lower child to child, like
	// semiChildSeek: upper is the shorter list and its intervals do not
	// nest. O(|upper| · log(|lower|/|upper|)) plus one step per
	// outermost lower position in a u's interval.
	downChildSeek
	// downChildParents gallops upper to each l's parent: lower is the
	// shorter list and its parents ascend.
	// O(|lower| · log(|upper|/|lower|)).
	downChildParents
	// downChildBits marks upper in the bitset and keeps the lower
	// positions whose parent is marked: nested upper intervals or
	// parents that do not ascend would break a seek order.
	// O(|upper| + |lower|).
	downChildBits
)

// pickSemi picks how semiJoin runs. It reads only the inputs, before
// anything is written, because dst may alias upper. A child seek from
// nested upper intervals would step over the same lower positions once
// per enclosing u, so those go from lower's parents instead.
func (f *Forest) pickSemi(upper, lower []int32, axis tpq.Axis) semiKind {
	switch {
	case axis == tpq.Descendant:
		return semiDescSeek
	case len(upper) <= len(lower) && f.disjoint(upper):
		return semiChildSeek
	case f.parentsAscend(lower):
		return semiChildParents
	default:
		return semiChildBits
	}
}

// pickDown picks how downJoin runs, before anything is written, because
// dst may alias lower.
func (f *Forest) pickDown(upper, lower []int32, axis tpq.Axis) downKind {
	short := len(upper) <= len(lower)
	switch {
	case axis == tpq.Descendant && short:
		return downDescRuns
	case axis == tpq.Descendant:
		return downDescMerge
	case short && f.disjoint(upper):
		return downChildSeek
	case !short && f.parentsAscend(lower):
		return downChildParents
	default:
		return downChildBits
	}
}

// parentsAscend reports whether the parents of list's positions ascend
// (window roots have none and are passed over). Siblings share a
// parent; a position after a deeper one under a shallower parent, as in
// a recursive or ragged tag, breaks the order.
func (f *Forest) parentsAscend(list []int32) bool {
	prev := int32(-1)
	for _, l := range list {
		if p := f.parent[l]; p >= 0 {
			if p < prev {
				return false
			}
			prev = p
		}
	}
	return true
}

// disjoint reports whether no interval of list nests in another. Two
// intervals nest or are disjoint, so if any position lies in an earlier
// one's interval, so does that earlier one's successor in list.
func (f *Forest) disjoint(list []int32) bool {
	for k := 1; k < len(list); k++ {
		if list[k] <= f.end[list[k-1]] {
			return false
		}
	}
	return true
}

// semiJoin keeps the positions ∈ upper that have a witness in lower via
// the given axis: a child whose parent they are, or a descendant in
// their interval (u, end[u]]. Both lists ascend; so does the output,
// which is a prefix of upper or lies in dst. bits is zero on entry and
// on return.
func (f *Forest) semiJoin(bits []uint64, upper, lower []int32, axis tpq.Axis, dst []int32) []int32 {
	if len(lower) == 0 {
		return nil
	}
	return f.semiJoinAs(f.pickSemi(upper, lower, axis), bits, upper, lower, dst)
}

// semiJoinAs runs semiJoin as the given kind, which must be one
// pickSemi allows for the inputs.
func (f *Forest) semiJoinAs(kind semiKind, bits []uint64, upper, lower []int32, dst []int32) []int32 {
	s := subset{src: upper, dst: dst}
	switch kind {
	case semiDescSeek:
		for i, j := 0, 0; i < len(upper) && j < len(lower); {
			u, e := upper[i], f.end[upper[i]]
			if j = seek(lower, j, u+1); j < len(lower) && lower[j] <= e {
				s.keep(i)
				i++
			} else {
				// No witness for u, nor for the upper positions nested
				// in u: their intervals end by end[u].
				i = seek(upper, i+1, e+1)
			}
		}
	case semiChildSeek:
		for i, j := 0, 0; i < len(upper) && j < len(lower); i++ {
			u := upper[i]
			j = seek(lower, j, u+1)
			for a := j; a < len(lower) && lower[a] <= f.end[u]; {
				l := lower[a]
				if f.parent[l] == u {
					s.keep(i)
					break
				}
				a = seek(lower, a+1, f.end[l]+1)
			}
		}
	case semiChildParents:
		k := 0
		for _, l := range lower {
			p := f.parent[l]
			if p < 0 {
				continue
			}
			if k = seek(upper, k, p); k == len(upper) {
				break
			}
			if upper[k] == p {
				s.keep(k)
				k++
			}
		}
	case semiChildBits:
		for _, l := range lower {
			if p := f.parent[l]; p >= 0 {
				setBit(bits, p)
			}
		}
		for i, u := range upper {
			if hasBit(bits, u) {
				s.keep(i)
			}
		}
		for _, l := range lower {
			if p := f.parent[l]; p >= 0 {
				bits[p>>6] = 0
			}
		}
	}
	return s.list()
}

// downJoin keeps the positions ∈ lower whose parent (Child) or some
// ancestor (Descendant) is in upper. Both lists ascend; so does the
// output, which is a prefix of lower or lies in dst. bits is zero on
// entry and on return.
func (f *Forest) downJoin(bits []uint64, upper, lower []int32, axis tpq.Axis, dst []int32) []int32 {
	if len(upper) == 0 || len(lower) == 0 {
		return nil
	}
	return f.downJoinAs(f.pickDown(upper, lower, axis), bits, upper, lower, dst)
}

// downJoinAs runs downJoin as the given kind, which must be one
// pickDown allows for the inputs.
func (f *Forest) downJoinAs(kind downKind, bits []uint64, upper, lower []int32, dst []int32) []int32 {
	s := subset{src: lower, dst: dst}
	switch kind {
	case downDescRuns:
		for i, j := 0, 0; i < len(upper) && j < len(lower); {
			u, e := upper[i], f.end[upper[i]]
			a := seek(lower, j, u+1)
			j = seek(lower, a, e+1)
			s.keepRun(a, j)
			i = seek(upper, i+1, e+1)
		}
	case downDescMerge:
		// l has an ancestor in upper iff some u < l has end[u] ≥ l, so
		// a running maximum of end over the upper positions below l
		// decides it. Intervals never span trees, so neither can a
		// match.
		i, maxEnd := 0, int32(-1)
		for k, l := range lower {
			for i < len(upper) && upper[i] < l {
				maxEnd = max(maxEnd, f.end[upper[i]])
				i++
			}
			if maxEnd >= l {
				s.keep(k)
			}
		}
	case downChildSeek:
		for i, j := 0, 0; i < len(upper) && j < len(lower); i++ {
			u := upper[i]
			for j = seek(lower, j, u+1); j < len(lower) && lower[j] <= f.end[u]; {
				l := lower[j]
				if f.parent[l] == u {
					s.keep(j)
				}
				j = seek(lower, j+1, f.end[l]+1)
			}
		}
	case downChildParents:
		k := 0
		for a, l := range lower {
			p := f.parent[l]
			if p < 0 {
				continue
			}
			if k = seek(upper, k, p); k == len(upper) {
				break
			}
			if upper[k] == p {
				s.keep(a)
			}
		}
	case downChildBits:
		for _, u := range upper {
			setBit(bits, u)
		}
		for i, l := range lower {
			if p := f.parent[l]; p >= 0 && hasBit(bits, p) {
				s.keep(i)
			}
		}
		for _, u := range upper {
			bits[u>>6] = 0
		}
	}
	return s.list()
}

// union merges the per-program answer positions with document-order
// dedup into a new slice, never one that aliases a program's scratch.
// In a shipped forest a position is a node, so the union is the
// ascending distinct positions — a single program's list copied. In a
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
			return slices.Clone(only)
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
