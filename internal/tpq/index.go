package tpq

import "sync/atomic"

// This file implements the pattern-side region (interval) encoding: every
// node of an indexed pattern carries its preorder position and the
// largest preorder position inside its subtree, so ancestor/descendant
// tests are two integer comparisons and "all proper descendants of the
// node at position i" is the contiguous slice (i, end(i)] of the preorder
// node list — the same pre/post labeling the structural-join literature
// uses for documents (and xmltree.Node already carries).
//
// Validity is tracked by a per-tree stamp shared by every node of the
// tree. The structured mutation API (mutate.go) and the in-package
// builders invalidate the stamp in O(1) on any structural edit, and
// Reindex issues a fresh stamp. Derived read-only metadata (the preorder
// node list, tag set, height, distinguished path, canonical form) is
// cached on the Pattern behind atomic pointers keyed by the stamp and
// the output node, so concurrent readers of an indexed pattern never
// write to the nodes; racing cache fills compute identical values and
// publish atomically.
//
// Concurrency contract (matching the patmut immutability contract): a
// pattern that is shared between goroutines must already be indexed —
// Parse, Clone and the rewrite constructors return indexed patterns, and
// a pattern that was structurally edited is by contract privately owned,
// so the lazy re-Reindex performed by index() happens under a single
// owner.

// treeStamp is the shared validity token of one indexing pass. valid is
// written only by the tree's (single) owner during mutation.
type treeStamp struct{ valid bool }

// invalidate marks the labels of n's tree stale. O(1): the stamp is
// shared by every node of the tree.
func (n *Node) invalidate() {
	if n.stamp != nil {
		n.stamp.valid = false
	}
}

// indexed reports whether n carries fresh interval labels.
func (n *Node) indexed() bool { return n.stamp != nil && n.stamp.valid }

// Preorder returns the preorder position of n within p (the index of n
// in p.Nodes()), or -1 if n is not a node of p. O(1) on an indexed
// pattern.
func (p *Pattern) Preorder(n *Node) int {
	pi := p.index()
	if pi == nil || n == nil {
		return -1
	}
	if i := int(n.pre); i >= 0 && i < len(pi.nodes) && pi.nodes[i] == n {
		return i
	}
	return -1
}

// Reindex (re)assigns the interval labels of every node in the tree and
// issues a fresh validity stamp. Parse and Clone return indexed
// patterns; call Reindex after building or editing a pattern through the
// Node API and before sharing it across goroutines. Safe to call
// redundantly; not safe concurrently with readers of the same pattern.
func (p *Pattern) Reindex() {
	if p.Root == nil {
		return
	}
	st := &treeStamp{valid: true}
	var walk func(n *Node, next int32) int32
	walk = func(n *Node, next int32) int32 {
		n.pre = next
		n.stamp = st
		next++
		for _, c := range n.Children {
			next = walk(c, next)
		}
		n.end = next - 1
		return next
	}
	walk(p.Root, 0)
	p.info.Store(nil)
	p.canon.Store(nil)
}

// patternInfo is the derived read-only metadata of one indexing pass
// and one output node: outDepth and onPath follow Output, a plain field
// a caller can reassign without going through SetOutput, so the info is
// keyed on both and a reassigned output rebuilds it.
type patternInfo struct {
	stamp  *treeStamp
	output *Node
	// nodes is the preorder node list; nodes[i].pre == i. Callers must
	// not modify it.
	nodes []*Node
	// height is the number of edges on the longest root-to-leaf path.
	height int
	// outDepth is the number of edges from the root to the output node
	// (-1 when the output is not a node of the tree).
	outDepth int
	// tags maps every tag occurring in the pattern (including the
	// wildcard tag) to its number of occurrences.
	tags        map[string]int
	hasWildcard bool
	// onPath[i] reports whether the node at preorder position i lies on
	// the root-to-output (distinguished) path.
	onPath []bool
}

// index returns fresh derived metadata for p, reindexing first if the
// labels are stale (see the concurrency contract above). Returns nil
// only for a rootless pattern.
func (p *Pattern) index() *patternInfo {
	if p.Root == nil {
		return nil
	}
	st := p.Root.stamp
	if st == nil || !st.valid {
		p.Reindex()
		st = p.Root.stamp
	}
	if pi := p.info.Load(); pi != nil && pi.stamp == st && pi.output == p.Output {
		return pi
	}
	pi := buildInfo(p, st)
	p.info.Store(pi)
	return pi
}

// buildInfo derives the patternInfo of an indexed tree without writing
// to any node.
func buildInfo(p *Pattern, st *treeStamp) *patternInfo {
	pi := &patternInfo{
		stamp:    st,
		output:   p.Output,
		nodes:    make([]*Node, p.Root.end+1),
		outDepth: -1,
		tags:     make(map[string]int),
	}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		pi.nodes[n.pre] = n
		pi.tags[n.Tag]++
		if n.Tag == Wildcard {
			pi.hasWildcard = true
		}
		if depth > pi.height {
			pi.height = depth
		}
		if n == p.Output {
			pi.outDepth = depth
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	pi.onPath = make([]bool, len(pi.nodes))
	if pi.outDepth >= 0 {
		for x := p.Output; x != nil; x = x.Parent {
			pi.onPath[x.pre] = true
		}
	}
	return pi
}

// canonEntry caches the canonical form computed for one indexing pass.
// The form depends on the output node as well as the tree, and Output
// is a plain field a caller can reassign without going through
// SetOutput, so the entry is keyed on the pair: a reassigned output
// misses instead of serving the old mark.
type canonEntry struct {
	stamp  *treeStamp
	output *Node
	s      string
}

// cachedCanonical returns the canonical form, serving repeated calls on
// an indexed pattern from the per-stamp cache. Dirty patterns compute
// without caching (they are being edited by their single owner).
func (p *Pattern) cachedCanonical() string {
	st := p.Root.stamp
	fresh := st != nil && st.valid
	if fresh {
		if e := p.canon.Load(); e != nil && e.stamp == st && e.output == p.Output {
			return e.s
		}
	}
	s := canonical(p.Root, p.Output)
	if fresh {
		p.canon.Store(&canonEntry{stamp: st, output: p.Output, s: s})
	}
	return s
}

// descendantsIn returns the proper descendants of the node at preorder
// position i as a contiguous window of the preorder node list.
func descendantsIn(nodes []*Node, i int) []*Node {
	return nodes[i+1 : int(nodes[i].end)+1]
}

// PreorderNodes returns the pattern's preorder node list as a shared,
// read-only view — the same backing array the index holds, so no copy
// is made. Callers must not modify the returned slice; use Nodes for an
// owned copy.
func (p *Pattern) PreorderNodes() []*Node {
	pi := p.index()
	if pi == nil {
		return nil
	}
	return pi.nodes
}

// Height returns the number of edges on the longest root-to-leaf path,
// from the cached index — O(1) on an indexed pattern. A rootless
// pattern reports 0.
func (p *Pattern) Height() int {
	pi := p.index()
	if pi == nil {
		return 0
	}
	return pi.height
}

// OutputDepth returns the number of edges from the root to the output
// node, or -1 when the output is not a node of the tree. O(1) on an
// indexed pattern.
func (p *Pattern) OutputDepth() int {
	pi := p.index()
	if pi == nil {
		return -1
	}
	return pi.outDepth
}

// HasTag reports whether tag occurs in the pattern — an O(1) probe of
// the cached tag multiset. The multi-view candidate filter uses it as
// the necessary condition for a '//'-rooted query to admit a nonempty
// useful embedding into a view.
func (p *Pattern) HasTag(tag string) bool {
	pi := p.index()
	return pi != nil && pi.tags[tag] > 0
}

// Descendants returns the proper descendants of n in preorder, as a view
// into the pattern's preorder node list — O(1), no allocation. Callers
// must not modify the returned slice. Returns nil if n is not a node of
// p.
func (p *Pattern) Descendants(n *Node) []*Node {
	pi := p.index()
	if pi == nil || n == nil {
		return nil
	}
	if i := int(n.pre); i >= 0 && i < len(pi.nodes) && pi.nodes[i] == n {
		return descendantsIn(pi.nodes, i)
	}
	return nil
}

// atomicInfo aliases the atomic pointers embedded in Pattern so that
// pattern.go stays focused on the data model.
type (
	infoCache  = atomic.Pointer[patternInfo]
	canonCache = atomic.Pointer[canonEntry]
)
