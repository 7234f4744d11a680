// Package tpq implements tree pattern queries (TPQs), the XPath fragment
// XP{/,//,[]} of the paper: rooted trees whose nodes carry element tags,
// whose edges are pc-edges (child, '/') or ad-edges (descendant, '//'),
// and which have one distinguished (output) node.
//
// A pattern is conceptually rooted at a virtual document root: the
// pattern root's own Axis states whether the root must be the document
// root (Child, written "/tag") or may be any node (Descendant, "//tag").
package tpq

import (
	"fmt"
	"sort"
	"strings"
)

// Axis is the type of the edge connecting a pattern node to its parent
// (pc for '/', ad for '//').
type Axis uint8

const (
	// Child is the pc (parent-child) axis, written '/'.
	Child Axis = iota
	// Descendant is the ad (ancestor-descendant) axis, written '//'.
	Descendant
)

func (a Axis) String() string {
	if a == Child {
		return "/"
	}
	return "//"
}

// Node is a node of a tree pattern.
type Node struct {
	// Tag is the element tag the node must match.
	Tag string
	// Axis relates the node to its parent (or, for the pattern root, to
	// the virtual document root).
	Axis Axis
	// Parent is nil for the pattern root.
	Parent *Node
	// Children of the node; order is not semantically significant.
	Children []*Node

	// pre and end are the node's preorder interval labels: pre is the
	// preorder position within the tree, end the largest position inside
	// the subtree, so "n is a proper ancestor of m" is the O(1) test
	// n.pre < m.pre && m.pre <= n.end. Valid only while stamp is fresh
	// (see index.go); maintained by Reindex and invalidated by the
	// structured mutation API.
	pre, end int32
	stamp    *treeStamp
}

// AddChild appends a new child connected by the given axis and returns it.
func (n *Node) AddChild(axis Axis, tag string) *Node {
	c := &Node{Tag: tag, Axis: axis, Parent: n}
	n.Children = append(n.Children, c)
	n.invalidate()
	return c
}

// Attach links an existing subtree under n with the given axis.
func (n *Node) Attach(axis Axis, sub *Node) {
	sub.Axis = axis
	sub.Parent = n
	n.Children = append(n.Children, sub)
	n.invalidate()
	sub.invalidate()
}

// IsAncestorOf reports whether n is a proper ancestor of m in the
// pattern. On an indexed pattern (see Reindex) this is an O(1) interval
// comparison; otherwise it falls back to walking m's parent chain.
func (n *Node) IsAncestorOf(m *Node) bool {
	if s := n.stamp; s != nil && s == m.stamp && s.valid {
		return n.pre < m.pre && m.pre <= n.end
	}
	return isAncestorOfWalk(n, m)
}

// isAncestorOfWalk is the reference parent-chain implementation of
// IsAncestorOf; the differential tests check the interval fast path
// against it.
func isAncestorOfWalk(n, m *Node) bool {
	for x := m.Parent; x != nil; x = x.Parent {
		if x == n {
			return true
		}
	}
	return false
}

// Pattern is a tree pattern query with a distinguished output node.
type Pattern struct {
	// Root of the pattern. Root.Axis distinguishes "/a" from "//a".
	Root *Node
	// Output is the distinguished node (marked '*' in the paper's
	// figures). It must be a node of the tree rooted at Root.
	Output *Node

	// info and canon cache derived read-only metadata per indexing pass
	// (see index.go). Zero values are valid; both are keyed by the
	// tree's stamp and the output node, so stale entries are ignored
	// rather than consulted.
	info  infoCache
	canon canonCache
}

// New builds a pattern from a root node; the root is the output unless
// changed afterwards.
func New(rootAxis Axis, rootTag string) *Pattern {
	r := &Node{Tag: rootTag, Axis: rootAxis}
	return &Pattern{Root: r, Output: r}
}

// Nodes returns all pattern nodes in preorder. The returned slice is a
// fresh copy the caller may modify.
func (p *Pattern) Nodes() []*Node {
	pi := p.index()
	if pi == nil {
		return nil
	}
	out := make([]*Node, len(pi.nodes))
	copy(out, pi.nodes)
	return out
}

// Size is the number of pattern nodes (|Q| in the paper).
func (p *Pattern) Size() int {
	pi := p.index()
	if pi == nil {
		return 0
	}
	return len(pi.nodes)
}

// DistinguishedPath returns the nodes on the path from the root to the
// output node, inclusive (P_Q in the paper).
func (p *Pattern) DistinguishedPath() []*Node {
	var path []*Node
	for n := p.Output; n != nil; n = n.Parent {
		path = append(path, n)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// OnDistinguishedPath reports whether n lies on the root-to-output path.
// O(1) on an indexed pattern.
func (p *Pattern) OnDistinguishedPath(n *Node) bool {
	pi := p.index()
	if pi == nil || n == nil {
		return false
	}
	if i := int(n.pre); i >= 0 && i < len(pi.nodes) && pi.nodes[i] == n {
		return pi.onPath[i]
	}
	return false
}

// Validate checks the structural invariants: a root exists, parent
// pointers are consistent, tags are non-empty, and the output node
// belongs to the tree.
func (p *Pattern) Validate() error {
	if p.Root == nil {
		return fmt.Errorf("tpq: pattern has no root")
	}
	if p.Root.Parent != nil {
		return fmt.Errorf("tpq: root has a parent")
	}
	if p.Output == nil {
		return fmt.Errorf("tpq: pattern has no output node")
	}
	seen := false
	for _, n := range p.Nodes() {
		if n.Tag == "" {
			return fmt.Errorf("tpq: node with empty tag")
		}
		if n == p.Output {
			seen = true
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("tpq: child %q of %q has wrong parent pointer", c.Tag, n.Tag)
			}
		}
	}
	if !seen {
		return fmt.Errorf("tpq: output node not in pattern tree")
	}
	return nil
}

// Clone deep-copies the pattern. The second return value maps original
// nodes to their copies, which rewriting algorithms use to carry node
// correspondences across copies. The copy is indexed (see Reindex)
// regardless of the state of the original, which is only read.
func (p *Pattern) Clone() (*Pattern, map[*Node]*Node) {
	m := make(map[*Node]*Node)
	st := &treeStamp{valid: true}
	var cp func(n *Node, next int32) (*Node, int32)
	cp = func(n *Node, next int32) (*Node, int32) {
		c := &Node{Tag: n.Tag, Axis: n.Axis, pre: next, stamp: st}
		next++
		m[n] = c
		if len(n.Children) > 0 {
			c.Children = make([]*Node, len(n.Children))
			for i, k := range n.Children {
				var kc *Node
				kc, next = cp(k, next)
				kc.Parent = c
				c.Children[i] = kc
			}
		}
		c.end = next - 1
		return c, next
	}
	root, _ := cp(p.Root, 0)
	return &Pattern{Root: root, Output: m[p.Output]}, m
}

// CloneTrack deep-copies the pattern like Clone but, instead of the full
// correspondence map, returns only the copy of target (nil when target
// is not a node of p). Rewriting construction uses this to follow one
// distinguished node through a copy without allocating the map.
func (p *Pattern) CloneTrack(target *Node) (*Pattern, *Node) {
	st := &treeStamp{valid: true}
	var outc, tc *Node
	var cp func(n *Node, next int32) (*Node, int32)
	cp = func(n *Node, next int32) (*Node, int32) {
		c := &Node{Tag: n.Tag, Axis: n.Axis, pre: next, stamp: st}
		next++
		if n == p.Output {
			outc = c
		}
		if n == target {
			tc = c
		}
		if len(n.Children) > 0 {
			c.Children = make([]*Node, len(n.Children))
			for i, k := range n.Children {
				var kc *Node
				kc, next = cp(k, next)
				kc.Parent = c
				c.Children[i] = kc
			}
		}
		c.end = next - 1
		return c, next
	}
	root, _ := cp(p.Root, 0)
	return &Pattern{Root: root, Output: outc}, tc
}

// CloneSubtree deep-copies the subtree rooted at n (detached: the copy's
// root has no parent and keeps n's axis).
func CloneSubtree(n *Node) *Node {
	c, _ := CloneSubtreeTrack(n, nil)
	return c
}

// CloneSubtreeTrack deep-copies the subtree rooted at n like
// CloneSubtree and additionally returns the copy of target (nil when
// target does not occur in the subtree).
func CloneSubtreeTrack(n, target *Node) (clone, targetClone *Node) {
	c := &Node{Tag: n.Tag, Axis: n.Axis}
	var tc *Node
	if n == target && target != nil {
		tc = c
	}
	for _, k := range n.Children {
		kc, ktc := CloneSubtreeTrack(k, target)
		kc.Parent = c
		c.Children = append(c.Children, kc)
		if ktc != nil {
			tc = ktc
		}
	}
	return c, tc
}

// SubtreePattern deep-copies the subtree rooted at n into a standalone
// indexed pattern: the copy's root takes rootAxis, and the pattern's
// output is the copy of output (nil when output lies outside the
// subtree). The copy is labeled during the single construction walk, so
// no separate Reindex pass is needed.
func SubtreePattern(n *Node, rootAxis Axis, output *Node) *Pattern {
	st := &treeStamp{valid: true}
	var outc *Node
	var cp func(x *Node, next int32) (*Node, int32)
	cp = func(x *Node, next int32) (*Node, int32) {
		c := &Node{Tag: x.Tag, Axis: x.Axis, pre: next, stamp: st}
		next++
		if x == output {
			outc = c
		}
		if len(x.Children) > 0 {
			c.Children = make([]*Node, len(x.Children))
			for i, k := range x.Children {
				var kc *Node
				kc, next = cp(k, next)
				kc.Parent = c
				c.Children[i] = kc
			}
		}
		c.end = next - 1
		return c, next
	}
	root, _ := cp(n, 0)
	root.Axis = rootAxis // a field rewrite, not a structural edit: labels stay valid
	return &Pattern{Root: root, Output: outc}
}

// canonical returns a canonical string for the subtree rooted at n,
// marking the output node, with children sorted; used for order-
// insensitive structural equality.
func canonical(n *Node, output *Node) string {
	kids := make([]string, len(n.Children))
	for i, c := range n.Children {
		kids[i] = canonical(c, output)
	}
	sort.Strings(kids)
	mark := ""
	if n == output {
		mark = "*"
	}
	return n.Axis.String() + n.Tag + mark + "(" + strings.Join(kids, ",") + ")"
}

// Canonical returns an order-insensitive canonical form of the pattern.
// Two patterns are structurally identical (isomorphic respecting axes,
// tags and the output mark) iff their canonical forms are equal. The
// form is cached on indexed patterns (see Reindex) and recomputed after
// every structural mutation or output change.
func (p *Pattern) Canonical() string {
	if p.Root == nil {
		return ""
	}
	return p.cachedCanonical()
}

// StructuralEqual reports whether p and q are identical up to sibling
// reordering. (Semantic equivalence is Equivalent in contain.go.)
func (p *Pattern) StructuralEqual(q *Pattern) bool {
	return p.Canonical() == q.Canonical()
}
