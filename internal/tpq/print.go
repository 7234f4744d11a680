package tpq

import "strings"

// String renders the pattern as an XPath expression in XP{/,//,[]}.
// The main path is the distinguished path; all other subtrees are
// printed as predicates. Parse(p.String()) reproduces p up to sibling
// order, and its String is p.String() again: the printer writes
// siblings in the order Parse appends them.
func (p *Pattern) String() string {
	if p.Root == nil {
		return ""
	}
	var b strings.Builder
	path := p.DistinguishedPath()
	onPath := make(map[*Node]bool, len(path))
	for _, n := range path {
		onPath[n] = true
	}
	for i, n := range path {
		b.WriteString(n.Axis.String())
		b.WriteString(n.Tag)
		var next *Node
		if i+1 < len(path) {
			next = path[i+1]
		}
		for _, c := range n.Children {
			if c == next {
				continue
			}
			b.WriteByte('[')
			writeRel(&b, c, true)
			b.WriteByte(']')
		}
	}
	return b.String()
}

// writeRel prints the subtree rooted at n as the body of a predicate.
// The leading axis is omitted when it is the child axis and we are at
// the start of the predicate (XPath's default).
func writeRel(b *strings.Builder, n *Node, first bool) {
	if !(first && n.Axis == Child) {
		b.WriteString(n.Axis.String())
	}
	b.WriteString(n.Tag)
	if len(n.Children) == 0 {
		return
	}
	// Print the last child inline to keep paths like //b/d compact; the
	// others become nested predicates. Parse appends the inline
	// continuation after the predicates, so the order survives a round
	// trip.
	last := len(n.Children) - 1
	for _, c := range n.Children[:last] {
		b.WriteByte('[')
		writeRel(b, c, true)
		b.WriteByte(']')
	}
	writeRel(b, n.Children[last], false)
}
