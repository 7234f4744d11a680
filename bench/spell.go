package main

import (
	"sort"
	"strings"

	"qav/internal/tpq"
)

// The replicas intern patterns and print rewritings from the first
// spelling they parsed, and tpq's printer follows sibling order, so two
// spellings of one canonical key can yield differently spelled (but
// equal) rewritings. The harness therefore sends every pattern in one
// normal spelling, sibling predicates sorted by their canonical text,
// and produces twins and generalizations from the same printer.

// spelling controls how spell prints a pattern.
type spelling struct {
	// reverse prints sibling predicates in reverse normal order: a
	// canonical twin of the normal spelling.
	reverse bool
	// relax prints this node's incoming axis as '//'.
	relax *tpq.Node
	// drop omits this predicate subtree.
	drop *tpq.Node
}

// spell prints p in XP{/,//,[]}: the distinguished path as the main
// path, every other subtree as predicates, each axis written out.
func spell(p *tpq.Pattern, s spelling) string {
	var b strings.Builder
	path := p.DistinguishedPath()
	for i, n := range path {
		s.writeStep(&b, n)
		var next *tpq.Node
		if i+1 < len(path) {
			next = path[i+1]
		}
		s.writePreds(&b, n, next)
	}
	return b.String()
}

func (s spelling) writeStep(b *strings.Builder, n *tpq.Node) {
	if n == s.relax {
		b.WriteString("//")
	} else {
		b.WriteString(n.Axis.String())
	}
	b.WriteString(n.Tag)
}

// writePreds prints n's children except skip as predicates, in normal
// (or reversed) order.
func (s spelling) writePreds(b *strings.Builder, n, skip *tpq.Node) {
	type pred struct {
		key string
		n   *tpq.Node
	}
	var preds []pred
	for _, c := range n.Children {
		if c != skip && c != s.drop {
			preds = append(preds, pred{subtreeKey(c), c})
		}
	}
	sort.Slice(preds, func(i, j int) bool {
		if s.reverse {
			return preds[i].key > preds[j].key
		}
		return preds[i].key < preds[j].key
	})
	for _, pr := range preds {
		b.WriteByte('[')
		s.writeStep(b, pr.n)
		s.writePreds(b, pr.n, nil)
		b.WriteByte(']')
	}
}

// subtreeKey is an order-insensitive text of the subtree at n.
func subtreeKey(n *tpq.Node) string {
	kids := make([]string, len(n.Children))
	for i, c := range n.Children {
		kids[i] = subtreeKey(c)
	}
	sort.Strings(kids)
	return n.Axis.String() + n.Tag + "(" + strings.Join(kids, ",") + ")"
}
