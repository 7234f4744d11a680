// Package viewstore implements the mediator side of the paper's
// information-integration scenario: a source evaluates the view
// expression and ships ONLY the materialized result (a forest of
// subtrees, Figure 1(b)); the mediator stores that forest and answers
// queries by applying compensation queries to it — the original
// database is never available.
package viewstore

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"qav/internal/plan"
	"qav/internal/tpq"
	"qav/internal/xmltree"
)

// Materialized is a stored view: the view expression and the result
// forest, each tree a standalone copy of one view-answer subtree.
type Materialized struct {
	// Expr is the view expression the forest was computed with.
	Expr *tpq.Pattern
	// Forest holds one document per view answer, in document order.
	// Concurrent mutators must go through Append (or call Invalidate
	// after mutating directly) so the compiled index stays coherent.
	Forest []*xmltree.Document

	mu sync.Mutex
	// index is the compiled forest index (inverted tag lists, interval
	// labels), built lazily by ForestIndex and dropped on mutation.
	// guarded by mu
	index *plan.Forest
}

// Materialize evaluates the view on the source database and copies the
// answer subtrees out, exactly what a source would ship.
func Materialize(v *tpq.Pattern, d *xmltree.Document) *Materialized {
	m := &Materialized{Expr: v}
	for _, n := range v.Evaluate(d) {
		m.Forest = append(m.Forest, xmltree.NewDocument(cloneSubtree(n)))
	}
	return m
}

func cloneSubtree(n *xmltree.Node) *xmltree.Node {
	c := &xmltree.Node{Tag: n.Tag, Text: n.Text}
	for _, k := range n.Children {
		kc := cloneSubtree(k)
		kc.Parent = c
		c.Children = append(c.Children, kc)
	}
	return c
}

// Size returns the total number of element nodes stored.
func (m *Materialized) Size() int {
	total := 0
	for _, t := range m.Forest {
		total += t.Size()
	}
	return total
}

// ForestIndex returns the compiled plan index over the stored forest,
// building it on first use and caching it until the forest mutates
// (Append, Invalidate). The build walks the whole forest, so it is
// held under the lock — concurrent callers wait rather than duplicate
// an O(|forest|) pass — and the context is honored by the indexer.
func (m *Materialized) ForestIndex(ctx context.Context) (*plan.Forest, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.index != nil {
		return m.index, nil
	}
	f, err := plan.IndexForest(ctx, m.Forest)
	if err != nil {
		return nil, err
	}
	m.index = f
	return f, nil
}

// Invalidate drops the compiled forest index; the next ForestIndex
// call rebuilds it. Callers that mutate Forest directly must call it.
func (m *Materialized) Invalidate() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.index = nil
}

// Append adds shipped trees to the forest (a source sending an
// incremental view update) and invalidates the compiled index.
func (m *Materialized) Append(trees ...*xmltree.Document) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Forest = append(m.Forest, trees...)
	m.index = nil
}

// Write serializes the materialized view as an XML envelope:
//
//	<materialized-view expr="...">
//	  <tree> ... </tree>*
//	</materialized-view>
func (m *Materialized) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "<materialized-view expr=%q>\n", m.Expr.String()); err != nil {
		return err
	}
	for _, t := range m.Forest {
		if _, err := io.WriteString(w, "<tree>\n"); err != nil {
			return err
		}
		if err := t.WriteXML(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "</tree>\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "</materialized-view>\n")
	return err
}

// Read parses a materialized view previously written with Write.
func Read(r io.Reader) (*Materialized, error) {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	if doc.Root.Tag != "materialized-view" {
		return nil, fmt.Errorf("viewstore: unexpected root %q", doc.Root.Tag)
	}
	m := &Materialized{}
	for _, c := range doc.Root.Children {
		switch c.Tag {
		case "expr":
			p, err := tpq.Parse(strings.TrimSpace(c.Text))
			if err != nil {
				return nil, fmt.Errorf("viewstore: bad view expression: %w", err)
			}
			m.Expr = p
		case "tree":
			if len(c.Children) != 1 {
				return nil, fmt.Errorf("viewstore: tree envelope with %d roots", len(c.Children))
			}
			root := c.Children[0]
			root.Parent = nil
			m.Forest = append(m.Forest, xmltree.NewDocument(root))
		default:
			return nil, fmt.Errorf("viewstore: unexpected element %q", c.Tag)
		}
	}
	if m.Expr == nil {
		return nil, fmt.Errorf("viewstore: missing view expression")
	}
	return m, nil
}
