package plan

import (
	"context"
	"fmt"
	"sync"

	"qav/internal/obs"
	"qav/internal/tpq"
	"qav/internal/xmltree"
)

// Tree is one member of an indexed forest: the node the compensation
// queries are pinned to, plus the document that backs its storage. For
// a shipped forest (viewstore) every tree is a standalone document and
// Root == Doc.Root; for in-document answering every tree is a window of
// one shared document and Root is a materialized view node.
type Tree struct {
	Doc  *xmltree.Document
	Root *xmltree.Node
}

// item is one occurrence of a tag in the forest. Items are kept in
// (tree, preorder) order; the packed key makes that order — and the
// parent/ancestor membership tests of the structural joins — a single
// uint64 comparison.
type item struct {
	tree int32
	node *xmltree.Node
}

// key packs (tree, preorder index) into one comparable word. Interval
// labels are only meaningful within a tree, and the tree id in the high
// bits keeps every join from ever matching across trees.
func (it item) key() uint64 { return packKey(it.tree, it.node.Index) }

func packKey(tree int32, index int) uint64 {
	return uint64(uint32(tree))<<32 | uint64(uint32(index))
}

// Forest is the execution-side index of a materialized view forest:
// inverted tag lists over every tree, in global (tree, preorder) order,
// built once per forest and immutable afterwards. Programs compiled by
// Compile execute against it; see Plan.Exec.
type Forest struct {
	trees []Tree
	// byTag lists every occurrence of a tag across the forest in
	// (tree, preorder) order. Nodes of a shared document that fall in
	// several (nested) view windows appear once per window, so joins
	// confined to one tree always see the full window contents.
	byTag map[string][]item
	// roots lists the tree roots in tree order — the candidates
	// compensation roots are pinned to.
	roots []item
	// shared marks forests whose trees are windows of one document;
	// answers are then returned in global document order rather than
	// (tree, preorder) order.
	shared bool
	// size is the total number of indexed items; maxTree the largest
	// single tree. Both feed the backend-selection heuristic.
	size    int
	maxTree int

	// all is the lazy concatenation of every indexed item in (tree,
	// preorder) order — the candidate list of Wildcard pattern nodes,
	// built only when a wildcard program actually joins.
	allOnce sync.Once
	all     []item
}

// Trees returns the number of trees in the forest.
func (f *Forest) Trees() int { return len(f.trees) }

// Size returns the total number of indexed nodes (counting a shared
// node once per window containing it).
func (f *Forest) Size() int { return f.size }

// Cardinality returns the number of occurrences of tag in the forest.
func (f *Forest) Cardinality(tag string) int { return len(f.byTag[tag]) }

// Tree returns the i-th tree.
func (f *Forest) Tree(i int) Tree { return f.trees[i] }

// Shared reports whether the forest's trees are windows of one shared
// document (see IndexSubtrees).
func (f *Forest) Shared() bool { return f.shared }

// IndexForest indexes a shipped forest of standalone trees — the
// viewstore.Materialized layout, where each view answer is its own
// document. Indexing walks every node, so the context is polled once
// per tree and a cancelled ctx aborts with its error.
func IndexForest(ctx context.Context, forest []*xmltree.Document) (*Forest, error) {
	trees := make([]Tree, 0, len(forest))
	for _, d := range forest {
		if d == nil || d.Root == nil {
			continue
		}
		trees = append(trees, Tree{Doc: d, Root: d.Root})
	}
	return indexTrees(ctx, trees, false)
}

// IndexSubtrees indexes a view materialization that lives inside one
// document: each view node's subtree window becomes a tree. Windows may
// nest or overlap (a view like //a//a matches along a chain), so a
// document node is indexed once per window containing it — exactly the
// per-view-node visibility the naive evaluator has. The context is
// polled once per window.
func IndexSubtrees(ctx context.Context, d *xmltree.Document, viewNodes []*xmltree.Node) (*Forest, error) {
	trees := make([]Tree, 0, len(viewNodes))
	for _, n := range viewNodes {
		if n == nil {
			continue
		}
		trees = append(trees, Tree{Doc: d, Root: n})
	}
	return indexTrees(ctx, trees, true)
}

// IndexDocument indexes one whole document as a single-tree forest —
// the degenerate case EvaluateIndexed evaluates general (not
// root-pinned) patterns against.
func IndexDocument(ctx context.Context, d *xmltree.Document) (*Forest, error) {
	if d == nil || d.Root == nil {
		return indexTrees(ctx, nil, true)
	}
	return indexTrees(ctx, []Tree{{Doc: d, Root: d.Root}}, true)
}

func indexTrees(ctx context.Context, trees []Tree, shared bool) (*Forest, error) {
	sp := obs.SpanFrom(ctx)
	start := sp.Start()
	defer sp.Observe(obs.StagePlanIndex, start)
	if len(trees) > 1<<31-1 {
		return nil, fmt.Errorf("plan: forest of %d trees exceeds the tree-id space", len(trees))
	}
	f := &Forest{trees: trees, byTag: make(map[string][]item), shared: shared}
	for ti, t := range trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		window := t.Doc.Window(t.Root)
		for _, n := range window {
			f.byTag[n.Tag] = append(f.byTag[n.Tag], item{tree: int32(ti), node: n})
		}
		f.roots = append(f.roots, item{tree: int32(ti), node: t.Root})
		f.size += len(window)
		if len(window) > f.maxTree {
			f.maxTree = len(window)
		}
	}
	return f, nil
}

// rootItems returns the tree roots whose tag matches the compensation
// root — the pinning candidates of a program. Tree order is preserved,
// which is (tree, preorder) order since every root is its tree's first
// node. A Wildcard root matches every tree.
func (f *Forest) rootItems(tag string) []item {
	if tag == tpq.Wildcard {
		return f.roots
	}
	var out []item
	for _, r := range f.roots {
		if r.node.Tag == tag {
			out = append(out, r)
		}
	}
	return out
}

// itemsFor returns the candidate list of a pattern-node tag: the
// inverted list, or every indexed item for the Wildcard tag.
func (f *Forest) itemsFor(tag string) []item {
	if tag != tpq.Wildcard {
		return f.byTag[tag]
	}
	f.allOnce.Do(func() {
		out := make([]item, 0, f.size)
		for ti, t := range f.trees {
			for _, n := range t.Doc.Window(t.Root) {
				out = append(out, item{tree: int32(ti), node: n})
			}
		}
		f.all = out
	})
	return f.all
}

// cardinalityFor is itemsFor's counting companion for the backend
// heuristic: it avoids building the wildcard list just to size it.
func (f *Forest) cardinalityFor(tag string) int {
	if tag == tpq.Wildcard {
		return f.size
	}
	return len(f.byTag[tag])
}
