package plan

import (
	"context"
	"fmt"
	"math"
	"sync"

	"qav/internal/obs"
	"qav/internal/tpq"
	"qav/internal/xmltree"
)

// window is one member of a forest being indexed: the node the
// compensation queries are pinned to, plus the document that backs its
// storage. For a shipped forest (viewstore) every tree is a standalone
// document and root == doc.Root; for in-document answering every tree
// is a window of one shared document and root is a materialized view
// node.
type window struct {
	doc  *xmltree.Document
	root *xmltree.Node
}

// Forest is the execution-side index of a materialized view forest,
// built once per forest and immutable afterwards. Every indexed node
// occupies one position: its index in the concatenation of the trees'
// preorder windows, so positions run in (tree, preorder) order and a
// node's proper descendants are exactly the positions (p, end[p]].
// The index is a set of int32 columns over positions plus sorted
// per-tag position lists; programs compiled by Compile join those lists
// (see Plan.Exec) and resolve positions to nodes only for their answers.
type Forest struct {
	// parent is the position of a node's parent within the same
	// window, or -1 for a window root; end is the last position of its
	// subtree; tree is the tree the position belongs to.
	parent []int32
	end    []int32
	tree   []int32
	// nodes resolves a position to its document node.
	nodes []*xmltree.Node
	// roots holds each tree's root position, in tree order: tree i
	// spans positions roots[i] .. roots[i+1]-1.
	roots []int32
	// byTag and rootsByTag list the positions (respectively the tree
	// root positions) carrying each tag, ascending. Nodes of a shared
	// document that fall in several (nested) view windows hold one
	// position per window, so joins confined to one tree always see
	// the full window contents.
	byTag      map[string][]int32
	rootsByTag map[string][]int32
	// shared marks forests whose trees are windows of one document;
	// answers are then returned in global document order rather than
	// position order.
	shared bool

	// all lists every position, built only when a wildcard program
	// actually joins.
	allOnce sync.Once
	all     []int32
	// scratch pools the working memory of join runs (see scratch).
	scratch sync.Pool
}

// Trees returns the number of trees in the forest.
func (f *Forest) Trees() int { return len(f.roots) }

// Size returns the total number of indexed nodes (counting a shared
// node once per window containing it).
func (f *Forest) Size() int { return len(f.nodes) }

// Cardinality returns the number of occurrences of tag in the forest.
func (f *Forest) Cardinality(tag string) int { return len(f.byTag[tag]) }

// Shared reports whether the forest's trees are windows of one shared
// document (see IndexSubtrees).
func (f *Forest) Shared() bool { return f.shared }

// IndexForest indexes a shipped forest of standalone trees — the
// viewstore.Materialized layout, where each view answer is its own
// document. Indexing walks every node, so the context is polled once
// per tree and a cancelled ctx aborts with its error.
func IndexForest(ctx context.Context, forest []*xmltree.Document) (*Forest, error) {
	trees := make([]window, 0, len(forest))
	for _, d := range forest {
		if d == nil || d.Root == nil {
			continue
		}
		trees = append(trees, window{doc: d, root: d.Root})
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
	trees := make([]window, 0, len(viewNodes))
	for _, n := range viewNodes {
		if n == nil {
			continue
		}
		trees = append(trees, window{doc: d, root: n})
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
	return indexTrees(ctx, []window{{doc: d, root: d.Root}}, true)
}

// indexTrees sizes every column from the window lengths, fills the
// columns and a dense tag id per position in one walk, then scatters
// the positions into per-tag lists carved from one backing array, so
// the index allocates a constant number of slices rather than growing
// one list per tag.
func indexTrees(ctx context.Context, trees []window, shared bool) (*Forest, error) {
	sp := obs.SpanFrom(ctx)
	start := sp.Start()
	defer sp.Observe(obs.StagePlanIndex, start)
	total := 0
	for _, t := range trees {
		total += len(t.doc.Window(t.root))
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("plan: forest of %d nodes exceeds the position space", total)
	}
	f := &Forest{
		parent: make([]int32, total),
		end:    make([]int32, total),
		tree:   make([]int32, total),
		nodes:  make([]*xmltree.Node, 0, total),
		roots:  make([]int32, len(trees)),
		shared: shared,
	}
	ids := make(map[string]int32)
	var tags []string
	var counts, rootCounts []int32
	tagID := make([]int32, total)
	for ti, t := range trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		base := int32(len(f.nodes))
		f.roots[ti] = base
		off := t.root.Index
		for _, n := range t.doc.Window(t.root) {
			p := int32(len(f.nodes))
			f.nodes = append(f.nodes, n)
			f.tree[p] = int32(ti)
			f.end[p] = base + int32(n.SubtreeEnd()-off)
			f.parent[p] = -1
			if p != base {
				f.parent[p] = base + int32(n.Parent.Index-off)
			}
			id, ok := ids[n.Tag]
			if !ok {
				id = int32(len(tags))
				ids[n.Tag] = id
				tags = append(tags, n.Tag)
				counts = append(counts, 0)
				rootCounts = append(rootCounts, 0)
			}
			tagID[p] = id
			counts[id]++
		}
		rootCounts[tagID[base]]++
	}
	f.byTag = carve(tags, counts, tagID, nil)
	f.rootsByTag = carve(tags, rootCounts, tagID, f.roots)
	return f, nil
}

// carve distributes positions into one ascending list per tag, all
// sliced from a single backing array. It walks sel when non-nil, every
// position otherwise; counts[id] is the number of walked positions
// carrying tag id.
func carve(tags []string, counts, tagID, sel []int32) map[string][]int32 {
	n := len(tagID)
	if sel != nil {
		n = len(sel)
	}
	backing := make([]int32, n)
	next := make([]int32, len(tags))
	lo := int32(0)
	for id, c := range counts {
		next[id] = lo
		lo += c
	}
	if sel == nil {
		for p, id := range tagID {
			backing[next[id]] = int32(p)
			next[id]++
		}
	} else {
		for _, p := range sel {
			id := tagID[p]
			backing[next[id]] = p
			next[id]++
		}
	}
	out := make(map[string][]int32, len(tags))
	for id, tag := range tags {
		if counts[id] == 0 {
			continue
		}
		hi := next[id]
		out[tag] = backing[hi-counts[id] : hi : hi]
	}
	return out
}

// rootList returns the tree-root positions whose tag matches the
// compensation root — the pinning candidates of a program. A Wildcard
// root matches every tree.
func (f *Forest) rootList(tag string) []int32 {
	if tag == tpq.Wildcard {
		return f.roots
	}
	return f.rootsByTag[tag]
}

// list returns the candidate positions of a pattern-node tag: its
// posting list, or every position for the Wildcard tag.
func (f *Forest) list(tag string) []int32 {
	if tag != tpq.Wildcard {
		return f.byTag[tag]
	}
	f.allOnce.Do(func() {
		f.all = make([]int32, len(f.nodes))
		for p := range f.all {
			f.all[p] = int32(p)
		}
	})
	return f.all
}

// scratch is one program run's working memory, pooled on the forest
// and never shared between concurrent runs: the child joins' bitset
// over positions, zero between joins, the arena the join lists are
// filtered into, and the order a node's predicates join in.
type scratch struct {
	bits  []uint64
	arena []int32
	lists [][]int32
	owned [][]int32
	order []int32
}

func (f *Forest) getScratch() *scratch {
	if sc, ok := f.scratch.Get().(*scratch); ok {
		return sc
	}
	return &scratch{bits: make([]uint64, (len(f.nodes)+63)/64)}
}

// putScratch returns sc to the pool. Only a run that returned normally
// may: a panic mid-join can leave bits set.
func (f *Forest) putScratch(sc *scratch) { f.scratch.Put(sc) }
