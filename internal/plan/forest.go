package plan

import (
	"context"
	"fmt"
	"math"
	"slices"
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
// (see Plan.Exec) and return their answers as positions, whose nodes,
// paths and texts the forest resolves (Node, PathID, AppendPath, Text).
type Forest struct {
	// parent is the position of a node's parent within the same
	// window, or -1 for a window root; end is the last position of its
	// subtree; path is the ID of its root-to-node tag path in paths.
	parent []int32
	end    []int32
	path   []int32
	// nodes resolves a position to its document node.
	nodes []*xmltree.Node
	// texts holds every position's text back to back, in one
	// pointer-free slab: position p's text is
	// texts[textOff[p]:textOff[p+1]]. Bit p of plainText is set when
	// that text needs no escaping in a JSON string (JSONPlain), decided
	// once here rather than per answer.
	texts     []byte
	textOff   []int32
	plainText []uint64
	// paths interns the root-to-node tag paths of the positions (a
	// DataGuide over the forest). A path is stored as its parent path
	// plus its last tag, so the table grows with the distinct paths,
	// not with their lengths. In a shared forest a path runs from the
	// document root, through a window root's ancestors.
	paths []pathEntry
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

// Node returns the document node at position p.
func (f *Forest) Node(p int32) *xmltree.Node { return f.nodes[p] }

// PathID returns the interned ID of position p's root-to-node tag path:
// two positions share an ID iff their nodes' Path strings are equal.
func (f *Forest) PathID(p int32) int32 { return f.path[p] }

// Path returns position p's root-to-node tag path, spelled as the
// node's xmltree.Node.Path.
func (f *Forest) Path(p int32) string { return string(f.AppendPath(nil, f.path[p])) }

// AppendPath appends the path with the given ID to b, spelled as
// xmltree.Node.Path spells it: a slash before every tag, root first.
// It writes backwards from the last tag into the space the path needs.
func (f *Forest) AppendPath(b []byte, id int32) []byte {
	size := 0
	for x := id; x >= 0; x = f.paths[x].parent {
		size += 1 + len(f.paths[x].tag)
	}
	b = slices.Grow(b, size)
	i := len(b) + size
	b = b[:i]
	for x := id; x >= 0; x = f.paths[x].parent {
		i -= len(f.paths[x].tag)
		copy(b[i:], f.paths[x].tag)
		i--
		b[i] = '/'
	}
	return b
}

// Text returns position p's text, as its node's Text, and whether
// encoding/json writes it into a JSON string unescaped (JSONPlain). The
// bytes alias the forest's text column: callers must not modify them.
func (f *Forest) Text(p int32) (text []byte, plain bool) {
	return f.texts[f.textOff[p]:f.textOff[p+1]], f.plainText[p>>6]&(1<<(p&63)) != 0
}

// resolve maps positions to their document nodes.
func (f *Forest) resolve(pos []int32) []*xmltree.Node {
	if len(pos) == 0 {
		return nil
	}
	out := make([]*xmltree.Node, len(pos))
	for i, p := range pos {
		out[i] = f.nodes[p]
	}
	return out
}

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

// indexTrees sizes every column from the window lengths and text
// sizes, fills the columns, the interned path, the text with its
// JSONPlain bit and a dense tag id per position in one walk, then
// scatters the positions into per-tag lists carved from one backing
// array, so the index allocates a constant number of slices rather
// than growing one list per tag. A position's path is found among its
// parent path's children by its tag, and the path gives its tag id:
// the tag map is probed once per new path, not once per node.
func indexTrees(ctx context.Context, trees []window, shared bool) (*Forest, error) {
	sp := obs.SpanFrom(ctx)
	start := sp.Start()
	defer sp.Observe(obs.StagePlanIndex, start)
	total, textBytes := 0, 0
	for _, t := range trees {
		w := t.doc.Window(t.root)
		total += len(w)
		for _, n := range w {
			textBytes += len(n.Text)
		}
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("plan: forest of %d nodes exceeds the position space", total)
	}
	if textBytes > math.MaxInt32 {
		return nil, fmt.Errorf("plan: forest of %d text bytes exceeds the text column", textBytes)
	}
	f := &Forest{
		parent:    make([]int32, total),
		end:       make([]int32, total),
		path:      make([]int32, total),
		nodes:     make([]*xmltree.Node, 0, total),
		texts:     make([]byte, 0, textBytes),
		textOff:   make([]int32, total+1),
		plainText: make([]uint64, (total+63)/64),
		roots:     make([]int32, len(trees)),
		shared:    shared,
	}
	in := interner{f: f, kids: make([][]pathKid, 1)}
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
		above := in.above(t.root)
		for _, n := range t.doc.Window(t.root) {
			p := int32(len(f.nodes))
			f.nodes = append(f.nodes, n)
			f.texts = append(f.texts, n.Text...)
			f.textOff[p+1] = int32(len(f.texts))
			if JSONPlain(n.Text) {
				f.plainText[p>>6] |= 1 << (p & 63)
			}
			f.end[p] = base + int32(n.SubtreeEnd()-off)
			f.parent[p] = -1
			up := above
			if p != base {
				f.parent[p] = base + int32(n.Parent.Index-off)
				up = f.path[f.parent[p]]
			}
			pid := in.intern(up, n.Tag)
			f.path[p] = pid
			id := in.tag[pid]
			if id < 0 {
				var ok bool
				if id, ok = ids[n.Tag]; !ok {
					id = int32(len(tags))
					ids[n.Tag] = id
					tags = append(tags, n.Tag)
					counts = append(counts, 0)
					rootCounts = append(rootCounts, 0)
				}
				in.tag[pid] = id
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

// pathEntry is one interned path: the ID of its parent path (-1 for
// a path of one tag) and its last tag.
type pathEntry struct {
	parent int32
	tag    string
}

// kidScan is how many child paths of one path intern finds by a
// linear scan; a path with more children looks the rest up in a map.
const kidScan = 8

// pathKid is a child path: its last tag and its ID.
type pathKid struct {
	tag string
	id  int32
}

// interner assigns the forest's path IDs while it is indexed. A path's
// children are few in most documents, so they are scanned, with no
// hashing per node.
type interner struct {
	f *Forest
	// kids[parent+1] holds the first kidScan children of each path
	// (kids[0] those of the empty path); more holds the rest.
	kids [][]pathKid
	more map[pathEntry]int32
	// tag is each path's tag id, or -1 for a path met only above a
	// window root, which no position carries.
	tag []int32
	// lastParent and lastAbove remember the last window root's parent
	// and the ID of its path: sibling windows come in a row.
	lastParent *xmltree.Node
	lastAbove  int32
	chain      []*xmltree.Node
}

// intern returns the ID of the path parent/tag, adding it if new.
func (in *interner) intern(parent int32, tag string) int32 {
	kids := in.kids[parent+1]
	for _, k := range kids {
		if k.tag == tag {
			return k.id
		}
	}
	e := pathEntry{parent: parent, tag: tag}
	if len(kids) == kidScan {
		if id, ok := in.more[e]; ok {
			return id
		}
	}
	id := int32(len(in.f.paths))
	in.f.paths = append(in.f.paths, e)
	in.tag = append(in.tag, -1)
	in.kids = append(in.kids, nil)
	if len(kids) < kidScan {
		in.kids[parent+1] = append(kids, pathKid{tag: tag, id: id})
	} else {
		if in.more == nil {
			in.more = make(map[pathEntry]int32)
		}
		in.more[e] = id
	}
	return id
}

// above returns the ID of the path to n's parent in its document, or
// -1 for a document root: a window root's path runs through its
// ancestors, as xmltree.Node.Path does.
func (in *interner) above(n *xmltree.Node) int32 {
	if n.Parent == nil {
		return -1
	}
	if n.Parent == in.lastParent {
		return in.lastAbove
	}
	chain := in.chain[:0]
	for x := n.Parent; x != nil; x = x.Parent {
		chain = append(chain, x)
	}
	id := int32(-1)
	for i := len(chain) - 1; i >= 0; i-- {
		id = in.intern(id, chain[i].Tag)
	}
	in.chain = chain
	in.lastParent, in.lastAbove = n.Parent, id
	return id
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

// jsonPlainByte marks the bytes encoding/json writes as themselves
// inside a string: printable ASCII except the quote, the backslash and
// the HTML-escaped <, > and &.
var jsonPlainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

// JSONPlain reports whether encoding/json writes s into a JSON string
// byte for byte, with no escaping. It is the one definition the
// forest's text column and the /v1/answer encoder share.
func JSONPlain[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if !jsonPlainByte[s[i]] {
			return false
		}
	}
	return true
}
