package plan

import (
	"context"
	"testing"

	"qav/internal/tpq"
	"qav/internal/xmltree"
)

// treeDP is the oracle the structural joins are checked against: the
// per-tree dynamic program, which pins every compensation (normalized
// as Compile normalizes it) to each tree root in turn. Its answers come
// back in window order, which maps onto positions by their preorder
// offset from the tree root; trees must be the windows f was indexed
// from, in order.
func treeDP(t *testing.T, f *Forest, trees []window, comps []*tpq.Pattern) []int32 {
	t.Helper()
	per := make([][]int32, len(comps))
	for i, c := range comps {
		pinned, err := normalize(c)
		if err != nil {
			t.Fatal(err)
		}
		prep := pinned.Prepare()
		for ti, w := range trees {
			base, off := f.roots[ti], w.root.Index
			for _, n := range prep.EvaluateAt(w.doc, w.root) {
				per[i] = append(per[i], base+int32(n.Index-off))
			}
		}
	}
	return f.union(per)
}

// FuzzJoinsMatchTreeDP builds a document and a pattern from the fuzz
// bytes and demands that the structural joins answer exactly what the
// per-tree dynamic program answers, over a shipped forest and over the
// nested windows of every a node. The documents run to recursive a
// chains and ragged depths, so the joins' seek orders meet nested
// intervals and parents that do not ascend. Both forests' path columns
// must spell every position's node path.
func FuzzJoinsMatchTreeDP(f *testing.F) {
	f.Add([]byte{0, 0, 4, 8, 12, 1, 13, 2, 0, 6, 15, 3}, []byte{0, 4, 9, 20, 3})
	f.Add([]byte{0, 0, 0, 0, 14, 14, 5, 2, 9, 15, 15, 1, 6}, []byte{0, 0, 16, 5, 1, 2})
	f.Add([]byte{1, 2, 3, 8, 9, 10, 11, 15, 0, 4, 8}, []byte{3, 8, 17, 2, 4})
	f.Fuzz(func(t *testing.T, docBytes, patBytes []byte) {
		d := fuzzDoc(docBytes)
		p := fuzzPattern(patBytes)
		ctx := context.Background()
		pl, err := Compile(ctx, []*tpq.Pattern{p})
		if err != nil {
			t.Fatalf("compile %s: %v", p, err)
		}
		clone := d.Clone()
		shipped, err := IndexForest(ctx, []*xmltree.Document{d, clone})
		if err != nil {
			t.Fatal(err)
		}
		shippedTrees := []window{{doc: d, root: d.Root}, {doc: clone, root: clone.Root}}
		as := tpq.MustParse("//a").Evaluate(d)
		windows, err := IndexSubtrees(ctx, d, as)
		if err != nil {
			t.Fatal(err)
		}
		windowTrees := make([]window, len(as))
		for i, n := range as {
			windowTrees[i] = window{doc: d, root: n}
		}
		for _, tc := range []struct {
			forest *Forest
			trees  []window
		}{{shipped, shippedTrees}, {windows, windowTrees}} {
			checkPaths(t, tc.forest)
			want := treeDP(t, tc.forest, tc.trees, []*tpq.Pattern{p})
			got, err := pl.Exec(ctx, tc.forest, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			shared := tc.forest.Shared()
			gotNodes, wantNodes := got.Nodes(), tc.forest.resolve(want)
			if len(gotNodes) != len(wantNodes) {
				t.Fatalf("%s over %s (shared %v): structjoin %d answers, treedp %d", p, d, shared, len(gotNodes), len(wantNodes))
			}
			for i := range wantNodes {
				if gotNodes[i] != wantNodes[i] || got.Matches[i] != want[i] {
					t.Fatalf("%s over %s (shared %v): answer %d is %v (position %d), treedp %v (position %d)",
						p, d, shared, i, gotNodes[i].Path(), got.Matches[i], wantNodes[i].Path(), want[i])
				}
			}
		}
	})
}

// fuzzDoc decodes a document of at most 300 nodes under an a root. Per
// byte, the low two bits pick the tag (a twice as often as b or c) and
// the next two the move: add a child and descend into it (twice as
// often), add a child and stay, or climb to the parent.
func fuzzDoc(data []byte) *xmltree.Document {
	tags := [4]string{"a", "a", "b", "c"}
	root := &xmltree.Node{Tag: "a"}
	cur, size := root, 1
	for _, b := range data {
		if size == 300 {
			break
		}
		switch b >> 2 & 3 {
		case 0, 1:
			cur = cur.AddChild(tags[b&3])
			size++
		case 2:
			cur.AddChild(tags[b&3])
			size++
		case 3:
			if cur.Parent != nil {
				cur = cur.Parent
			}
		}
	}
	return xmltree.NewDocument(root)
}

// fuzzPattern decodes a pattern of at most 8 nodes. The first byte
// picks the root's tag; per later byte the low two bits pick a tag (a,
// b, c or the wildcard), bit 2 the axis, and bits 3–4 the move: add a
// child and descend, add a child and stay, or climb. The output is the
// node the walk ends on.
func fuzzPattern(data []byte) *tpq.Pattern {
	tags := [4]string{"a", "b", "c", tpq.Wildcard}
	p := tpq.New(tpq.Descendant, "a")
	if len(data) > 0 {
		p.Root.Tag = tags[data[0]&3]
		data = data[1:]
	}
	cur, size := p.Root, 1
	for _, b := range data {
		if size == 8 {
			break
		}
		axis := tpq.Child
		if b&4 != 0 {
			axis = tpq.Descendant
		}
		switch b >> 3 & 3 {
		case 0, 1:
			cur = cur.AddChild(axis, tags[b&3])
			size++
		case 2:
			cur.AddChild(axis, tags[b&3])
			size++
		case 3:
			if cur.Parent != nil {
				cur = cur.Parent
			}
		}
	}
	p.Output = cur
	return p
}
