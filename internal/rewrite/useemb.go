package rewrite

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"qav/internal/fault"
	"qav/internal/names"
	"qav/internal/tpq"
)

// ErrEmbeddingBudget is the errors.Is target for enumeration-budget
// overruns: more useful embeddings exist than the caller's
// MaxEmbeddings bound allows. MCR generation treats it as a signal to
// degrade gracefully (return the sound union found so far, marked
// Partial) rather than as a hard failure.
var ErrEmbeddingBudget = errors.New("rewrite: embedding budget exhausted")

// faultEnumerate fires once per produced embedding, inside the
// enumeration recursion.
var faultEnumerate = fault.Register(names.FaultRewriteEnumerate)

// CutCheck is an extra admissibility condition for leaving the subtree
// rooted at y unmapped (y is "clipped away" and grafted below the view
// output). The schemaless case allows every cut; the schema case
// (Definition 2) requires the grafted subtree to be realizable below
// the view output's tag.
type CutCheck func(y *tpq.Node) bool

// Labeling is the result of the label-entry computation of Algorithm
// UseEmb (Fig 6): for every query node the set of admissible view
// images, taking into account the distinguished-path discipline and the
// cut conditions. It is a compact encoding of all useful embeddings.
//
// Internally everything is addressed by preorder position (the
// patterns' interval labels, see tpq's index), so the hot loops perform
// no map lookups and no per-call allocations.
type Labeling struct {
	Q, V *tpq.Pattern

	qn, vn []*tpq.Node

	// ok is the flattened label matrix: ok[i*len(vn)+j] reports that
	// query node qn[i] can map to view node vn[j] such that the whole
	// query subtree below qn[i] is handled (mapped or admissibly cut).
	ok []bool

	pv      []bool  // view position lies on the view's distinguished path
	onPQ    []bool  // query position lies on the query's distinguished path
	qParent []int32 // per query position: its parent's position (-1 at the root)
	qEnd    []int32 // per query position: one past the last position of its subtree
	// vSeq is the identity over view positions: the proper descendants
	// of the view node at j are vSeq[j+1 : vEnd[j]].
	vSeq, vEnd []int32
	vKidsC     [][]int32 // per view position: children reached by a pc-edge
	vOut       int       // the view output's position
	cut        CutCheck
	canCutQ    []bool // cached cut admissibility per query position
}

func (l *Labeling) okAt(i, j int) bool { return l.ok[i*len(l.vn)+j] }

// ComputeLabels runs the polynomial labeling pass of Algorithm UseEmb:
// O(|Q|·|V|²) as stated by Theorem 2. cut may be nil (always allowed).
func ComputeLabels(q, v *tpq.Pattern, cut CutCheck) *Labeling {
	return NewQuerySide(q, cut).LabelsFor(v)
}

// QuerySide is the query half of the labeling pass: the preorder node
// list, subtree extents, distinguished-path membership and cut
// admissibility of every query node. It depends only on the query (and
// the cut check), so the batched multi-view pipeline computes it once
// and reuses it across every candidate view instead of rebuilding it
// |catalog| times inside ComputeLabels.
type QuerySide struct {
	Q             *tpq.Pattern
	qn            []*tpq.Node
	onPQ          []bool
	canCutQ       []bool
	qParent, qEnd []int32
	cut           CutCheck
}

// NewQuerySide precomputes the query-side labeling metadata.
func NewQuerySide(q *tpq.Pattern, cut CutCheck) *QuerySide {
	qs := &QuerySide{Q: q, qn: q.PreorderNodes(), cut: cut}
	nq := len(qs.qn)
	buf := make([]bool, 2*nq)
	qs.onPQ, qs.canCutQ = buf[:nq], buf[nq:]
	ibuf := make([]int32, 2*nq)
	qs.qParent, qs.qEnd = ibuf[:nq], ibuf[nq:]
	for i, n := range qs.qn {
		qs.onPQ[i] = q.OnDistinguishedPath(n)
		qs.canCutQ[i] = cut == nil || cut(n)
		qs.qParent[i] = int32(q.Preorder(n.Parent)) // -1 for the root
		qs.qEnd[i] = int32(i + 1 + len(q.Descendants(n)))
	}
	return qs
}

// EmptyAllowed reports whether the empty (trivial) useful embedding is
// admissible for this query regardless of the view: the query root is
// '//' and the whole-query graft passes the cut check. When it holds,
// EVERY view contributes at least the trivial CR (the whole query
// grafted below the view output), which the batch pipeline synthesizes
// directly for views the candidate filter rejects.
func (qs *QuerySide) EmptyAllowed() bool {
	return qs.Q.Root.Axis == tpq.Descendant && qs.canCutQ[0]
}

// NonemptyPossible is the O(1) necessary condition for a NONEMPTY
// useful embedding of the query into v — the brute-force root-image
// conditions of the labeling pass (feasible's root rule):
//
//   - a '/t'-rooted query can only map its root to a '/t'-rooted view's
//     root;
//   - a '//t'-rooted query can map its root to any view node tagged t.
//
// It over-approximates: a view passing the test may still admit no
// useful embedding (the full labeling decides), but a view failing it
// admits none, so the signature-index candidate filter and the batch
// pipeline may skip the O(|Q|·|V|²) labeling for it entirely.
func (qs *QuerySide) NonemptyPossible(v *tpq.Pattern) bool {
	root := qs.Q.Root
	if root.Axis == tpq.Child {
		return v.Root.Axis == tpq.Child && v.Root.Tag == root.Tag
	}
	return v.HasTag(root.Tag)
}

// LabelsFor runs the view-side labeling against v, reusing the
// precomputed query-side metadata.
func (qs *QuerySide) LabelsFor(v *tpq.Pattern) *Labeling {
	l := &Labeling{
		Q: qs.Q, V: v,
		qn: qs.qn, vn: v.PreorderNodes(),
		cut: qs.cut, onPQ: qs.onPQ, canCutQ: qs.canCutQ,
		qParent: qs.qParent, qEnd: qs.qEnd,
		vOut: v.Preorder(v.Output),
	}
	nq, nv := len(l.qn), len(l.vn)
	// All per-view boolean state shares one backing allocation, and so
	// does all per-view position state (vSeq, vEnd, the pc-child lists).
	buf := make([]bool, nq*nv+nv)
	l.ok, l.pv = buf[:nq*nv], buf[nq*nv:]
	ibuf := make([]int32, 3*nv)
	l.vSeq, l.vEnd = ibuf[:nv:nv], ibuf[nv:2*nv:2*nv]
	kidsBuf := ibuf[2*nv : 2*nv]
	l.vKidsC = make([][]int32, nv)
	for j, n := range l.vn {
		l.pv[j] = v.OnDistinguishedPath(n)
		l.vSeq[j] = int32(j)
		l.vEnd[j] = int32(j + 1 + len(v.Descendants(n)))
		start := len(kidsBuf)
		for _, c := range n.Children {
			if c.Axis == tpq.Child {
				kidsBuf = append(kidsBuf, int32(v.Preorder(c)))
			}
		}
		l.vKidsC[j] = kidsBuf[start:len(kidsBuf):len(kidsBuf)]
	}

	// Post-order: children of qn[i] have larger preorder indexes, so
	// iterate in reverse preorder.
	for i := nq - 1; i >= 0; i-- {
		row := l.ok[i*nv:]
		for j := range l.vn {
			row[j] = l.feasible(i, j)
		}
	}
	return l
}

// feasible decides ok[i][j]: tags match, path discipline holds, and
// every child is either mappable consistently or admissibly cut.
func (l *Labeling) feasible(i, j int) bool {
	x := l.qn[i]
	if x.Tag != l.vn[j].Tag {
		return false
	}
	if x == l.Q.Output {
		if j != l.vOut {
			return false
		}
	} else if l.onPQ[i] && !l.pv[j] {
		return false
	}
	if i == 0 && x.Axis == tpq.Child {
		// '/t' query root must be the view root, itself rooted '/t'.
		if j != 0 || l.V.Root.Axis != tpq.Child {
			return false
		}
	}
	// The children of position i, in order, are i+1 and then each
	// previous child's subtree end, up to i's own.
	for yi := i + 1; yi < int(l.qEnd[i]); yi = int(l.qEnd[yi]) {
		if l.cutAllowed(yi, j) {
			continue
		}
		found := false
		for _, c := range l.candidates(yi, j) {
			if l.okAt(yi, int(c)) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// candidates lists the view positions the query node at position yi
// may map to when its parent maps to the view node at position j. The
// returned slice is a shared precomputed view — never modified, never
// reallocated per call.
func (l *Labeling) candidates(yi, j int) []int32 {
	if l.qn[yi].Axis == tpq.Child {
		return l.vKidsC[j]
	}
	return l.vSeq[j+1 : l.vEnd[j]]
}

// cutAllowed reports whether the subtree at query position yi may be
// left unmapped when its parent maps to the view node at position j:
// ad-edges cut below distinguished-path nodes, pc-edges only below the
// view output itself (Def 1 (ii)(b)), plus the caller's CutCheck.
func (l *Labeling) cutAllowed(yi, j int) bool {
	if !l.canCutQ[yi] {
		return false
	}
	if l.qn[yi].Axis == tpq.Child {
		return j == l.vOut
	}
	return l.pv[j]
}

// emptyAllowed reports whether the empty embedding is useful: the query
// root is '//' and the whole-query graft passes the cut check.
func (l *Labeling) emptyAllowed() bool {
	return l.Q.Root.Axis == tpq.Descendant && l.canCutQ[0]
}

// RootImages returns the admissible images of the query root.
func (l *Labeling) RootImages() []*tpq.Node {
	var out []*tpq.Node
	for j := range l.vn {
		if l.okAt(0, j) {
			out = append(out, l.vn[j])
		}
	}
	return out
}

// Exists reports whether at least one useful embedding exists, i.e.
// whether the query is answerable using the view (Theorem 1). This is
// the polynomial-time existence test of Theorem 2.
func (l *Labeling) Exists() bool {
	if l.emptyAllowed() {
		return true
	}
	return len(l.RootImages()) > 0
}

// Stream enumerates every useful embedding encoded by the labeling
// (including the empty one when admissible), deduplicated on the fly,
// calling emit for each without ever materializing the full set — MCR
// generation consumes this to overlap CR construction with enumeration.
// Enumeration stops with an error if more than limit embeddings are
// produced (counting duplicates) — the MCR can be exponential in |Q|
// (§3.2), so callers must bound the enumeration explicitly. The context
// is polled periodically inside the branching recursion, so cancelling
// it stops an exponential enumeration promptly with ctx's error. An
// error returned by emit aborts the enumeration and is returned as-is.
//
// The enumeration decides the query nodes in preorder: the empty
// embedding first, then each admissible root image in view order; below
// a mapped node, each child is first cut (its whole subtree skipped)
// when the cut is admissible, then mapped to each admissible candidate
// in view order.
func (l *Labeling) Stream(ctx context.Context, limit int, emit func(*Embedding) error) error {
	s := &enumeration{
		l: l, ctx: ctx, limit: limit, emit: emit,
		cur:  make([]int32, len(l.qn)),
		seen: make(map[string]bool),
		sig:  make([]byte, 0, 4*len(l.qn)),
	}
	for i := range s.cur {
		s.cur[i] = -1
	}
	if l.emptyAllowed() {
		if err := s.yield(); err != nil {
			return err
		}
	}
	for j := range l.vn {
		if !l.okAt(0, j) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.assign(0, int32(j)); err != nil {
			return err
		}
	}
	return nil
}

// enumeration is the state of one Stream call. The partial embedding is
// a slice indexed by query position holding each image's view position
// (-1: unmapped), so a step is an array store and its undo another.
type enumeration struct {
	l     *Labeling
	ctx   context.Context
	limit int
	emit  func(*Embedding) error

	cur                     []int32
	mapped, produced, steps int
	seen                    map[string]bool // signatures already emitted
	sig                     []byte
}

// assign maps query position i to view position j, decides the nodes
// after i, then unmaps i.
func (s *enumeration) assign(i int, j int32) error {
	s.cur[i] = j
	s.mapped++
	s.steps++
	var err error
	if s.steps&255 == 0 {
		err = s.ctx.Err()
	}
	if err == nil {
		err = s.walk(i + 1)
	}
	s.cur[i] = -1
	s.mapped--
	return err
}

// walk decides query positions i onward. Every ancestor of position i
// is mapped: walk is entered from a mapped node's next position, or
// from a cut node's subtree end, whose parent is an ancestor of the cut
// node.
func (s *enumeration) walk(i int) error {
	if i == len(s.cur) {
		return s.yield()
	}
	l := s.l
	j := int(s.cur[l.qParent[i]])
	if l.cutAllowed(i, j) {
		if err := s.walk(int(l.qEnd[i])); err != nil {
			return err
		}
	}
	for _, c := range l.candidates(i, j) {
		if !l.okAt(i, int(c)) {
			continue
		}
		if err := s.assign(i, c); err != nil {
			return err
		}
	}
	return nil
}

// yield hands the current assignment to emit unless its signature was
// already seen.
func (s *enumeration) yield() error {
	if err := faultEnumerate.Hit(s.ctx); err != nil {
		return err
	}
	s.produced++
	if s.produced > s.limit {
		return fmt.Errorf("rewrite: more than %d useful embeddings: %w", s.limit, ErrEmbeddingBudget)
	}
	s.sig = s.sig[:0]
	for i, j := range s.cur {
		if i > 0 {
			s.sig = append(s.sig, ',')
		}
		if j >= 0 {
			s.sig = strconv.AppendInt(s.sig, int64(j), 10)
		} else {
			s.sig = append(s.sig, '_')
		}
	}
	if s.seen[string(s.sig)] {
		return nil
	}
	s.seen[string(s.sig)] = true
	l := s.l
	m := make(map[*tpq.Node]*tpq.Node, s.mapped)
	for i, j := range s.cur {
		if j >= 0 {
			m[l.qn[i]] = l.vn[j]
		}
	}
	return s.emit(&Embedding{Q: l.Q, V: l.V, M: m})
}
