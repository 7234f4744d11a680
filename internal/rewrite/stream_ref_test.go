package rewrite

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"qav/internal/tpq"
	"qav/internal/workload"
)

// refLabeling gives a Labeling the node-addressed helpers the
// map-based enumerator was written against, so streamRef below runs
// unchanged and shares none of Stream's position arithmetic.
type refLabeling struct{ *Labeling }

func (l refLabeling) qpos(n *tpq.Node) int { return l.Q.Preorder(n) }
func (l refLabeling) vpos(n *tpq.Node) int { return l.V.Preorder(n) }

// candidates lists the view nodes y may map to when its parent maps to
// the view node at position j.
func (l refLabeling) candidates(y *tpq.Node, j int) []*tpq.Node {
	if y.Axis == tpq.Descendant {
		return l.V.Descendants(l.vn[j])
	}
	var out []*tpq.Node
	for _, c := range l.vn[j].Children {
		if c.Axis == tpq.Child {
			out = append(out, c)
		}
	}
	return out
}

// cutAllowed reports whether the subtree at y may be left unmapped when
// y's parent maps to img (at view position j).
func (l refLabeling) cutAllowed(y *tpq.Node, img *tpq.Node, j int) bool {
	if !l.canCutQ[l.qpos(y)] {
		return false
	}
	if y.Axis == tpq.Child {
		return img == l.V.Output
	}
	return l.pv[j]
}

// streamRef is the map-based enumerator Labeling.Stream replaced, kept
// frozen as the oracle of the slice-indexed one: it keeps the partial
// embedding in a map and branches through per-step closures. Same
// contract as Stream: useful embeddings in the same order, deduplicated
// by signature, more than limit of them (counting duplicates) an
// ErrEmbeddingBudget error, ctx polled every 256 steps.
func streamRef(labels *Labeling, ctx context.Context, limit int, emit func(*Embedding) error) error {
	l := refLabeling{labels}
	produced := 0
	steps := 0
	seen := make(map[string]bool)
	sig := make([]byte, 0, 4*len(l.qn))
	cur := make(map[*tpq.Node]*tpq.Node, len(l.qn))

	// yield hands the current assignment to emit unless its signature
	// was already seen (different branches can coincide after cuts).
	yield := func() error {
		if err := faultEnumerate.Hit(ctx); err != nil {
			return err
		}
		produced++
		if produced > limit {
			return fmt.Errorf("rewrite: more than %d useful embeddings: %w", limit, ErrEmbeddingBudget)
		}
		sig = sig[:0]
		for i, x := range l.qn {
			if i > 0 {
				sig = append(sig, ',')
			}
			if img, ok := cur[x]; ok {
				sig = strconv.AppendInt(sig, int64(l.vpos(img)), 10)
			} else {
				sig = append(sig, '_')
			}
		}
		if seen[string(sig)] {
			return nil
		}
		seen[string(sig)] = true
		cp := make(map[*tpq.Node]*tpq.Node, len(cur))
		for k, v := range cur {
			cp[k] = v
		}
		return emit(&Embedding{Q: l.Q, V: l.V, M: cp})
	}

	// assign maps the subtree below x given x ∈ cur, then calls next.
	var assign func(x *tpq.Node, next func() error) error
	assign = func(x *tpq.Node, next func() error) error {
		steps++
		if steps&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		img := cur[x]
		j := l.vpos(img)
		// Recursively branch over each child's choices.
		var perChild func(k int) error
		perChild = func(k int) error {
			if k == len(x.Children) {
				return next()
			}
			y := x.Children[k]
			yi := l.qpos(y)
			if l.cutAllowed(y, img, j) {
				if err := perChild(k + 1); err != nil {
					return err
				}
			}
			for _, cand := range l.candidates(y, j) {
				if !l.okAt(yi, l.vpos(cand)) {
					continue
				}
				cur[y] = cand
				err := assign(y, func() error { return perChild(k + 1) })
				delete(cur, y)
				if err != nil {
					return err
				}
			}
			return nil
		}
		return perChild(0)
	}

	if l.emptyAllowed() {
		if err := yield(); err != nil {
			return err
		}
	}
	for _, rootImg := range l.RootImages() {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur[l.Q.Root] = rootImg
		err := assign(l.Q.Root, yield)
		delete(cur, l.Q.Root)
		if err != nil {
			return err
		}
	}
	return nil
}

// streamSigs runs an enumerator — streamRef or the method expression
// (*Labeling).Stream — and returns the signatures it emitted, in order,
// and its error.
func streamSigs(l *Labeling, limit int, stream func(*Labeling, context.Context, int, func(*Embedding) error) error) ([]string, error) {
	var sigs []string
	err := stream(l, context.Background(), limit, func(f *Embedding) error {
		sigs = append(sigs, f.Signature())
		return nil
	})
	return sigs, err
}

// streamCase is one labeling the enumerator comparison runs over.
type streamCase struct {
	name string
	l    *Labeling
}

// streamCases returns the enumerator comparison's inputs: 600 random
// pairs (every third under a cut check that refuses c-tagged grafts),
// the Figure 8 family up to n = 5, and 40 composed keys with more than
// 16 embeddings.
func streamCases(t *testing.T) []streamCase {
	var cases []streamCase
	rng := rand.New(rand.NewSource(31))
	noC := func(y *tpq.Node) bool { return y.Tag != "c" }
	for i := 0; i < 600; i++ {
		q := workload.RandomPattern(rng, []string{"a", "b", "c"}, 7)
		v := workload.RandomPattern(rng, []string{"a", "b", "c"}, 7)
		var cut CutCheck
		if i%3 == 2 {
			cut = noC
		}
		cases = append(cases, streamCase{fmt.Sprintf("random %d q=%s v=%s", i, q, v), ComputeLabels(q, v, cut)})
	}
	for n := 1; n <= 5; n++ {
		cases = append(cases, streamCase{"fig8 n=" + strconv.Itoa(n), ComputeLabels(workload.Fig8Query(n), workload.Fig8View(), nil)})
	}
	big := 0
	for tries := 0; big < 40; tries++ {
		if tries == 100000 {
			t.Fatalf("only %d composed keys with more than 16 embeddings", big)
		}
		q, v := composedKey(t, rng)
		l := ComputeLabels(q, v, nil)
		if sigs, _ := streamSigs(l, DefaultMaxEmbeddings, streamRef); len(sigs) > 16 {
			cases = append(cases, streamCase{fmt.Sprintf("composed q=%s v=%s", q, v), l})
			big++
		}
	}
	return cases
}

// TestStreamMatchesReference pins the slice-indexed enumerator to the
// frozen map-based one: the same embeddings (by signature) in the same
// order, and at every limit up to one past the count the same
// ErrEmbeddingBudget verdict after the same prefix.
func TestStreamMatchesReference(t *testing.T) {
	for _, c := range streamCases(t) {
		want, err := streamSigs(c.l, DefaultMaxEmbeddings, streamRef)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		got, err := streamSigs(c.l, DefaultMaxEmbeddings, (*Labeling).Stream)
		if err != nil {
			t.Fatalf("%s: Stream: %v", c.name, err)
		}
		if !sameStrings(got, want) {
			t.Fatalf("%s: Stream emitted\n  %v\nreference emitted\n  %v", c.name, got, want)
		}
		for limit := 1; limit <= len(want)+1 && limit <= 20; limit++ {
			wantSigs, wantErr := streamSigs(c.l, limit, streamRef)
			gotSigs, gotErr := streamSigs(c.l, limit, (*Labeling).Stream)
			if errors.Is(gotErr, ErrEmbeddingBudget) != errors.Is(wantErr, ErrEmbeddingBudget) ||
				(gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s limit %d: Stream err %v, reference err %v", c.name, limit, gotErr, wantErr)
			}
			if errors.Is(wantErr, ErrEmbeddingBudget) != (len(want) > limit) {
				t.Fatalf("%s limit %d: reference err %v with %d embeddings", c.name, limit, wantErr, len(want))
			}
			if !sameStrings(gotSigs, wantSigs) {
				t.Fatalf("%s limit %d: Stream emitted %v, reference %v", c.name, limit, gotSigs, wantSigs)
			}
		}
	}
}
