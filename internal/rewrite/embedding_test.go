package rewrite

import (
	"context"
	"strings"
	"testing"

	"qav/internal/tpq"
)

// buildEmbedding maps query nodes to view nodes by position in a
// preorder walk; -1 means unmapped.
func buildEmbedding(q, v *tpq.Pattern, assign []int) *Embedding {
	qn, vn := q.Nodes(), v.Nodes()
	m := make(map[*tpq.Node]*tpq.Node)
	for i, j := range assign {
		if j >= 0 {
			m[qn[i]] = vn[j]
		}
	}
	return &Embedding{Q: q, V: v, M: m}
}

func TestEmbeddingValidateAccepts(t *testing.T) {
	// Fig 1 embedding: Trials -> Trials, Trial -> Trial, Status cut.
	q := tpq.MustParse("//Trials[//Status]//Trial")
	v := tpq.MustParse("//Trials//Trial")
	f := buildEmbedding(q, v, []int{0, -1, 1})
	if err := f.Validate(); err != nil {
		t.Fatalf("valid embedding rejected: %v", err)
	}
	terms := f.Terminals()
	if len(terms) != 1 || terms[0].Tag != "Trials" {
		t.Errorf("Terminals = %v", terms)
	}
	if f.Empty() {
		t.Error("Empty() on non-empty embedding")
	}
	if !strings.Contains(f.String(), "Trials->Trials") {
		t.Errorf("String() = %s", f)
	}
}

func TestEmbeddingValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		q, v   string
		assign []int
		errSub string
	}{
		{
			name: "tag mismatch",
			q:    "//a", v: "//b",
			assign: []int{0}, errSub: "tag mismatch",
		},
		{
			name: "upward closure",
			q:    "//a/b", v: "//a/b",
			assign: []int{-1, 1}, errSub: "upward closed",
		},
		{
			name: "pc edge not preserved",
			q:    "//a/b", v: "//a//b",
			assign: []int{0, 1}, errSub: "pc-edge",
		},
		{
			name: "ad edge not preserved",
			q:    "//a//b", v: "//a[b]//c", // map b to the sibling branch? b IS below a; use unrelated nodes
			assign: []int{1, 0}, errSub: "tag mismatch",
		},
		{
			name: "slash root onto descendant-rooted view",
			q:    "/a", v: "//a",
			assign: []int{0}, errSub: "must map to a '/' view root",
		},
		{
			name: "output not on view output",
			q:    "//a//b", v: "//a[b]//c",
			assign: []int{0, 1}, errSub: "query output mapped",
		},
		{
			name: "distinguished path off PV",
			q:    "//a//b//c", v: "//a[b[c]]//c",
			// map q's b (on PQ) to v's predicate b (off PV).
			assign: []int{0, 1, 2}, errSub: "distinguished-path",
		},
		{
			name: "pc cut below non-output",
			q:    "//a/b", v: "//a//c",
			assign: []int{0, -1}, errSub: "pc-child",
		},
		{
			name: "empty embedding with slash root",
			q:    "/a/b", v: "//a",
			assign: []int{-1, -1}, errSub: "empty embedding",
		},
	}
	for _, tc := range cases {
		q, v := tpq.MustParse(tc.q), tpq.MustParse(tc.v)
		f := buildEmbedding(q, v, tc.assign)
		err := f.Validate()
		if err == nil {
			t.Errorf("%s: invalid embedding accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errSub)
		}
	}
}

func TestEmbeddingEmptyValid(t *testing.T) {
	q := tpq.MustParse("//a/b")
	v := tpq.MustParse("//c")
	f := &Embedding{Q: q, V: v, M: nil}
	if err := f.Validate(); err != nil {
		t.Fatalf("empty embedding with '//' root rejected: %v", err)
	}
	if f.Signature() != "_,_" {
		t.Errorf("Signature = %q", f.Signature())
	}
	if f.String() != "{empty}" {
		t.Errorf("String = %q", f.String())
	}
}

func TestBuildCRFig1(t *testing.T) {
	q := tpq.MustParse("//Trials[//Status]//Trial")
	v := tpq.MustParse("//Trials//Trial")
	f := buildEmbedding(q, v, []int{0, -1, 1})
	cr, err := BuildCR(f, v)
	if err != nil {
		t.Fatal(err)
	}
	want := tpq.MustParse("//Trials//Trial[//Status]")
	if !tpq.Equivalent(cr.Rewriting, want) {
		t.Errorf("rewriting = %s, want %s", cr.Rewriting, want)
	}
	// The compensation is the clip-away tree rooted at the dV tag,
	// .[//Status] in the paper's notation.
	if cr.Compensation.Root.Tag != "Trial" {
		t.Errorf("compensation root = %s", cr.Compensation.Root.Tag)
	}
	if cr.Compensation.Size() != 2 {
		t.Errorf("compensation size = %d, want 2", cr.Compensation.Size())
	}
	if cr.Compensation.Output != cr.Compensation.Root {
		t.Error("compensation output should be its root (Trial itself)")
	}
	if !cr.VerifyContained(q) {
		t.Error("CR not contained in Q")
	}
}

func TestBuildCREmptyEmbedding(t *testing.T) {
	q := tpq.MustParse("//a/b")
	v := tpq.MustParse("//c")
	cr, err := BuildCR(&Embedding{Q: q, V: v, M: nil}, v)
	if err != nil {
		t.Fatal(err)
	}
	want := tpq.MustParse("//c//a/b")
	if !tpq.Equivalent(cr.Rewriting, want) {
		t.Errorf("rewriting = %s, want %s", cr.Rewriting, want)
	}
	if cr.Rewriting.Output.Tag != "b" {
		t.Errorf("output = %s", cr.Rewriting.Output.Tag)
	}
}

func TestBuildCRRejectsInvalid(t *testing.T) {
	q := tpq.MustParse("//a/b")
	v := tpq.MustParse("//a//c")
	f := buildEmbedding(q, v, []int{0, -1}) // pc-cut below non-dV
	if _, err := BuildCR(f, v); err == nil {
		t.Error("BuildCR accepted a non-useful embedding")
	}
}

func TestLabelingRootImages(t *testing.T) {
	// V = //a//a/b/c: both a's are on PV and admissible root images.
	q := tpq.MustParse("//a//b")
	v := tpq.MustParse("//a//a/b/c")
	l := ComputeLabels(q, v, nil)
	if got := len(l.RootImages()); got != 2 {
		t.Errorf("root images = %d, want 2", got)
	}
	if !l.Exists() {
		t.Error("Exists() = false")
	}
	// '/'-rooted query against '//'-rooted view has no root image, but
	// exists... no: '/' root cannot use the empty embedding either.
	l2 := ComputeLabels(tpq.MustParse("/z"), v, nil)
	if l2.Exists() {
		t.Error("unanswerable pair reported answerable")
	}
}

func TestLabelingEnumerateLimit(t *testing.T) {
	q := tpq.MustParse("//a[//b][//b]//b")
	v := tpq.MustParse("//a[//b][//b]//b")
	l := ComputeLabels(q, v, nil)
	var embs []*Embedding
	collect := func(f *Embedding) error {
		embs = append(embs, f)
		return nil
	}
	if err := l.Stream(context.Background(), 1, collect); err == nil {
		t.Error("limit 1 not enforced")
	}
	embs = nil
	if err := l.Stream(context.Background(), 1<<16, collect); err != nil {
		t.Fatal(err)
	}
	// All embeddings are valid and pairwise distinct.
	seen := make(map[string]bool)
	for _, f := range embs {
		if err := f.Validate(); err != nil {
			t.Fatalf("enumerated invalid embedding %s: %v", f, err)
		}
		sig := f.Signature()
		if seen[sig] {
			t.Fatalf("duplicate embedding %s", sig)
		}
		seen[sig] = true
	}
}

func TestGreedyMaximalMapsEverythingPossible(t *testing.T) {
	q := tpq.MustParse("//Trials[//Status]//Trial")
	v := tpq.MustParse("//Trials[//Status]//Trial")
	l := ComputeLabels(q, v, nil)
	f := l.greedyMaximal()
	if f == nil {
		t.Fatal("no embedding found")
	}
	if len(f.M) != q.Size() {
		t.Errorf("greedy mapped %d of %d nodes", len(f.M), q.Size())
	}
}
