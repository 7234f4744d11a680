package rewrite

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"qav/internal/leaktest"
	"qav/internal/tpq"
	"qav/internal/workload"
)

// referenceMCR is the materializing MCR path kept for differential
// testing: materialize every useful embedding with the frozen
// map-based enumerator (streamRef), build each CR with its compensation
// and verify it serially — one CR per embedding, no domain sharing —
// then assemble. Past the embedding budget it assembles the Partial
// union of the embeddings enumerated before the wall. The streaming
// loop must produce exactly this result.
func referenceMCR(q, v *tpq.Pattern, limit int) (*Result, error) {
	ctx := context.Background()
	labels := ComputeLabels(q, v, nil)
	if !labels.Exists() {
		return &Result{Union: &tpq.Union{}}, nil
	}
	var embs []*Embedding
	err := streamRef(labels, ctx, limit, func(f *Embedding) error {
		embs = append(embs, f)
		return nil
	})
	if err != nil && !errors.Is(err, ErrEmbeddingBudget) {
		return nil, err
	}
	var crs []*ContainedRewriting
	for _, f := range embs {
		cr, err := BuildCR(f, v)
		if err != nil {
			return nil, err
		}
		if !cr.VerifyContained(q) {
			return nil, fmt.Errorf("reference: CR %s not contained in %s", cr.Rewriting.Canonical(), q.Canonical())
		}
		crs = append(crs, cr)
	}
	if err != nil {
		return refAssemblePartial(crs, len(embs), PartialBudget), nil
	}
	return refAssembleResult(ctx, crs, len(embs), tpq.Contained)
}

// refAssemblePartial and refAssembleResult are the frozen assemblies the
// production code had before one function (assemble) took over every
// entry point's tail. The reference paths assemble through them, so the
// differential tests pin assemble too.
func refAssemblePartial(crs []*ContainedRewriting, considered int, reason PartialReason) *Result {
	seen := make(map[string]bool, len(crs))
	kept := make([]*ContainedRewriting, 0, len(crs))
	for _, cr := range crs {
		key := cr.Rewriting.Canonical()
		if seen[key] {
			continue
		}
		seen[key] = true
		kept = append(kept, cr)
	}
	sortCRs(kept)
	u := &tpq.Union{}
	for _, cr := range kept {
		cr.ensureCompensation()
		u.Patterns = append(u.Patterns, cr.Rewriting)
	}
	return &Result{
		Union:                u,
		CRs:                  kept,
		EmbeddingsConsidered: considered,
		Partial:              true,
		PartialReason:        reason,
	}
}

func refAssembleResult(ctx context.Context, crs []*ContainedRewriting, considered int, contained func(a, b *tpq.Pattern) bool) (*Result, error) {
	seen := make(map[string]*ContainedRewriting)
	var uniq []*ContainedRewriting
	for _, cr := range crs {
		key := cr.Rewriting.Canonical()
		if seen[key] == nil {
			seen[key] = cr
			uniq = append(uniq, cr)
		}
	}
	sortCRs(uniq)
	kept := make([]*ContainedRewriting, 0, len(uniq))
	redundant, err := markRedundant(ctx, len(uniq), func(i, j int) bool {
		return contained(uniq[i].Rewriting, uniq[j].Rewriting)
	})
	if err != nil {
		return nil, err
	}
	u := &tpq.Union{}
	for i, cr := range uniq {
		if !redundant[i] {
			cr.ensureCompensation()
			kept = append(kept, cr)
			u.Patterns = append(u.Patterns, cr.Rewriting)
		}
	}
	return &Result{Union: u, CRs: kept, EmbeddingsConsidered: considered}, nil
}

// sameCRs reports the first difference between two results' kept CRs,
// in order: rewriting, representative embedding signature and
// compensation, or "" when they agree.
func sameCRs(got, want *Result) string {
	if len(got.CRs) != len(want.CRs) {
		return fmt.Sprintf("%d CRs, reference has %d", len(got.CRs), len(want.CRs))
	}
	for i := range got.CRs {
		g, w := got.CRs[i], want.CRs[i]
		if g.Rewriting.String() != w.Rewriting.String() {
			return fmt.Sprintf("CR %d: rewriting %s, reference %s", i, g.Rewriting, w.Rewriting)
		}
		if gs, ws := g.Embedding.Signature(), w.Embedding.Signature(); gs != ws {
			return fmt.Sprintf("CR %d: embedding %s, reference %s", i, gs, ws)
		}
		if g.Compensation == nil {
			return fmt.Sprintf("CR %d: no compensation", i)
		}
		if g.Compensation.String() != w.Compensation.String() {
			return fmt.Sprintf("CR %d: compensation %s, reference %s", i, g.Compensation, w.Compensation)
		}
	}
	return ""
}

// disjunctSet returns the sorted canonical forms of the result's union.
func disjunctSet(res *Result) []string {
	var out []string
	for _, p := range res.Union.Patterns {
		out = append(out, p.Canonical())
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMCRMatchesReference checks the streaming loop against the
// materialize-then-build reference on random instances and composed
// keys: identical disjunct sets, identical embedding counts, and the same
// kept CRs with the same representative embeddings and compensations.
func TestMCRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	alphabet := []string{"a", "b", "c"}
	checked := 0
	for trial := 0; trial < 1000; trial++ {
		// 600 random pairs, then 400 composed keys, where embeddings
		// sharing a domain are common.
		var q, v *tpq.Pattern
		if trial < 600 {
			q = workload.RandomPattern(rng, alphabet, 7)
			v = workload.RandomPattern(rng, alphabet, 7)
		} else {
			q, v = composedKey(t, rng)
		}
		got, errGot := MCR(q, v, Options{})
		want, errWant := referenceMCR(q, v, DefaultMaxEmbeddings)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("MCR err=%v, reference err=%v for q=%s v=%s", errGot, errWant, q.Canonical(), v.Canonical())
		}
		if errGot != nil {
			continue
		}
		if got.EmbeddingsConsidered != want.EmbeddingsConsidered {
			t.Fatalf("EmbeddingsConsidered %d, reference says %d for q=%s v=%s",
				got.EmbeddingsConsidered, want.EmbeddingsConsidered, q.Canonical(), v.Canonical())
		}
		if !sameStrings(disjunctSet(got), disjunctSet(want)) {
			t.Fatalf("union mismatch for q=%s v=%s:\n  loop:      %v\n  reference: %v",
				q.Canonical(), v.Canonical(), disjunctSet(got), disjunctSet(want))
		}
		if diff := sameCRs(got, want); diff != "" {
			t.Fatalf("q=%s v=%s: %s", q.Canonical(), v.Canonical(), diff)
		}
		checked++
	}
	if checked < 900 {
		t.Fatalf("only %d instances checked, want >= 900", checked)
	}
}

// TestMCRMatchesReferenceExponential runs the differential check on the
// Figure 8 family, where the enumeration is exponential (2^n + extras).
func TestMCRMatchesReferenceExponential(t *testing.T) {
	v := workload.Fig8View()
	for n := 2; n <= 5; n++ {
		q := workload.Fig8Query(n)
		got, err := MCR(q, v, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceMCR(q, v, DefaultMaxEmbeddings)
		if err != nil {
			t.Fatal(err)
		}
		if got.EmbeddingsConsidered != want.EmbeddingsConsidered {
			t.Fatalf("n=%d: EmbeddingsConsidered %d, reference says %d", n, got.EmbeddingsConsidered, want.EmbeddingsConsidered)
		}
		if !sameStrings(disjunctSet(got), disjunctSet(want)) {
			t.Fatalf("n=%d: union mismatch", n)
		}
		if diff := sameCRs(got, want); diff != "" {
			t.Fatalf("n=%d: %s", n, diff)
		}
		// Determinism: the paper's 2^n disjuncts in a fixed order.
		again, err := MCR(q, v, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Union.Patterns {
			if got.Union.Patterns[i].Canonical() != again.Union.Patterns[i].Canonical() {
				t.Fatalf("n=%d: non-deterministic disjunct order at %d", n, i)
			}
		}
	}
}

// TestMCRAgreesWithNaive cross-checks the optimized loop against the
// brute-force baseline, which enumerates all partial matchings rather
// than useful embeddings.
func TestMCRAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	alphabet := []string{"a", "b"}
	for trial := 0; trial < 150; trial++ {
		q := workload.RandomPattern(rng, alphabet, 5)
		v := workload.RandomPattern(rng, alphabet, 5)
		fast, err := MCR(q, v, Options{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveMCR(context.Background(), q, v)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Union.SameAs(naive.Union) {
			t.Fatalf("MCR and NaiveMCR disagree for q=%s v=%s:\n  mcrgen: %v\n  naive:  %v",
				q.Canonical(), v.Canonical(), disjunctSet(fast), disjunctSet(naive))
		}
	}
}

// TestMCRConcurrentSharedPatterns runs many MCR computations over the
// same shared query/view patterns from concurrent goroutines; under
// -race this verifies that the interval-label caches and the streaming
// loop never write to shared pattern state.
func TestMCRConcurrentSharedPatterns(t *testing.T) {
	v := workload.Fig8View()
	q := workload.Fig8Query(4)
	want, err := MCR(q, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantSet := disjunctSet(want)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				res, err := MCR(q, v, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if !sameStrings(disjunctSet(res), wantSet) {
					t.Error("concurrent MCR produced a different union")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMCRStreamCancellation checks that cancelling the context aborts
// the streaming loop promptly with the context's error and leaves no
// goroutine behind.
func TestMCRStreamCancellation(t *testing.T) {
	defer leaktest.Check(t)()

	// Cancelled upfront: the stream aborts before any CR is built.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := workload.Fig8Query(7)
	v := workload.Fig8View()
	if _, err := MCR(q, v, Options{Context: ctx}); err == nil {
		t.Fatal("cancelled MCR returned nil error")
	}

	// Cancelled mid-flight: the exponential Figure 8 instance at n=12
	// is still enumerating and building when the cancel lands.
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := MCR(workload.Fig8Query(12), v, Options{Context: ctx, MaxEmbeddings: 1 << 22})
	cancel()
	if err == nil {
		t.Fatal("mid-flight cancelled MCR returned nil error")
	}
}
