package rewrite

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"qav/internal/schema"
	"qav/internal/tpq"
	"qav/internal/workload"
)

// countdownCtx is a deadline that fires on a call count instead of a
// clock: Err reports context.DeadlineExceeded from its n-th call on, so
// a test can land the deadline at every point of a run in turn.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

func deadlineAfter(n int) context.Context {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(int64(n))
	return c
}

// TestCompensationPresent checks that every CR reaching a Result or a
// MultiViewResult carries its compensation, for every entry point and
// for their Partial results at the embedding budget and the deadline:
// the generators build CRs without compensations and leave their
// extraction to assemble, and AnswerMultiView and plan.Compile read the
// field without a nil check. Its deadline sweeps also hold every entry
// point to the one Partial rule: a deadline never fails the call, and a
// result not marked Partial is the whole undeadlined union.
func TestCompensationPresent(t *testing.T) {
	partials := make(map[string]int) // partial results with CRs, by entry point and reason
	check := func(what string, crs []*ContainedRewriting, reason PartialReason) {
		t.Helper()
		for i, cr := range crs {
			if cr.Compensation == nil {
				t.Fatalf("%s: CR %d (%s) has no compensation", what, i, cr.Rewriting)
			}
		}
		if reason != "" && len(crs) > 0 {
			partials[what+" "+string(reason)]++
		}
	}
	// complete checks a deadline-swept run against the undeadlined
	// union: no error, and the same union unless marked Partial.
	complete := func(what string, k int, err error, partial bool, got, want *tpq.Union) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s deadline after %d polls: %v", what, k, err)
		}
		if !partial && got.String() != want.String() {
			t.Fatalf("%s deadline after %d polls: complete union %s, undeadlined %s", what, k, got, want)
		}
	}

	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		q, v := composedKey(t, rng)
		for _, limit := range []int{0, 1, 3} {
			res, err := MCR(q, v, Options{MaxEmbeddings: limit})
			if err != nil {
				t.Fatalf("MCR q=%s v=%s: %v", q, v, err)
			}
			check("MCR", res.CRs, res.PartialReason)
		}
	}
	// Figure 8 at n = 3 and n = 6, a few and many CRs; the deadline
	// lands at every poll in turn.
	for _, n := range []int{3, 6} {
		q, v := workload.Fig8Query(n), workload.Fig8View()
		full, err := MCR(q, v, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 40; k++ {
			res, err := MCR(q, v, Options{Context: deadlineAfter(k)})
			if res == nil {
				res = &Result{}
			}
			complete(fmt.Sprintf("MCR fig8 n=%d", n), k, err, res.Partial, res.Union, full.Union)
			check("MCR", res.CRs, res.PartialReason)
		}
	}

	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := workload.RandomDAGSchema(rng, 3+rng.Intn(5), 0.45)
		sc := NewSchemaContext(g)
		q := workload.RandomSchemaPattern(rng, g, 4)
		v := workload.RandomSchemaPattern(rng, g, 4)
		res, err := sc.MCRWithSchemaCtx(context.Background(), q, v)
		if err != nil {
			t.Fatalf("MCRWithSchemaCtx q=%s v=%s: %v", q, v, err)
		}
		check("MCRWithSchemaCtx", res.CRs, res.PartialReason)
	}

	// The Figure 15 recursive schema admits all four Figure 9 CRs.
	sc := NewSchemaContext(schema.MustParse(`
root a
a -> b*
b -> b* c? d?
c ->
d ->
`))
	q, v := workload.Fig9Query(), workload.Fig9View()
	for limit := 0; limit < 8; limit++ {
		res, err := sc.MCRRecursive(q, v, Options{MaxEmbeddings: limit})
		if err != nil {
			t.Fatalf("MCRRecursive limit %d: %v", limit, err)
		}
		check("MCRRecursive", res.CRs, res.PartialReason)
	}
	full, err := sc.MCRRecursive(q, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		res, err := sc.MCRRecursive(q, v, Options{Context: deadlineAfter(k)})
		if res == nil {
			res = &Result{}
		}
		complete("MCRRecursive", k, err, res.Partial, res.Union, full.Union)
		check("MCRRecursive", res.CRs, res.PartialReason)
	}

	for i := 0; i < 100; i++ {
		q, v := composedKey(t, rng)
		views := []ViewSource{{Name: "v", View: v}}
		for j := 0; j < 3; j++ {
			_, w := composedKey(t, rng)
			views = append(views, ViewSource{Name: fmt.Sprint("w", j), View: w})
		}
		for _, limit := range []int{0, 1, 3} {
			res, err := MCRMultiView(q, views, Options{MaxEmbeddings: limit})
			if err != nil {
				t.Fatalf("MCRMultiView q=%s: %v", q, err)
			}
			check("MCRMultiView", res.CRs, res.PartialReason)
		}
		full, err := MCRMultiView(q, views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 6; k++ {
			res, err := MCRMultiView(q, views, Options{Context: deadlineAfter(k)})
			if res == nil {
				res = &MultiViewResult{}
			}
			complete(fmt.Sprintf("MCRMultiView q=%s", q), k, err, res.Partial, res.Union, full.Union)
			check("MCRMultiView", res.CRs, res.PartialReason)
		}
	}

	for _, want := range []string{
		"MCR budget", "MCR deadline",
		"MCRRecursive budget", "MCRRecursive deadline",
		"MCRMultiView budget", "MCRMultiView deadline",
	} {
		if partials[want] == 0 {
			t.Errorf("no %s partial result with CRs was exercised", want)
		}
	}
	t.Logf("partial results with CRs checked: %v", partials)
}
