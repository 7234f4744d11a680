package rewrite

import (
	"fmt"
	"math/rand"
	"testing"

	"qav/internal/chase"
	"qav/internal/obs"
	"qav/internal/tpq"
	"qav/internal/workload"
)

// referenceRecursive is the frozen serial §5 path MCRRecursive ran
// before it shared MCR's loop: enumerate every useful embedding into
// the chased view first, keeping the first of each domain, then build
// and verify those in enumeration order, then assemble. It is the
// oracle of TestMCRRecursiveMatchesReference.
func referenceRecursive(sc *SchemaContext, q, v *tpq.Pattern, opts Options) (*Result, error) {
	limit := opts.MaxEmbeddings
	if limit <= 0 {
		limit = DefaultMaxEmbeddings
	}
	ctx := opts.ctx()
	if q.HasWildcard() || v.HasWildcard() {
		return nil, fmt.Errorf("rewrite: wildcard patterns are outside XP{/,//,[]}; the MCR algorithms do not support them")
	}
	if !sc.Schema.Satisfiable(v) || !sc.Schema.Satisfiable(q) {
		return &Result{Union: &tpq.Union{}}, nil
	}
	sp := obs.SpanFrom(ctx)
	t := sp.Start()
	vPrime := chase.Intelligent(v, q, sc.Sigma)
	sp.Observe(obs.StageChase, t)
	// Every embedding is validated and counted as it is emitted; only
	// the first of each domain is kept for building (crGen), after
	// the enumeration so the two stages stay apart.
	g := newCRGen(ctx, q, v, sc)
	var firsts []*Embedding
	considered := 0
	t = sp.Start()
	labels := ComputeLabels(q, vPrime, sc.graftCut(vPrime.Output.Tag))
	err := labels.Stream(ctx, limit, func(f *Embedding) error {
		first, err := g.fresh(f)
		if err != nil {
			return err
		}
		if first {
			firsts = append(firsts, f)
		}
		considered++
		return nil
	})
	sp.Observe(obs.StageEnumerate, t)
	// Budget/deadline overruns degrade gracefully: the embeddings
	// streamed before the wall are built, and each CR below is
	// individually verified S-contained, so the partial union is sound.
	reason := PartialReason("")
	if err != nil {
		if reason = partialReason(err); reason == "" {
			return nil, err
		}
	}
	var crs []*ContainedRewriting
	for i, f := range firsts {
		if i&255 == 0 {
			if err := ctx.Err(); err != nil {
				if r := partialReason(err); r != "" {
					// Deadline fired mid-build: keep what is finished.
					reason = r
					break
				}
				return nil, err
			}
		}
		cr, err := g.build(f)
		if err != nil {
			return nil, err
		}
		if cr != nil {
			crs = append(crs, cr)
		}
	}
	if reason != "" {
		return refAssemblePartial(crs, considered, reason), nil
	}
	res, err := refAssembleResult(ctx, crs, considered, sc.SContained)
	if err != nil {
		if r := partialReason(err); r != "" {
			// Deadline inside schema-relative redundancy elimination.
			return refAssemblePartial(crs, considered, r), nil
		}
		return nil, err
	}
	return res, nil
}

// TestMCRRecursiveMatchesReference pins MCRRecursive, now MCR's
// loop under a schema, to the frozen serial §5 loop: the same CRs in
// the same order, with the same rewritings, compensations and
// representative embeddings, and the same embedding count. The Figure
// 15 family grows to 64 CRs at k = 6; the random DAG schemas are
// forced down §5 although the recursion-free algorithm would serve
// them.
func TestMCRRecursiveMatchesReference(t *testing.T) {
	check := func(what string, sc *SchemaContext, q, v *tpq.Pattern, opts Options) int {
		t.Helper()
		want, wantErr := referenceRecursive(sc, q, v, opts)
		got, gotErr := sc.MCRRecursive(q, v, opts)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s q=%s v=%s: error %v, reference %v", what, q, v, gotErr, wantErr)
		}
		if wantErr != nil {
			return 0
		}
		if got.Partial != want.Partial || got.PartialReason != want.PartialReason {
			t.Fatalf("%s q=%s v=%s: partial %v %q, reference %v %q", what, q, v, got.Partial, got.PartialReason, want.Partial, want.PartialReason)
		}
		if got.EmbeddingsConsidered != want.EmbeddingsConsidered {
			t.Fatalf("%s q=%s v=%s: %d embeddings considered, reference %d", what, q, v, got.EmbeddingsConsidered, want.EmbeddingsConsidered)
		}
		if len(got.CRs) != len(want.CRs) || len(got.Union.Patterns) != len(got.CRs) {
			t.Fatalf("%s q=%s v=%s: %d CRs (%d disjuncts), reference %d", what, q, v, len(got.CRs), len(got.Union.Patterns), len(want.CRs))
		}
		for i := range want.CRs {
			g, w := got.CRs[i], want.CRs[i]
			if g.Rewriting.Canonical() != w.Rewriting.Canonical() || got.Union.Patterns[i] != g.Rewriting {
				t.Fatalf("%s q=%s v=%s: CR %d is %s, reference %s", what, q, v, i, g.Rewriting, w.Rewriting)
			}
			if g.Compensation == nil || g.Compensation.Canonical() != w.Compensation.Canonical() {
				t.Fatalf("%s q=%s v=%s: CR %d compensation %v, reference %s", what, q, v, i, g.Compensation, w.Compensation)
			}
			if gs, ws := g.Embedding.Signature(), w.Embedding.Signature(); gs != ws {
				t.Fatalf("%s q=%s v=%s: CR %d embedding %s, reference %s", what, q, v, i, gs, ws)
			}
		}
		return len(got.CRs)
	}

	v := tpq.MustParse("//a//b")
	for k := 1; k <= 6; k++ {
		sc := NewSchemaContext(workload.Fig15Schema(k))
		if n := check(fmt.Sprintf("fig15 k=%d", k), sc, workload.Fig15Query(k), v, Options{}); n == 0 {
			t.Fatalf("fig15 k=%d: empty MCR", k)
		}
	}

	answerable := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := workload.RandomDAGSchema(rng, 3+rng.Intn(5), 0.45)
		sc := NewSchemaContext(g)
		q := workload.RandomSchemaPattern(rng, g, 5)
		v := workload.RandomSchemaPattern(rng, g, 4)
		if check(fmt.Sprintf("seed %d", seed), sc, q, v, Options{}) > 0 {
			answerable++
		}
		check(fmt.Sprintf("seed %d budget 2", seed), sc, q, v, Options{MaxEmbeddings: 2})
	}
	if answerable < 20 {
		t.Fatalf("only %d of 200 random schema pairs are answerable", answerable)
	}
	t.Logf("%d of 200 random schema pairs answerable", answerable)
}
