package main

import (
	"context"
	"fmt"
	"math/rand"

	"qav/internal/engine"
	"qav/internal/rewrite"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/workload"
)

// The catalog experiment measures the signature-indexed view catalog at
// 10⁴–10⁵ registrations: register throughput (signature construction
// included), candidate-lookup latency and allocation count, top-k
// selection, and the headline ablation — the batched MCRMultiView
// pipeline against the frozen flat-scan MCRMultiViewRef baseline over a
// 10k-view catalog with an anchored ('/'-rooted) probe query, asserting
// result equality while timing both.

// catalogTags is the root-tag universe size: with catalogChildFrac of
// the views '/'-rooted, an anchored probe's exact root partition holds
// about n·childFrac/catalogTags views.
const (
	catalogTags      = 100
	catalogChildFrac = 0.8
	catalogMaxNodes  = 10
	catalogProbeSize = 10
)

// E15: the signature-indexed catalog under load, printed from the
// kernels `-exp catalog -json` reports.
func expCatalog(ctx context.Context, eng *engine.Engine, seed int64) {
	kernels, err := catalogKernels(ctx, seed)
	if err != nil {
		panic(err)
	}
	printKernels("E15 signature-indexed view catalog (prune, shard, batch)", kernels)
	ref, batch := kernel(kernels, "multiview_ref_10k"), kernel(kernels, "multiview_batch_10k")
	fmt.Printf("multiview 10k speedup (ref/batch): %.1fx\n", ref.NsPerOp/batch.NsPerOp)
}

// runCatalogJSON measures the catalog kernels and writes one report to
// stdout.
func runCatalogJSON(ctx context.Context, seed int64) error {
	kernels, err := catalogKernels(ctx, seed)
	if err != nil {
		return err
	}
	return writeReport(seed, kernels, nil)
}

// catalogKernels measures the catalog at 10k and 100k views. The 100k
// anchored lookup is the acceptance point: at or under 1ms, zero
// allocations. The batched and reference multi-view unions must agree.
func catalogKernels(ctx context.Context, seed int64) ([]kernelResult, error) {
	var kernels []kernelResult
	add := func(r kernelResult) { kernels = append(kernels, r) }

	// Register throughput at 10k views, signature construction included.
	rng := rand.New(rand.NewSource(seed))
	views10k := workload.RandomCatalogViews(rng, 10000, catalogTags, catalogMaxNodes, catalogChildFrac)
	var cat10k *viewstore.Catalog
	{
		cat10k = viewstore.NewCatalog()
		i := 0
		add(measure("catalog_register_10k", len(views10k), func() {
			v := views10k[i]
			cat10k.Register(v.Name, &viewstore.Materialized{Expr: v.Expr})
			i++
		}))
	}

	sources := make([]rewrite.ViewSource, len(views10k))
	for i, v := range views10k {
		sources[i] = rewrite.ViewSource{Name: v.Name, View: v.Expr}
	}
	probe := workload.CatalogProbeQuery(rng, 0, catalogTags, catalogProbeSize)
	descProbe := tpq.MustParse("//" + workload.CatalogTag(1) + "[" + workload.CatalogTag(2) + "]")
	dst := make([]string, 0, 8192)

	// Candidate lookups at 10k: anchored (root-partition probe) and
	// unanchored (bitmap scan). Both must be allocation-free.
	lookup := func(name string, c *viewstore.Catalog, q *tpq.Pattern, iters int) {
		// Warm lazy pattern-index caches (and grow dst to its final
		// capacity) outside the measured loop.
		var err error
		if dst, err = c.Candidates(ctx, q, dst[:0]); err != nil {
			panic(err)
		}
		add(measure(name, iters, func() {
			var err error
			if dst, err = c.Candidates(ctx, q, dst[:0]); err != nil {
				panic(err)
			}
		}))
	}
	lookup("catalog_candidates_anchored_10k", cat10k, probe, 5000)
	lookup("catalog_candidates_descendant_10k", cat10k, descProbe, 5000)

	// Top-k selection at 10k.
	add(measure("catalog_select_top16_10k", 500, func() {
		if _, err := cat10k.SelectViews(ctx, probe, 16); err != nil {
			panic(err)
		}
	}))

	// Candidate lookup at 100k views — the acceptance point: at or
	// under 1ms, zero allocations.
	{
		views100k := workload.RandomCatalogViews(rng, 100000, catalogTags, catalogMaxNodes, catalogChildFrac)
		cat100k := viewstore.NewCatalog()
		for _, v := range views100k {
			cat100k.Register(v.Name, &viewstore.Materialized{Expr: v.Expr})
		}
		lookup("catalog_candidates_anchored_100k", cat100k, probe, 1000)
		lookup("catalog_candidates_descendant_100k", cat100k, descProbe, 1000)
	}

	// The headline ablation: frozen flat-scan baseline vs batched
	// pipeline over the 10k catalog, anchored probe, identical results.
	{
		var ref, batch *rewrite.MultiViewResult
		add(measure("multiview_ref_10k", 3, func() {
			var err error
			if ref, err = rewrite.MCRMultiViewRef(probe, sources, rewrite.Options{Context: ctx}); err != nil {
				panic(err)
			}
		}))
		add(measure("multiview_batch_10k", 10, func() {
			var err error
			if batch, err = rewrite.MCRMultiView(probe, sources, rewrite.Options{Context: ctx}); err != nil {
				panic(err)
			}
		}))
		if batch.Union.String() != ref.Union.String() {
			return nil, fmt.Errorf("multiview: batch union %s != ref union %s", batch.Union, ref.Union)
		}
	}
	return kernels, nil
}
