package engine

import (
	"context"
	"errors"
	"testing"

	"qav/internal/leaktest"
	"qav/internal/rewrite"
	"qav/internal/tpq"
)

// A restarted engine serves a previously computed rewriting as a warm
// hit: no recompute (miss counter stays zero), the result decodes to
// the same union, and the tier counters make the warm hit visible.
func TestWarmBootServesRewriteWithoutRecompute(t *testing.T) {
	defer leaktest.Check(t)()
	dir := t.TempDir()
	req := Text{Query: "//Trials[//Status]//Trial", View: "//Trials//Trial"}

	e1 := New(Config{CacheSize: 16, CacheDir: dir})
	if wb := e1.WarmBootInfo(); !wb.Enabled || wb.Err != "" {
		t.Fatalf("warm boot info = %+v, want enabled tier", wb)
	}
	want, err := rewriteText(e1, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e1.Stats(); st.Persisted != 1 {
		t.Fatalf("persisted = %d, want 1", st.Persisted)
	}

	e2 := New(Config{CacheSize: 16, CacheDir: dir})
	defer e2.Close()
	if wb := e2.WarmBootInfo(); wb.Replayed != 1 {
		t.Fatalf("second boot replayed = %d, want 1", wb.Replayed)
	}
	got, err := rewriteText(e2, req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Union.SameAs(want.Union) {
		t.Errorf("warm union %s != original %s", got.Union, want.Union)
	}
	if len(got.CRs) != len(want.CRs) {
		t.Errorf("warm CRs = %d, want %d", len(got.CRs), len(want.CRs))
	}
	for _, cr := range got.CRs {
		if cr.Compensation == nil {
			t.Error("restored CR lost its compensation")
		}
	}
	st := e2.Stats()
	if st.CacheWarmHits != 1 {
		t.Errorf("warm hits = %d, want 1", st.CacheWarmHits)
	}
	if st.CacheMisses != 0 {
		t.Errorf("misses = %d, want 0 (the pipeline must not recompute)", st.CacheMisses)
	}
	// The replay must also be visible in /metrics: stage credit + tier
	// counters in the cache snapshot.
	snap := e2.MetricsSnapshot()
	if snap.Cache == nil || snap.Cache.WarmHits != 1 || snap.Cache.Replayed != 1 {
		t.Errorf("metrics cache snapshot = %+v, want warmHits=1 replayed=1", snap.Cache)
	}
	if _, ok := snap.Stages["cache.replay"]; !ok {
		t.Error("cache.replay stage missing from metrics")
	}
}

// A broken cache directory (a file where the directory should be)
// degrades to a memory-only engine instead of failing construction.
func TestWarmBootOpenFailureIsNonFatal(t *testing.T) {
	e := New(Config{CacheSize: 16, CacheDir: "/dev/null"})
	defer e.Close()
	wb := e.WarmBootInfo()
	if wb.Enabled {
		t.Error("tier must be disabled after an open failure")
	}
	if wb.Err == "" {
		t.Error("open failure not reported")
	}
	if _, err := rewriteText(e, Text{
		Query: "//a[b]", View: "//a",
	}); err != nil {
		t.Errorf("memory-only fallback broken: %v", err)
	}
}

// The codec round-trips complete results and refuses partial ones.
func TestResultCodecRoundTrip(t *testing.T) {
	res, err := rewrite.MCR(tpq.MustParse("//Trials[//Status]//Trial"), tpq.MustParse("//Trials//Trial"), rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := resultCodec{}.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := resultCodec{}.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Union.SameAs(res.Union) {
		t.Errorf("decoded union %s != %s", back.Union, res.Union)
	}
	if back.EmbeddingsConsidered != res.EmbeddingsConsidered {
		t.Errorf("embeddings = %d, want %d", back.EmbeddingsConsidered, res.EmbeddingsConsidered)
	}
	if _, err := (resultCodec{}).Encode(&rewrite.Result{Partial: true}); err == nil {
		t.Error("partial result must not encode")
	}
	if _, err := (resultCodec{}).Decode([]byte(`{"v":99}`)); err == nil {
		t.Error("foreign wire version must not decode")
	}
	// A "not answerable" result (empty union) is a complete, cacheable
	// fact and must round-trip too.
	empty := &rewrite.Result{Union: &tpq.Union{}}
	b, err = resultCodec{}.Encode(empty)
	if err != nil {
		t.Fatal(err)
	}
	if back, err = (resultCodec{}).Decode(b); err != nil || !back.Union.Empty() {
		t.Errorf("empty union round-trip: %v, %v", back, err)
	}
}

// Canonically identical but syntactically different requests collapse
// to one parse, one cache key, and therefore one computation.
func TestInternCollapsesCanonicalTwins(t *testing.T) {
	e := New(Config{CacheSize: 16})
	// Same canonical form, different predicate order — distinct text,
	// distinct parses, one equivalence class.
	spellings := []string{
		"//Trials[//Status][//Phase]//Trial",
		"//Trials[//Phase][//Status]//Trial",
	}
	for _, s := range spellings {
		if _, err := rewriteText(e, Text{Query: s, View: "//Trials//Trial"}); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
	}
	st := e.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("misses = %d, want 1 (two spellings, one computation)", st.CacheMisses)
	}
	if st.CacheHits != 1 {
		t.Errorf("hits = %d, want 1", st.CacheHits)
	}
	if st.InternDedups < 1 {
		t.Errorf("internDedups = %d, want >= 1 (the second spelling collapsed)", st.InternDedups)
	}
	// Exact-text repeats skip the parse entirely.
	if _, err := rewriteText(e, Text{Query: spellings[0], View: "//Trials//Trial"}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.InternHits < 2 {
		t.Errorf("internHits = %d, want >= 2", st.InternHits)
	}
}

// RewriteBatch: per-item errors stay per-item, canonical duplicates
// share one computation, and outcomes stay index-aligned.
func TestRewriteBatch(t *testing.T) {
	e := New(Config{CacheSize: 16})
	outs := e.RewriteBatch(context.Background(), []Text{
		{Query: "//Trials[//Status][//Phase]//Trial", View: "//Trials//Trial"},
		{Query: "//Trials[//Status//", View: "//Trials//Trial"},                // malformed
		{Query: "//Trials[//Phase][//Status]//Trial", View: "//Trials//Trial"}, // canonical twin of item 0
		{Query: "//x[y]", View: "//x"},
	})
	if len(outs) != 4 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	if outs[0].Err != nil || outs[0].Result == nil || outs[0].Shared {
		t.Errorf("item 0 = %+v, want leading success", outs[0])
	}
	var inv *InvalidRequestError
	if outs[1].Err == nil || !errors.As(outs[1].Err, &inv) {
		t.Errorf("item 1 err = %v, want InvalidRequestError", outs[1].Err)
	}
	if outs[2].Err != nil || !outs[2].Shared {
		t.Errorf("item 2 = %+v, want shared success", outs[2])
	}
	if outs[2].Result != outs[0].Result {
		t.Error("canonical twins must share one result")
	}
	if outs[3].Err != nil || outs[3].Shared {
		t.Errorf("item 3 = %+v, want independent success", outs[3])
	}
	if st := e.Stats(); st.CacheMisses != 2 {
		t.Errorf("misses = %d, want 2 (two distinct keys computed)", st.CacheMisses)
	}
}
