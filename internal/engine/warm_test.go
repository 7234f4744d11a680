package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"qav/internal/leaktest"
	"qav/internal/rewrite"
	"qav/internal/tpq"
	"qav/internal/workload"
)

// warmPairs is the restart workload: n distinct random size-6
// query/view pairs from a fixed seed.
func warmPairs(n int) []Text {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "b", "c"}
	reqs := make([]Text, n)
	for i := range reqs {
		reqs[i].Query = workload.RandomPattern(rng, alphabet, 6).String()
		reqs[i].View = workload.RandomPattern(rng, alphabet, 6).String()
	}
	return reqs
}

// A restarted engine serves previously computed rewritings as warm
// hits: every persisted result is replayed, nothing is recomputed
// (the miss counter stays zero), each result decodes to the same
// union, and the tier counters make the warm hits visible.
func TestWarmBootServesRewriteWithoutRecompute(t *testing.T) {
	defer leaktest.Check(t)()
	for _, tc := range []struct {
		name string
		reqs []Text
	}{
		{"trials", []Text{{Query: "//Trials[//Status]//Trial", View: "//Trials//Trial"}}},
		{"random6x200", warmPairs(200)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.reqs)
			dir := t.TempDir()
			cfg := Config{CacheSize: 2 * n, CacheDir: dir}

			e1 := New(cfg)
			if wb := e1.WarmBootInfo(); !wb.Enabled || wb.Err != "" {
				t.Fatalf("warm boot info = %+v, want enabled tier", wb)
			}
			want := make([]*rewrite.Result, n)
			for i, req := range tc.reqs {
				var err error
				if want[i], err = rewriteText(e1, req); err != nil {
					t.Fatal(err)
				}
			}
			if err := e1.Close(); err != nil {
				t.Fatal(err)
			}
			if st := e1.Stats(); st.Persisted != int64(n) {
				t.Fatalf("persisted = %d, want %d", st.Persisted, n)
			}

			e2 := New(cfg)
			defer e2.Close()
			if wb := e2.WarmBootInfo(); wb.Replayed != int64(n) || wb.Err != "" || wb.TruncatedBytes != 0 {
				t.Fatalf("second boot = %+v, want a clean replay of %d", wb, n)
			}
			for i, req := range tc.reqs {
				got, err := rewriteText(e2, req)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Union.SameAs(want[i].Union) {
					t.Errorf("%v: warm union %s != original %s", req, got.Union, want[i].Union)
				}
				if len(got.CRs) != len(want[i].CRs) {
					t.Errorf("%v: warm CRs = %d, want %d", req, len(got.CRs), len(want[i].CRs))
				}
				for _, cr := range got.CRs {
					if cr.Compensation == nil {
						t.Errorf("%v: restored CR lost its compensation", req)
					}
				}
			}
			st := e2.Stats()
			if st.CacheWarmHits != int64(n) {
				t.Errorf("warm hits = %d, want %d", st.CacheWarmHits, n)
			}
			if st.CacheMisses != 0 {
				t.Errorf("misses = %d, want 0 (the pipeline must not recompute)", st.CacheMisses)
			}
			// The replay must also be visible in /metrics: stage credit +
			// tier counters in the cache snapshot.
			snap := e2.MetricsSnapshot()
			if snap.Cache == nil || snap.Cache.WarmHits != int64(n) || snap.Cache.Replayed != int64(n) {
				t.Errorf("metrics cache snapshot = %+v, want warmHits=replayed=%d", snap.Cache, n)
			}
			if _, ok := snap.Stages["cache.replay"]; !ok {
				t.Error("cache.replay stage missing from metrics")
			}
		})
	}
}

// BenchmarkWarmBoot times one restart: an engine opened on a segment
// of 200 persisted rewritings replays it and serves every request from
// the warm tier.
func BenchmarkWarmBoot(b *testing.B) {
	reqs := warmPairs(200)
	cfg := Config{CacheSize: 2 * len(reqs), CacheDir: b.TempDir()}
	cold := New(cfg)
	for _, req := range reqs {
		if _, err := rewriteText(cold, req); err != nil {
			b.Fatal(err)
		}
	}
	if err := cold.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(cfg)
		for _, req := range reqs {
			if _, err := rewriteText(e, req); err != nil {
				b.Fatal(err)
			}
		}
		if st := e.Stats(); st.CacheMisses != 0 {
			b.Fatalf("warm boot recomputed %d requests", st.CacheMisses)
		}
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
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
