package rewrite

import (
	"math/rand"
	"testing"

	"qav/internal/tpq"
	"qav/internal/workload"
)

// composedKey draws a key shaped like the benchmark's rewrite_cold
// keys: V and E random patterns of at most 6 nodes over a, b, c, E's
// root tag equal to V's output tag (retried, else E = /tag), q = E∘V.
func composedKey(tb testing.TB, rng *rand.Rand) (q, v *tpq.Pattern) {
	tb.Helper()
	alphabet := []string{"a", "b", "c"}
	v = workload.RandomPattern(rng, alphabet, 6)
	var e *tpq.Pattern
	for try := 0; ; try++ {
		e = workload.RandomPattern(rng, alphabet, 6)
		if e.Root.Tag == v.Output.Tag {
			break
		}
		if try == 64 {
			e = tpq.MustParse("/" + v.Output.Tag)
			break
		}
	}
	q, err := tpq.Compose(e, v)
	if err != nil {
		tb.Fatalf("compose %s with %s: %v", e, v, err)
	}
	return q, v
}

// coldKeys returns n composed keys as text, so each MCR below starts
// from freshly parsed patterns, as a cache-missing request does.
func coldKeys(tb testing.TB, n int) [][2]string {
	rng := rand.New(rand.NewSource(1))
	keys := make([][2]string, n)
	for i := range keys {
		q, v := composedKey(tb, rng)
		keys[i] = [2]string{q.String(), v.String()}
	}
	return keys
}

// mcrCold parses one key and computes its MCR.
func mcrCold(tb testing.TB, key [2]string) *Result {
	q, err := tpq.Parse(key[0])
	if err != nil {
		tb.Fatal(err)
	}
	v, err := tpq.Parse(key[1])
	if err != nil {
		tb.Fatal(err)
	}
	res, err := MCR(q, v, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

var coldSink *Result

// BenchmarkMCRCold measures one cache-missing MCR: parse a composed
// key, enumerate, build and verify, assemble. The keys cycle through a
// seeded pool of 4,000.
func BenchmarkMCRCold(b *testing.B) {
	keys := coldKeys(b, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldSink = mcrCold(b, keys[i%len(keys)])
	}
}

// mcrColdMaxAllocs bounds the mean allocations of one MCR over the
// first 500 cold keys, which take 262 (270 under -race). Building,
// verifying and extracting the compensation of a CR for every
// embedding instead of every domain's first one, and enumerating
// through a map, takes 439.
const mcrColdMaxAllocs = 285

// TestMCRColdAllocs guards the cost of a cache-missing MCR in
// allocations, which track its bytes and its collector work.
func TestMCRColdAllocs(t *testing.T) {
	keys := coldKeys(t, 500)
	allocs := testing.AllocsPerRun(5, func() {
		for _, k := range keys {
			mcrCold(t, k)
		}
	}) / float64(len(keys))
	if allocs > mcrColdMaxAllocs {
		t.Fatalf("one cold MCR allocates %.0f times, bound %d", allocs, mcrColdMaxAllocs)
	}
	t.Logf("one cold MCR: %.0f allocs", allocs)
}
