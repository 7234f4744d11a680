package router

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"qav/internal/tpq"
	"qav/internal/workload"
)

// twin spells p with every node's children in reverse order: the same
// canonical form, usually a different text.
func twin(p *tpq.Pattern) string {
	q := tpq.New(p.Root.Axis, p.Root.Tag)
	var cp func(src, dst *tpq.Node)
	cp = func(src, dst *tpq.Node) {
		if src == p.Output {
			q.SetOutput(dst)
		}
		for i := len(src.Children) - 1; i >= 0; i-- {
			c := src.Children[i]
			cp(c, dst.AddChild(c.Axis, c.Tag))
		}
	}
	cp(p.Root, q.Root)
	q.Reindex()
	return q.String()
}

type keyCase struct {
	path string
	body []byte
}

// memoCases builds seeded request bodies covering every shape
// affinityKey decodes, each paired with a canonical-twin spelling
// (twins[i] is the twin of cases[i], or nil when the shape has none).
func memoCases(t testing.TB, seed int64, n int) (cases []keyCase, twins [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	alphabet := []string{"a", "b", "c", "d"}
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	add := func(path string, body, twinBody []byte) {
		cases = append(cases, keyCase{path, body})
		twins = append(twins, twinBody)
	}
	for i := 0; i < n; i++ {
		q := workload.RandomPattern(rng, alphabet, 8)
		v := workload.RandomPattern(rng, alphabet, 5)
		qs, vs, qt, vt := q.String(), v.String(), twin(q), twin(v)
		add("/v1/rewrite", enc(map[string]any{"query": qs, "view": vs}),
			enc(map[string]any{"query": qt, "view": vt}))
		add("/v1/rewrite", enc(map[string]any{"query": qs, "view": vs, "schema": "a -> b c\nb -> d"}),
			enc(map[string]any{"query": qt, "view": vt, "schema": "a -> b c\nb -> d"}))
		add("/v1/rewrite", enc(map[string]any{"query": qs, "view": vs, "recursive": true}),
			enc(map[string]any{"query": qt, "view": vt, "recursive": true}))
		add("/v1/answer", enc(map[string]any{"query": qs, "viewName": "stored"}),
			enc(map[string]any{"query": qt, "viewName": "stored"}))
		add("/v1/contain", enc(map[string]any{"p": qs, "q": vs}),
			enc(map[string]any{"p": qt, "q": vt}))
		add("/v1/rewrite/batch", enc(map[string]any{"items": []map[string]string{{"query": qs, "view": vs}, {"query": vs, "view": qs}}}),
			enc(map[string]any{"items": []map[string]string{{"query": qt, "view": vt}}}))
		add("/v1/rewrite", enc(map[string]any{"query": qs + "[", "view": vs}), nil)
	}
	add("/v1/rewrite", []byte("junk"), nil)
	add("/v1/rewrite", []byte(`{"schema":"a -> b"}`), nil)
	add("/v1/views", nil, nil)
	return cases, twins
}

// TestCanonMemoMatchesUncached checks that keying through the memo
// gives exactly the uncached affinityKey, on first sight and on a hit,
// that canonical twins share one key, and that a text too large to
// memoize is still canonicalized.
func TestCanonMemoMatchesUncached(t *testing.T) {
	cases, twins := memoCases(t, 1, 200)
	r := &Router{canon: newCanonMemo()}
	for pass := 0; pass < 2; pass++ {
		for i, c := range cases {
			want := affinityKey(c.path, c.body, canonicalOr)
			if got := affinityKey(c.path, c.body, r.canonical); got != want {
				t.Fatalf("pass %d, %s %s: memoized key %q, uncached %q", pass, c.path, c.body, got, want)
			}
			if twins[i] == nil {
				continue
			}
			if got := affinityKey(c.path, twins[i], r.canonical); got != want {
				t.Fatalf("twin of %s keyed %q, want %q", c.body, got, want)
			}
		}
	}

	huge := "//a" + strings.Repeat("[b]", canonMemoBytes/8+1)
	if got, want := r.canonical(huge), canonicalOr(huge); got != want {
		t.Fatal("oversized text: memo result differs from canonicalOr")
	}
	if _, ok := r.canon.Get(huge); ok {
		t.Fatal("text larger than the memo budget was stored")
	}
}

// TestCanonMemoConcurrent shares one router's memo between goroutines
// that key the seeded bodies while flooding the memo with distinct
// texts, forcing wholesale resets under load. Run with -race.
func TestCanonMemoConcurrent(t *testing.T) {
	cases, _ := memoCases(t, 2, 50)
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = affinityKey(c.path, c.body, canonicalOr)
	}
	r := &Router{canon: newCanonMemo()}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, c := range cases {
					if got := affinityKey(c.path, c.body, r.canonical); got != want[i] {
						t.Errorf("goroutine %d: key %q, want %q", g, got, want[i])
						return
					}
					// A distinct text per step: 4×20×353 entries of about
					// 300 bytes, eight times the budget.
					r.canonical(fmt.Sprintf("//%s%d_%d_%d", strings.Repeat("t", 100), g, round, i))
				}
			}
		}(g)
	}
	wg.Wait()
}
