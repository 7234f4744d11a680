package server

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"qav/internal/engine"
	"qav/internal/rewrite"
	"qav/internal/tpq"
	"qav/internal/workload"
)

// rewriteText parses t and rewrites it through eng, as POST /v1/rewrite
// does.
func rewriteText(ctx context.Context, eng *engine.Engine, t engine.Text) (*rewrite.Result, error) {
	req, err := eng.Parse(engine.OpRewrite, t)
	if err != nil {
		return nil, err
	}
	return eng.Rewrite(ctx, req)
}

// checkMemoBody serves res through writeRewrite twice (an encode, then
// a memo hit, or a second encode for a Partial result) and requires
// both responses to be byte-identical to a fresh writeJSON of the same
// result.
func checkMemoBody(t *testing.T, s *Service, res *rewrite.Result) {
	t.Helper()
	want := httptest.NewRecorder()
	writeJSON(want, buildRewriteResponse(res))
	for i := 0; i < 2; i++ {
		got := httptest.NewRecorder()
		s.writeRewrite(got, res)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("serve %d: %d %q\n%s\nwant %d %q\n%s", i, got.Code, got.Header().Get("Content-Type"), got.Body,
				want.Code, want.Header().Get("Content-Type"), want.Body)
		}
	}
	if _, ok := s.bodies.Get(res); ok == res.Partial {
		t.Fatalf("body memoized = %v for a result with Partial = %v", ok, res.Partial)
	}
}

// TestRewriteBodyMemoByteIdentical covers seeded composed queries
// (q = E∘V, so answerable), unrelated ones, and the HTTP
// path: a cache hit returns the memoized body for the engine's shared
// result.
func TestRewriteBodyMemoByteIdentical(t *testing.T) {
	eng := engine.New(engine.Config{CacheSize: 256})
	s := NewService(eng)
	rng := rand.New(rand.NewSource(3))
	alphabet := []string{"a", "b", "c"}
	ctx := context.Background()
	answerable := 0
	for i := 0; i < 100; i++ {
		v := workload.RandomPattern(rng, alphabet, 5)
		e := workload.RandomPattern(rng, alphabet, 4)
		// Compose needs E's root tag to be V's output tag; otherwise
		// the query is an unrelated random pattern.
		q, err := tpq.Compose(e, v)
		if err != nil {
			q = workload.RandomPattern(rng, alphabet, 6)
		}
		req := engine.Text{Query: q.String(), View: v.String()}
		if i%5 == 0 {
			req.View = workload.RandomPattern(rng, alphabet, 5).String()
		}
		res, err := rewriteText(ctx, eng, req)
		if err != nil {
			t.Fatal(err)
		}
		checkMemoBody(t, s, res)
		if !res.Union.Empty() {
			answerable++
		}
	}
	if answerable < 10 || answerable > 90 {
		t.Fatalf("%d of 100 seeded requests answerable; want both kinds covered", answerable)
	}

	body := `{"query":"//a[b]//c","view":"//a//c"}`
	first, _ := post(t, s.Handler(), "/v1/rewrite", body)
	second, _ := post(t, s.Handler(), "/v1/rewrite", body)
	res, err := rewriteText(ctx, eng, engine.Text{Query: "//a[b]//c", View: "//a//c"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeJSON(buildRewriteResponse(res))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Body.Bytes(), want) || !bytes.Equal(second.Body.Bytes(), want) {
		t.Fatalf("served bodies\n%s\n%s\nwant\n%s", first.Body, second.Body, want)
	}
	requireCompact(t, second.Body.Bytes())
}

// TestRewriteBodyMemoPartial checks a Partial result's body, which
// carries the partial fields, against a fresh encode, and that it is
// not memoized: the engine never caches a Partial result, so its
// pointer could never hit.
func TestRewriteBodyMemoPartial(t *testing.T) {
	eng := engine.New(engine.Config{MaxEmbeddings: 8})
	s := NewService(eng)
	res, err := rewriteText(context.Background(), eng, engine.Text{
		Query: workload.Fig8Query(6).String(), View: workload.Fig8View().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("an 8-embedding budget on Fig8Query(6) did not yield a partial result")
	}
	checkMemoBody(t, s, res)
}
