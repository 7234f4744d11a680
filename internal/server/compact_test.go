package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"qav/internal/engine"
	"qav/internal/tpq"
	"qav/internal/viewstore"
)

// requireCompact fails unless body is one valid JSON value written
// compactly and terminated by a newline.
func requireCompact(t *testing.T, body []byte) {
	t.Helper()
	if !json.Valid(body) {
		t.Fatalf("not JSON: %q", body)
	}
	var c bytes.Buffer
	if err := json.Compact(&c, body); err != nil {
		t.Fatal(err)
	}
	c.WriteByte('\n')
	if !bytes.Equal(body, c.Bytes()) {
		t.Fatalf("body is not compact JSON plus a newline:\n%q", body)
	}
}

// TestProbeBodyFollowsSelection probes a catalog of 10 views and the
// same catalog grown to 10,000 with views the query cannot use: the
// selection is the same, and so is the body apart from the digits of
// the catalog statistics.
func TestProbeBodyFollowsSelection(t *testing.T) {
	eng := engine.New(engine.Config{CacheSize: 16})
	h := NewWith(eng)
	register := func(from, to int, expr func(i int) string) {
		for i := from; i < to; i++ {
			e := tpq.MustParse(expr(i))
			eng.RegisterView(fmt.Sprintf("v%05d", i), &viewstore.Materialized{Expr: e})
		}
	}
	probe := func() (stats, selected json.RawMessage, size int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/views?q=//Trials[//Status]//Trial/Patient&k=16", nil))
		requireCompact(t, rec.Body.Bytes())
		var body struct {
			Stats    json.RawMessage `json:"stats"`
			Selected json.RawMessage `json:"selected"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		return body.Stats, body.Selected, rec.Body.Len()
	}
	register(0, 5, func(i int) string { return fmt.Sprintf("//Trials//Trial[Status%d]", i) })
	register(5, 10, func(int) string { return "//Trials" })
	smallStats, smallSel, smallSize := probe()
	register(10, 10000, func(int) string { return "//Other[Misc]//Item" })
	largeStats, largeSel, largeSize := probe()

	if !bytes.Equal(smallSel, largeSel) || string(smallSel) == "[]" {
		t.Fatalf("selection changed with the catalog:\n%s\n%s", smallSel, largeSel)
	}
	if eng.ViewStats().Views != 10000 {
		t.Fatalf("%d views registered", eng.ViewStats().Views)
	}
	if smallSize-len(smallStats) != largeSize-len(largeStats) {
		t.Fatalf("probe body %d bytes over 10 views (stats %s), %d over 10,000 (stats %s)",
			smallSize, smallStats, largeSize, largeStats)
	}
}
