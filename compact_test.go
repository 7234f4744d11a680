package qav_test

// Every JSON body the stack writes is compact: the replica's endpoints,
// its errors and sheds, and the router's own endpoints and errors.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qav/internal/engine"
	"qav/internal/limits"
	"qav/internal/router"
	"qav/internal/server"
)

// requireCompact fails unless body is one valid JSON value written
// compactly and terminated by a newline.
func requireCompact(t *testing.T, name string, body []byte) {
	t.Helper()
	if !json.Valid(body) {
		t.Fatalf("%s: not JSON: %q", name, body)
	}
	var c bytes.Buffer
	if err := json.Compact(&c, body); err != nil {
		t.Fatal(err)
	}
	c.WriteByte('\n')
	if !bytes.Equal(body, c.Bytes()) {
		t.Fatalf("%s: body is not compact JSON plus a newline:\n%q", name, body)
	}
}

func TestResponseBodiesCompact(t *testing.T) {
	ht := router.NewHandlerTransport()
	var (
		urls     []string
		engines  []*engine.Engine
		services []*server.Service
	)
	for i := 0; i < 2; i++ {
		eng := engine.New(engine.Config{
			CacheSize: 64,
			Gate:      limits.New(limits.Config{MaxInFlight: 1}),
		})
		defer eng.Close()
		svc := server.NewService(eng)
		host := fmt.Sprintf("replica-%d", i)
		ht.Register(host, svc.Handler())
		engines, services = append(engines, eng), append(services, svc)
		urls = append(urls, "http://"+host)
	}
	r, err := router.New(router.Config{Replicas: urls, ProbeInterval: time.Hour, Retries: -1, Transport: ht})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitFirstProbes(t, r)
	replica := services[0].Handler()

	doc := `<PharmaLab><Trials><Trial><Patient>Jo &lt;"J"&gt;</Patient><Status/></Trial></Trials></PharmaLab>`
	docJSON, _ := json.Marshal(doc)
	type row struct {
		name   string
		h      http.Handler
		method string
		path   string
		body   string
		code   int
	}
	rows := []row{
		{"rewrite", replica, "POST", "/v1/rewrite", `{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}`, 200},
		{"rewrite unanswerable", replica, "POST", "/v1/rewrite", `{"query":"//a","view":"//b"}`, 200},
		{"batch", replica, "POST", "/v1/rewrite/batch", `{"items":[{"query":"//a[b]//c","view":"//a//c"},{"query":"//a[b]//c","view":"//a//c"},{"query":"//a[","view":"//a"}]}`, 200},
		{"contain", replica, "POST", "/v1/contain", `{"p":"//a/b","q":"//a//b"}`, 200},
		{"answer direct", replica, "POST", "/v1/answer", `{"query":"//Trials[//Status]//Trial/Patient","view":"//Trials//Trial","document":` + string(docJSON) + `}`, 200},
		{"register", replica, "POST", "/v1/views", `{"name":"src1","view":"//Trials//Trial","document":` + string(docJSON) + `}`, 200},
		{"answer stored", replica, "POST", "/v1/answer", `{"query":"//Trials//Trial/Patient","viewName":"src1"}`, 200},
		{"answer none", replica, "POST", "/v1/answer", `{"query":"//x","viewName":"src1"}`, 200},
		{"list views", replica, "GET", "/v1/views", "", 200},
		{"probe", replica, "GET", "/v1/views?q=//Trials//Trial&k=4", "", 200},
		{"probe empty", replica, "GET", "/v1/views?q=//Nowhere", "", 200},
		{"stats", replica, "GET", "/v1/stats", "", 200},
		{"slowlog", replica, "GET", "/v1/slowlog", "", 200},
		{"metrics", replica, "GET", "/metrics", "", 200},
		{"healthz", replica, "GET", "/healthz", "", 200},
		{"bad body", replica, "POST", "/v1/rewrite", `{"query":`, 400},
		{"bad probe", replica, "GET", "/v1/views?q=//a&k=-1", "", 400},
		{"unparsable", replica, "POST", "/v1/rewrite", `{"query":"//a[","view":"//a"}`, 422},
		{"routed rewrite", r.Handler(), "POST", "/v1/rewrite", `{"query":"//a[b]//c","view":"//a//c"}`, 200},
		{"routed error", r.Handler(), "POST", "/v1/answer", `{"query":"//a","viewName":"nope"}`, 422},
		{"router healthz", r.Handler(), "GET", "/healthz", "", 200},
		{"router cluster", r.Handler(), "GET", "/v1/cluster", "", 200},
		{"router metrics", r.Handler(), "GET", "/metrics", "", 200},
	}
	serve := func(rw row) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		rw.h.ServeHTTP(rec, httptest.NewRequest(rw.method, rw.path, strings.NewReader(rw.body)))
		if rec.Code != rw.code {
			t.Fatalf("%s: status %d, want %d: %s", rw.name, rec.Code, rw.code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", rw.name, ct)
		}
		requireCompact(t, rw.name, rec.Body.Bytes())
		return rec
	}
	for _, rw := range rows {
		serve(rw)
	}

	// Holding every replica's only compute slot sheds a miss: the
	// replica's own 429, then the router's when every replica sheds.
	for _, eng := range engines {
		release, err := eng.Gate().Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
	}
	miss := `{"query":"//p[q]//r","view":"//p//r"}`
	if rec := serve(row{"replica 429", replica, "POST", "/v1/rewrite", miss, 429}); rec.Header().Get("Retry-After") == "" {
		t.Fatal("replica 429 without Retry-After")
	}
	if rec := serve(row{"router 429", r.Handler(), "POST", "/v1/rewrite", miss, 429}); rec.Header().Get("X-QAV-Replica") != "" {
		t.Fatal("the all-saturated 429 came from a replica, not the router")
	}

	// Draining flips both health endpoints to 503 with the same bodies.
	services[0].StartDraining()
	r.StartDraining()
	serve(row{"healthz draining", replica, "GET", "/healthz", "", 503})
	serve(row{"router healthz draining", r.Handler(), "GET", "/healthz", "", 503})
	serve(row{"router draining error", r.Handler(), "POST", "/v1/rewrite", miss, 503})
}
