package qav_test

// The in-process fabric (router.HandlerTransport) stands in for the
// sockets between the router and its replicas in the cluster tests and
// the repository benchmark. TestFabricMatchesLoopback holds what it
// hands the router to what a real server and client give for the same
// handler; TestFabricRoundTripBytes bounds what one round trip costs
// beyond the replica handler itself.

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qav/internal/engine"
	"qav/internal/fault"
	"qav/internal/limits"
	"qav/internal/names"
	"qav/internal/router"
	"qav/internal/server"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/workload"
)

// socketOnly are the response headers net/http's server adds by itself
// when it writes a response to a connection, and which the fabric,
// having no connection, does not.
var socketOnly = []string{"Date", "Content-Length"}

// TestFabricMatchesLoopback sends the same requests to one replica
// handler over the fabric and over a loopback httptest.Server, and
// demands the same status, the same headers (those the router copies
// to its client, less socketOnly) and the same body, for every outcome
// a replica serves: 200s, the 400/413/422 refusals, a shed 429 with its
// Retry-After, a recovered handler panic, the 404/405 of the mux, and
// /healthz before and after draining.
func TestFabricMatchesLoopback(t *testing.T) {
	d, err := workload.ClinicalTrialsDoc(context.Background(), rand.New(rand.NewSource(3)), 4, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	gate := limits.New(limits.Config{MaxInFlight: 1})
	eng := engine.New(engine.Config{CacheSize: 64, Gate: gate})
	defer eng.Close()
	eng.RegisterView("trials", viewstore.Materialize(tpq.MustParse("//Trials"), d))
	svc := server.NewService(eng)
	ht := router.NewHandlerTransport()
	ht.Register("replica", svc.Handler())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	type outcome struct {
		status int
		header http.Header
		body   []byte
	}
	send := func(rt http.RoundTripper, base, method, path string, body []byte) outcome {
		t.Helper()
		var rd io.Reader
		if body != nil {
			// No declared length: the replica reads the body until it
			// ends or passes its limit, on both transports alike.
			rd = io.MultiReader(bytes.NewReader(body))
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := rt.RoundTrip(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: reading body: %v", method, path, err)
		}
		for _, k := range socketOnly {
			resp.Header.Del(k)
		}
		return outcome{resp.StatusCode, resp.Header, b}
	}
	check := func(name string, want int, method, path string, body []byte) {
		t.Helper()
		fab := send(ht, "http://replica", method, path, body)
		sock := send(srv.Client().Transport, srv.URL, method, path, body)
		if fab.status != want {
			t.Errorf("%s: fabric status %d, want %d: %s", name, fab.status, want, fab.body)
		}
		if fab.status != sock.status {
			t.Errorf("%s: status %d over the fabric, %d over a socket", name, fab.status, sock.status)
		}
		if !reflect.DeepEqual(fab.header, sock.header) {
			t.Errorf("%s: header %v over the fabric, %v over a socket", name, fab.header, sock.header)
		}
		if !bytes.Equal(fab.body, sock.body) {
			t.Errorf("%s: bodies differ\nfabric %q\nsocket %q", name, fab.body, sock.body)
		}
	}

	check("rewrite", 200, "POST", "/v1/rewrite", []byte(`{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}`))
	check("stored answer", 200, "POST", "/v1/answer", []byte(`{"query":"//Trials//Trial/Patient","viewName":"trials"}`))
	check("malformed body", 400, "POST", "/v1/rewrite", []byte(`{"query":`))
	check("oversized body", 413, "POST", "/v1/rewrite", make([]byte, 16<<20+1))
	check("unparsable query", 422, "POST", "/v1/rewrite", []byte(`{"query":"//a[","view":"//a"}`))
	check("unknown view", 422, "POST", "/v1/answer", []byte(`{"query":"//a","viewName":"nope"}`))
	check("unknown path", 404, "GET", "/nope", nil)
	check("wrong method", 405, "GET", "/v1/rewrite", nil)
	check("healthz", 200, "GET", "/healthz", nil)

	// A held gate slot sheds the next computing request with a 429.
	release, err := gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	check("shed", 429, "POST", "/v1/rewrite", []byte(`{"query":"//Trials[//Phase]//Trial","view":"//Trials//Trial"}`))
	release()

	// The server's handler fault point panics in every handler; the
	// service recovers it into a 500.
	if err := fault.Enable(&fault.Plan{Seed: 1, Injections: []fault.Injection{
		{Point: names.FaultServerHandler, Action: fault.ActPanic},
	}}); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	check("handler panic", 500, "POST", "/v1/contain", []byte(`{"p":"//a/b","q":"//a//b"}`))
	fault.Disable()

	svc.StartDraining()
	check("draining healthz", 503, "GET", "/healthz", nil)
}

// fabricRoundTripMaxBytes bounds the bytes one fabric round trip
// allocates beyond the replica handler's own, for an answer of 32 KB or
// more. The fabric writes the body into a pooled buffer its response
// hands on whole, so what is left is the response and its header,
// about 1 KB whatever the body's size; a recorder's buffer growing to
// the body, or an io.Copy that cannot reach the body's WriteTo (32 KB),
// breaks the bound.
const fabricRoundTripMaxBytes = 4 << 10

// TestFabricRoundTripBytes round-trips the stored answer of
// storedTemplates[0] (over 32 KB) through the fabric, copies its body
// out as the router does, and compares the bytes allocated with the
// same request served by the replica handler alone. Each side's figure
// is the least of several samples, as in TestRoutedAnswerBytes.
func TestFabricRoundTripBytes(t *testing.T) {
	h := bootStored(t, routedAnswerGroups)
	ht := router.NewHandlerTransport()
	ht.Register("replica", h)
	body := storedTemplates[0]
	newReq := func() *http.Request {
		return httptest.NewRequest("POST", "http://replica/v1/answer", strings.NewReader(body))
	}
	// out has no ReadFrom, so io.Copy must use the body's WriteTo or
	// allocate a buffer of its own.
	var out struct{ io.Writer }
	out.Writer = io.Discard
	roundTrip := func(req *http.Request) int {
		resp, err := ht.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(out, resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return int(n)
	}
	if size := roundTrip(newReq()); size < 32<<10 {
		t.Fatalf("answer body is %d bytes, want at least 32 KB", size)
	}

	const samples = 25
	least := func(serve func(*http.Request)) int64 {
		least := int64(math.MaxInt64)
		for i := 0; i < samples; i++ {
			req := newReq()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			serve(req)
			runtime.ReadMemStats(&after)
			least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
		}
		return least
	}
	viaFabric := least(func(req *http.Request) { roundTrip(req) })
	viaHandler := least(func(req *http.Request) {
		w := &discardWriter{header: make(http.Header)}
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	})
	added := viaFabric - viaHandler
	if added >= fabricRoundTripMaxBytes {
		t.Fatalf("a fabric round trip adds %d bytes (%d round trip, %d handler), bound %d",
			added, viaFabric, viaHandler, fabricRoundTripMaxBytes)
	}
	t.Logf("a fabric round trip: %d bytes, handler %d, %d added", viaFabric, viaHandler, added)
}
