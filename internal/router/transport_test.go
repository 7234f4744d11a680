package router

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qav/internal/leaktest"
)

// fabricResponse round-trips a GET / to h over a fresh fabric and
// returns the response with its body read whole.
func fabricResponse(t *testing.T, h http.Handler) (*http.Response, []byte) {
	t.Helper()
	ht := NewHandlerTransport()
	ht.Register("replica", h)
	resp, err := ht.RoundTrip(httptest.NewRequest("GET", "http://replica/", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestFabricMatchesRecorder holds the fabric's response to what
// httptest.ResponseRecorder makes of the same handler: status line,
// header (sniffed Content-Type, snapshot at WriteHeader), declared
// length and body.
func TestFabricMatchesRecorder(t *testing.T) {
	big := strings.Repeat("x", 1<<20+1) // past the pooled-buffer limit
	handlers := map[string]http.HandlerFunc{
		"sniffed html": func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "<html><body>hi</body></html>")
		},
		"sniffed text, two writes": func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "plain ")
			io.WriteString(w, "text")
		},
		"json 422": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			io.WriteString(w, `{"error":"bad"}`+"\n")
		},
		"nothing written": func(w http.ResponseWriter, r *http.Request) {},
		"status only": func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNoContent)
		},
		"header set after WriteHeader": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Before", "1")
			w.WriteHeader(http.StatusAccepted)
			w.Header().Set("X-After", "2")
			io.WriteString(w, "body")
		},
		"header set after Write": func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "body")
			w.Header().Set("X-After", "2")
		},
		"second WriteHeader ignored": func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusTooManyRequests)
			w.WriteHeader(http.StatusOK)
		},
		"declared length": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "4")
			io.WriteString(w, "four")
		},
		"transfer encoding, no sniff": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Transfer-Encoding", "chunked")
			io.WriteString(w, "<html>")
		},
		"explicit empty content type": func(w http.ResponseWriter, r *http.Request) {
			w.Header()["Content-Type"] = nil
			io.WriteString(w, "<html>")
		},
		"multi-valued header": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Add("Vary", "A")
			w.Header().Add("Vary", "B")
			w.WriteHeader(599)
		},
		"over the pool limit": func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, big)
		},
	}
	for name, h := range handlers {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest("GET", "/", nil))
			want := rec.Result()
			wantBody, _ := io.ReadAll(want.Body)
			got, gotBody := fabricResponse(t, h)
			if got.Status != want.Status || got.StatusCode != want.StatusCode {
				t.Errorf("status %q (%d), recorder %q (%d)", got.Status, got.StatusCode, want.Status, want.StatusCode)
			}
			if got.Proto != want.Proto || got.ProtoMajor != want.ProtoMajor || got.ProtoMinor != want.ProtoMinor {
				t.Errorf("proto %s, recorder %s", got.Proto, want.Proto)
			}
			if !reflect.DeepEqual(got.Header, want.Header) {
				t.Errorf("header %v, recorder %v", got.Header, want.Header)
			}
			if got.ContentLength != want.ContentLength {
				t.Errorf("content length %d, recorder %d", got.ContentLength, want.ContentLength)
			}
			if !bytes.Equal(gotBody, wantBody) {
				t.Errorf("body of %d bytes, recorder %d", len(gotBody), len(wantBody))
			}
		})
	}
}

// TestFabricInvalidStatusPanics: a status outside 100-999 is a handler
// bug, and the fabric panics on it as the recorder and net/http do.
func TestFabricInvalidStatusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteHeader(42) did not panic")
		}
	}()
	fabricResponse(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(42) }))
}

// writeCounter counts the Write calls it receives and keeps the bytes.
// It has no ReadFrom, so io.Copy reaches it only through the source's
// WriteTo or a copy buffer.
type writeCounter struct {
	writes int
	buf    bytes.Buffer
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestFabricBodyWriteTo: the body hands what is left of it to one
// Write, so the router's io.Copy makes one Write and needs no buffer.
func TestFabricBodyWriteTo(t *testing.T) {
	payload := strings.Repeat("0123456789", 10_000)
	ht := NewHandlerTransport()
	ht.Register("replica", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	resp, err := ht.RoundTrip(httptest.NewRequest("GET", "http://replica/", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	head := make([]byte, 7)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatal(err)
	}
	var w writeCounter
	n, err := io.Copy(&w, resp.Body)
	if err != nil || n != int64(len(payload)-len(head)) || w.writes != 1 {
		t.Fatalf("io.Copy: %d bytes in %d writes, err %v; want %d bytes in 1 write", n, w.writes, err, len(payload)-len(head))
	}
	if string(head)+w.buf.String() != payload {
		t.Fatal("body bytes differ from what the handler wrote")
	}
	if n, err := io.Copy(&w, resp.Body); n != 0 || err != nil || w.writes != 1 {
		t.Fatalf("copying a drained body: %d bytes, %d writes, err %v", n, w.writes, err)
	}
}

// TestFabricBodyClosed: Close gives the buffer back, so every read of
// the body after it fails, and closing twice is harmless.
func TestFabricBodyClosed(t *testing.T) {
	ht := NewHandlerTransport()
	ht.Register("replica", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "a body that outlives nothing")
	}))
	resp, err := ht.RoundTrip(httptest.NewRequest("GET", "http://replica/", nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resp.Body.Read(make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := resp.Body.Read(make([]byte, 8)); n != 0 || err == nil || err == io.EOF {
		t.Fatalf("Read after Close: %d bytes, err %v; want an error", n, err)
	}
	if n, err := io.Copy(io.Discard, resp.Body); n != 0 || err == nil {
		t.Fatalf("io.Copy after Close: %d bytes, err %v; want an error", n, err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestFabricBodiesConcurrent round-trips distinct bodies from several
// goroutines at once, reading some whole and closing others half read,
// so a pooled buffer given back while a body still reads it shows up
// as a wrong body (and as a race under -race).
func TestFabricBodiesConcurrent(t *testing.T) {
	ht := NewHandlerTransport()
	ht.Register("replica", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := len(r.URL.Query().Get("n"))
		io.WriteString(w, strings.Repeat(r.URL.Query().Get("c"), 1000*n))
	}))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := string(rune('a' + (g*200+i)%26))
				n := strings.Repeat("x", 1+i%9)
				resp, err := ht.RoundTrip(httptest.NewRequest("GET", "http://replica/?c="+c+"&n="+n, nil))
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					resp.Body.Read(make([]byte, 10))
					resp.Body.Close()
					continue
				}
				var w writeCounter
				io.Copy(&w, resp.Body)
				resp.Body.Close()
				if want := strings.Repeat(c, 1000*len(n)); w.buf.String() != want {
					t.Errorf("goroutine %d request %d: body of %d bytes differs from the %d written", g, i, w.buf.Len(), len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// closeCounter wraps a transport and counts the response bodies it
// hands out and how many of them are closed. Responses to /v1/rewrite
// wait at a barrier until both attempts of a hedged pair hold theirs,
// so the loser of the race has a body to give back.
type closeCounter struct {
	next           http.RoundTripper
	pair           sync.WaitGroup
	opened, closed atomic.Int64
}

func (c *closeCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	c.opened.Add(1)
	resp.Body = &countedBody{ReadCloser: resp.Body, closed: &c.closed}
	if req.URL.Path == "/v1/rewrite" {
		c.pair.Done()
		c.pair.Wait()
	}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	once   sync.Once
	closed *atomic.Int64
}

func (b *countedBody) Close() error {
	b.once.Do(func() { b.closed.Add(1) })
	return b.ReadCloser.Close()
}

// TestHedgeLoserClosesBody: when both attempts of a hedged pair come
// back with a response, the one that loses the race is closed too, so
// a fabric buffer goes back to its pool rather than to the collector.
func TestHedgeLoserClosesBody(t *testing.T) {
	defer leaktest.Check(t)()
	cc := &closeCounter{}
	cc.pair.Add(2)
	r, _, _, closeAll := testCluster(t, 3, func(c *Config) {
		c.HedgeAfter = 5 * time.Millisecond
		c.ProbeInterval = time.Hour
		cc.next = c.Transport
		c.Transport = cc
	})
	waitHealthy(t, r)
	rec := doRewrite(t, r, rewriteBody)
	closeAll()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if opened, closed := cc.opened.Load(), cc.closed.Load(); opened != closed {
		t.Fatalf("%d response bodies handed out, %d closed", opened, closed)
	}
	st := r.Status()
	var attempts int64
	for _, rs := range st.Replicas {
		attempts += rs.Attempts
	}
	if attempts != 2 {
		t.Fatalf("%d attempts, want a hedged pair: %s", attempts, fmt.Sprint(st.Replicas))
	}
}
