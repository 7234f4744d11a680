package router

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DownError is the connect-refused error HandlerTransport returns for
// a host marked down. It models a SIGKILLed replica: the connection
// never reaches a handler, so retrying on another replica is always
// safe — the classifier treats it as a connect-class error even for
// non-idempotent requests.
type DownError struct{ Host string }

func (e *DownError) Error() string {
	return fmt.Sprintf("router: connect %s: connection refused", e.Host)
}

// Transient marks the error retryable for the internal/guard taxonomy.
func (e *DownError) Transient() bool { return true }

// HandlerTransport is an http.RoundTripper that dispatches requests to
// in-process http.Handlers by host name — the cluster test fabric. It
// lets the chaos suite and bench/ boot a 3+ replica cluster inside
// one process with no sockets, then kill (SetDown), slow (SetDelay)
// and restart replicas deterministically under -race.
type HandlerTransport struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	down     map[string]bool
	delay    map[string]time.Duration
}

// NewHandlerTransport returns an empty fabric.
func NewHandlerTransport() *HandlerTransport {
	return &HandlerTransport{
		handlers: make(map[string]http.Handler),
		down:     make(map[string]bool),
		delay:    make(map[string]time.Duration),
	}
}

// Register maps host (the authority part of a replica URL, e.g.
// "replica-0") to handler.
func (t *HandlerTransport) Register(host string, h http.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[host] = h
}

// SetDown marks host dead (RoundTrip fails with *DownError, the
// moral equivalent of a SIGKILL) or alive again.
func (t *HandlerTransport) SetDown(host string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[host] = down
}

// SetDelay injects d of latency before host's handler runs; 0 removes
// the slowdown. The delay respects request-context cancellation, so a
// per-attempt timeout fires instead of blocking.
func (t *HandlerTransport) SetDelay(host string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.delay[host] = d
}

// RoundTrip implements http.RoundTripper.
func (t *HandlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	t.mu.Lock()
	h := t.handlers[host]
	down := t.down[host]
	delay := t.delay[host]
	t.mu.Unlock()
	if down || h == nil {
		return nil, &DownError{Host: host}
	}
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	// The handler runs synchronously and honors req.Context, so an
	// expired per-attempt deadline surfaces as the handler's own
	// cancellation behavior — same as a real server.
	w := &fabricWriter{body: fabricBufs.Get().(*[]byte)}
	*w.body = (*w.body)[:0]
	h.ServeHTTP(w, req)
	if err := req.Context().Err(); err != nil {
		// The attempt deadline expired while the handler ran; report
		// the timeout instead of a possibly half-built response.
		putFabricBuf(w.body)
		return nil, err
	}
	return w.response(req), nil
}

// fabricBufs recycles the buffers replica bodies are written into;
// bodies above maxPooledBody are left to the collector rather than
// pinned in the pool, as the replica's own answer buffers are.
var fabricBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledBody = 1 << 20

func putFabricBuf(b *[]byte) {
	if cap(*b) <= maxPooledBody {
		fabricBufs.Put(b)
	}
}

// fabricWriter is the http.ResponseWriter a replica handler writes to
// on the fabric. It records what net/http/httptest's ResponseRecorder
// records: the status (200 unless set), the header as it stood at
// WriteHeader, and a Content-Type sniffed from the first write when
// the handler set none. The body goes into a pooled buffer that the
// response's Body hands on in one piece and gives back on Close.
type fabricWriter struct {
	header http.Header
	// snap is the header at WriteHeader; later changes do not reach
	// the response.
	snap  http.Header
	code  int
	wrote bool
	body  *[]byte
}

func (w *fabricWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *fabricWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	w.code, w.wrote = code, true
	w.snap = w.Header().Clone()
}

func (w *fabricWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		h := w.Header()
		if _, ok := h["Content-Type"]; !ok && h.Get("Transfer-Encoding") == "" {
			h.Set("Content-Type", http.DetectContentType(b))
		}
		w.WriteHeader(http.StatusOK)
	}
	*w.body = append(*w.body, b...)
	return len(b), nil
}

// response returns what the handler wrote as req's response.
func (w *fabricWriter) response(req *http.Request) *http.Response {
	if !w.wrote {
		w.code, w.snap = http.StatusOK, w.Header().Clone()
	}
	return &http.Response{
		Status:        strconv.Itoa(w.code) + " " + http.StatusText(w.code),
		StatusCode:    w.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.snap,
		Body:          &fabricBody{buf: w.body},
		ContentLength: contentLength(w.snap.Get("Content-Length")),
		Request:       req,
	}
}

// contentLength parses a Content-Length header value, -1 when absent
// or malformed.
func contentLength(v string) int64 {
	n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 63)
	if err != nil {
		return -1
	}
	return int64(n)
}

// errBodyClosed is the error a fabric body read after Close returns.
var errBodyClosed = errors.New("router: read on closed response body")

// fabricBody is a replica response body held in a pooled buffer. Close
// gives the buffer back to the pool, after which reads fail. WriteTo
// hands the unread rest to a single Write, so the router's io.Copy to
// the client needs no copy buffer of its own.
type fabricBody struct {
	buf *[]byte // nil once closed
	off int
}

func (b *fabricBody) Read(p []byte) (int, error) {
	if b.buf == nil {
		return 0, errBodyClosed
	}
	if b.off >= len(*b.buf) {
		return 0, io.EOF
	}
	n := copy(p, (*b.buf)[b.off:])
	b.off += n
	return n, nil
}

func (b *fabricBody) WriteTo(w io.Writer) (int64, error) {
	if b.buf == nil {
		return 0, errBodyClosed
	}
	rest := (*b.buf)[b.off:]
	if len(rest) == 0 {
		return 0, nil
	}
	n, err := w.Write(rest)
	b.off += n
	if err == nil && n != len(rest) {
		err = io.ErrShortWrite
	}
	return int64(n), err
}

func (b *fabricBody) Close() error {
	if b.buf != nil {
		putFabricBuf(b.buf)
		b.buf = nil
	}
	return nil
}
