package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
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
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if err := req.Context().Err(); err != nil {
		// The attempt deadline expired while the handler ran; report
		// the timeout instead of a possibly half-built response.
		return nil, err
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
