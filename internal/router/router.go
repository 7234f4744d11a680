// Package router is the cluster front end: one HTTP endpoint fanning
// out to N qavd replicas with health-aware failover. A single qavd —
// however warm its rewrite cache — is a single point of failure; this
// layer turns replica death, slowness and saturation into routed-around
// events instead of client-visible errors.
//
// The moving pieces:
//
//   - a replica registry with active health probing (GET /healthz on
//     each replica, which since the drain change reports inflight,
//     queue depth and warm-cache load) plus passive signals
//     (consecutive errors, timeouts) feeding per-replica circuit
//     breakers (closed → open → half-open, seeded-jitter cooldowns);
//   - two routing policies: round-robin, and canonical-affinity via
//     rendezvous hashing on the canonical pattern key — the policy
//     that makes each replica's LRU + persistent warm tier actually
//     hit, with automatic spill to the next-ranked replica when the
//     owner is open, draining or saturated;
//   - a retry layer: per-attempt timeouts, capped exponential backoff
//     with deterministic seeded jitter, Retry-After-aware 429
//     handling (a saturated replica is skipped until its own horizon,
//     never counted as a breaker failure), and retries only where
//     they are safe — idempotent requests, or connect-class errors
//     where the request provably never reached a handler;
//   - hedged requests for the latency tail: after a quantile-tracked
//     delay a second attempt launches on the next-ranked healthy
//     replica, the first success wins and the loser is cancelled;
//   - graceful drain on both layers: a replica reporting "draining"
//     stops receiving new work while its in-flight requests finish.
//
// Every decision is observable (per-replica endpoint metrics, the
// router.pick/retry/hedge/breaker stages, GET /v1/cluster) and every
// failure mode is reproducible: the router.pick, router.probe and
// router.hedge fault points plug into internal/fault's deterministic
// chaos plans, and HandlerTransport lets tests boot a whole cluster
// in-process.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qav/internal/cache"
	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/names"
	"qav/internal/obs"
	"qav/internal/reqjson"
	"qav/internal/tpq"
)

// Router-side fault points (armed by chaos plans; no-ops otherwise).
var (
	faultPick  = fault.Register(names.FaultRouterPick)
	faultProbe = fault.Register(names.FaultRouterProbe)
	faultHedge = fault.Register(names.FaultRouterHedge)
)

// Config tunes one Router. The zero value of every field has a usable
// default; only Replicas is required.
type Config struct {
	// Replicas are the base URLs of the qavd fleet ("http://host:port").
	Replicas []string
	// Policy picks the routing policy: "affinity" (default) or
	// "roundrobin".
	Policy string
	// Seed drives every jittered duration (breaker cooldowns, retry
	// backoff) and makes chaos runs reproducible. 0 means seed 1.
	Seed int64
	// ProbeInterval spaces active health probes per replica
	// (default 1s; jittered ±50% so probes decorrelate).
	ProbeInterval time.Duration
	// AttemptTimeout bounds each proxied attempt (default 10s).
	AttemptTimeout time.Duration
	// Retries is the number of backoff rounds after the first pass
	// over the candidates (default 2).
	Retries int
	// RetryBackoff is the base backoff (default 25ms), doubled per
	// round, jittered, capped at 40× base.
	RetryBackoff time.Duration
	// HedgeAfter enables hedged requests: when an attempt has not
	// answered after max(HedgeAfter, tracked HedgeQuantile latency), a
	// second attempt launches on the next candidate. 0 disables
	// hedging.
	HedgeAfter time.Duration
	// HedgeQuantile is the attempt-latency quantile that paces hedges
	// once enough samples exist (default 0.9).
	HedgeQuantile float64
	// BreakerThreshold is the consecutive-failure count that opens a
	// replica's breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is the open-state dwell before a half-open probe
	// (default 2s, jittered).
	BreakerCooldown time.Duration
	// MaxBodyBytes bounds buffered request bodies (default 16 MiB).
	// Responses are streamed, so no bound applies to them.
	MaxBodyBytes int64
	// Transport performs the attempts (default http.DefaultTransport).
	// Tests and bench/ install a HandlerTransport here.
	Transport http.RoundTripper
	// Metrics receives endpoint and stage observations (default: a
	// fresh registry, served at GET /metrics).
	Metrics *obs.Registry
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Policy == "" {
		cfg.Policy = "affinity"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 10 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.HedgeQuantile <= 0 || cfg.HedgeQuantile >= 1 {
		cfg.HedgeQuantile = 0.9
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	return cfg
}

// loadReport is the slice of the replica /healthz payload the router
// consumes (a structural mirror of server.HealthPayload, kept local so
// the router does not depend on the engine's package graph).
type loadReport struct {
	Status       string `json:"status"`
	Draining     bool   `json:"draining"`
	InFlight     int64  `json:"inflight"`
	Queued       int64  `json:"queued"`
	Shed         int64  `json:"shed"`
	CacheEntries int    `json:"cacheEntries"`
	WarmEntries  int    `json:"warmEntries"`
	CacheHits    int64  `json:"cacheHits"`
}

// replica is one registry entry: identity, breaker, and the passive +
// probed health state the policies read.
type replica struct {
	name     string // authority part of the base URL; the routing identity
	nameHash uint64 // fnv64a(name), precomputed for rendezvous scoring
	base     *url.URL
	br       *breaker
	ep       *obs.Endpoint // per-replica attempt metrics ("replica:<name>")

	inflight   atomic.Int64               // router-side attempts in flight
	consecErrs atomic.Int64               // passive failure streak
	attempts   atomic.Int64               // total attempts routed here
	timeouts   atomic.Int64               // attempts lost to deadline
	satUntilNs atomic.Int64               // Retry-After horizon (unix nanos)
	draining   atomic.Bool                // last probe reported draining
	probeOK    atomic.Bool                // last probe succeeded
	health     atomic.Pointer[loadReport] // last successful probe payload
	lastProbe  atomic.Int64               // unix nanos of last probe
}

// available reports whether the proxy may try this replica now:
// breaker admits it, it is not inside a Retry-After horizon, and it
// has not announced it is draining.
func (rep *replica) available(now time.Time) bool {
	if rep.draining.Load() {
		return false
	}
	if now.UnixNano() < rep.satUntilNs.Load() {
		return false
	}
	return rep.br.Allow(now)
}

// markSaturated records a 429's Retry-After horizon; until it passes,
// the proxy routes around this replica without charging its breaker
// (saturation is load, not failure).
func (rep *replica) markSaturated(retryAfter time.Duration) {
	until := time.Now().Add(retryAfter).UnixNano()
	for {
		cur := rep.satUntilNs.Load()
		if cur >= until || rep.satUntilNs.CompareAndSwap(cur, until) {
			return
		}
	}
}

// Router fans one HTTP endpoint out to the replica fleet. Create with
// New, serve Handler, stop with Close.
type Router struct {
	cfg    Config
	reps   []*replica
	policy policy
	reg    *obs.Registry
	mux    *http.ServeMux
	rng    *rng
	hedge  *latencyTracker
	canon  *cache.Memo[string, string] // expression text -> canonicalOr

	draining atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New validates cfg, builds the replica registry and starts the health
// probers. Callers must Close the router to stop them.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: no replicas configured")
	}
	r := &Router{
		cfg:   cfg,
		reg:   cfg.Metrics,
		rng:   newRNG(cfg.Seed),
		hedge: newLatencyTracker(cfg.HedgeQuantile),
		canon: newCanonMemo(),
		stop:  make(chan struct{}),
	}
	switch cfg.Policy {
	case "affinity":
		r.policy = &affinity{}
	case "roundrobin":
		r.policy = &roundRobin{}
	default:
		return nil, fmt.Errorf("router: unknown policy %q (want affinity or roundrobin)", cfg.Policy)
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, raw := range cfg.Replicas {
		u, err := url.Parse(strings.TrimSpace(raw))
		if err != nil {
			return nil, fmt.Errorf("router: replica %q: %w", raw, err)
		}
		if u.Scheme == "" {
			u.Scheme = "http"
		}
		if u.Host == "" {
			return nil, fmt.Errorf("router: replica %q has no host", raw)
		}
		if seen[u.Host] {
			return nil, fmt.Errorf("router: duplicate replica %q", u.Host)
		}
		seen[u.Host] = true
		rep := &replica{
			name:     u.Host,
			nameHash: fnv64a(u.Host),
			base:     u,
			ep:       r.reg.Endpoint("replica:" + u.Host),
		}
		rep.br = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, r.rng,
			func(from, to breakerState, inState time.Duration) {
				r.reg.ObserveStage(obs.StageRouterBreaker, inState)
			})
		r.reps = append(r.reps, rep)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", r.protect("healthz", r.handleHealth))
	mux.Handle("GET /v1/cluster", r.protect("cluster", r.handleCluster))
	mux.Handle("GET /metrics", r.protect("metrics", r.handleMetrics))
	mux.Handle("/", r.protect("proxy", r.handleProxy))
	r.mux = mux
	for _, rep := range r.reps {
		r.wg.Add(1)
		go r.probeLoop(rep)
	}
	return r, nil
}

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler { return r.mux }

// protect isolates handler panics (including injected ActPanic on the
// router's own fault points): a panic becomes a clean 500 JSON error
// instead of killing the process — the router is exactly the component
// that must not die when a dependency misbehaves.
func (r *Router) protect(op string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		wrote := &wroteWriter{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			ie := guard.FromPanic(v, "router "+op)
			if !wrote.wrote {
				httpError(wrote, http.StatusInternalServerError, ie)
			}
		}()
		h(wrote, req)
	})
}

// wroteWriter remembers whether anything was written, so the panic
// path never writes a second header.
type wroteWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *wroteWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *wroteWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// StartDraining flips the router's own /healthz to 503; one-way.
func (r *Router) StartDraining() { r.draining.Store(true) }

// Close stops the health probers and waits for them to exit.
func (r *Router) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
}

// probeLoop actively probes one replica's /healthz on a jittered
// interval. Probe outcomes feed the breaker — which is how an open
// breaker recovers without client traffic: the probe that succeeds
// after a cooldown closes it again.
func (r *Router) probeLoop(rep *replica) {
	defer r.wg.Done()
	defer guard.Rescue("router.probe", nil)
	timer := time.NewTimer(0) // first probe immediately
	defer timer.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-timer.C:
		}
		r.probeOnce(rep)
		timer.Reset(r.rng.jitter(2 * r.cfg.ProbeInterval)) // jitter(2d) ∈ [d, 2d)
	}
}

// probeOnce performs one health probe against rep.
func (r *Router) probeOnce(rep *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeInterval)
	defer cancel()
	rep.lastProbe.Store(time.Now().UnixNano())
	if err := faultProbe.Hit(ctx); err != nil {
		rep.probeOK.Store(false)
		rep.br.Failure(time.Now())
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base.JoinPath("/healthz").String(), nil)
	if err != nil {
		rep.probeOK.Store(false)
		return
	}
	resp, err := r.cfg.Transport.RoundTrip(req)
	if err != nil {
		rep.probeOK.Store(false)
		rep.br.Failure(time.Now())
		return
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	var lr loadReport
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&lr); err == nil {
		rep.health.Store(&lr)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		rep.probeOK.Store(true)
		rep.draining.Store(false)
		rep.br.Success(time.Now())
	case resp.StatusCode == http.StatusServiceUnavailable && lr.Draining:
		// An orderly drain is not a fault: stop routing there but do
		// not charge the breaker — the replica is finishing its work.
		rep.probeOK.Store(false)
		rep.draining.Store(true)
	default:
		rep.probeOK.Store(false)
		rep.br.Failure(time.Now())
	}
}

// idempotent reports whether the request may be retried after it might
// have reached a handler. All the compute endpoints are pure functions
// of their body, so they are; POST /v1/views mutates the replica's
// view store and only fails over on connect-class errors.
func idempotent(req *http.Request) bool {
	if req.Method == http.MethodGet || req.Method == http.MethodHead {
		return true
	}
	switch req.URL.Path {
	case "/v1/rewrite", "/v1/rewrite/batch", "/v1/answer", "/v1/contain":
		return true
	}
	return false
}

// isConnectErr reports whether err happened before the request could
// have reached a handler (dial refused / replica down), making a
// retry safe even for non-idempotent requests.
func isConnectErr(err error) bool {
	var de *DownError
	if errors.As(err, &de) {
		return true
	}
	// net/http wraps dial failures in *url.Error around a *net.OpError
	// with Op "dial"; matching on the message keeps the classifier
	// transport-agnostic (the test fabric returns *DownError instead).
	s := err.Error()
	return strings.Contains(s, "connection refused") ||
		strings.Contains(s, "no such host") ||
		strings.Contains(s, "dial tcp")
}

// attemptResult is one attempt's outcome: the replica's status line,
// headers and still-unread body, or an error. Retries and hedges are
// decided on the status alone, so only the winning attempt's body is
// ever read, once, straight into the client's response. Whoever holds
// a result streams it or closes it; close also ends the attempt's
// context.
type attemptResult struct {
	rep     *replica
	status  int
	header  http.Header
	body    io.ReadCloser
	cancel  context.CancelFunc
	err     error
	elapsed time.Duration
}

// close releases a result that will not be (or has been) streamed.
func (res *attemptResult) close() {
	if res.body != nil {
		res.body.Close()
	}
	if res.cancel != nil {
		res.cancel()
	}
}

// handleProxy is the catch-all: buffer the body, rank the replicas,
// then walk retry rounds × candidates with hedging until an attempt
// succeeds, and stream that attempt's response to the client.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errors.New("router: draining"))
		return
	}
	// The request body stays buffered: retries and hedges replay it.
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}

	pickStart := time.Now()
	key := affinityKey(req.URL.Path, body, r.canonical)
	order := r.policy.order(key, r.reps)
	r.reg.ObserveStage(obs.StageRouterPick, time.Since(pickStart))
	if err := faultPick.Hit(req.Context()); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}

	res, retryAfter := r.route(req, body, order)
	if res != nil {
		defer res.close()
		if res.err != nil {
			// A non-retryable transport failure on a non-idempotent
			// request: the replica may or may not have applied it, so
			// surface the ambiguity instead of retrying.
			httpError(w, http.StatusBadGateway, res.err)
			return
		}
		// Propagate the replica's response verbatim, plus attribution.
		h := w.Header()
		for k, vs := range res.header {
			h[k] = vs
		}
		h.Set("X-QAV-Replica", res.rep.name)
		w.WriteHeader(res.status)
		stream(req.Context(), w, res)
		return
	}
	if retryAfter > 0 {
		// Every live replica is inside a Retry-After horizon: the
		// cluster is saturated, not broken. Tell the client when the
		// earliest replica expects capacity back.
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpError(w, http.StatusTooManyRequests, errors.New("router: all replicas saturated"))
		return
	}
	httpError(w, http.StatusBadGateway, errors.New("router: no replica could serve the request"))
}

// stream copies the winning attempt's body to the client, whose status
// is already committed. A replica body that fails mid-copy can no
// longer be retried: it charges the replica's breaker and aborts the
// response, so the client sees a broken response rather than a short
// 200. A failed write, or a read cut short because the client went
// away, is the client's doing and charges no replica.
func stream(ctx context.Context, w http.ResponseWriter, res *attemptResult) {
	cw := &clientWriter{w: w}
	if _, err := io.Copy(cw, res.body); err != nil {
		if cw.err == nil && ctx.Err() == nil {
			res.rep.consecErrs.Add(1)
			res.rep.br.Failure(time.Now())
		}
		panic(http.ErrAbortHandler)
	}
}

// clientWriter records a failed write to the client, so stream can
// tell it from a failed read of the replica's body. It wraps only the
// writer: wrapping the body instead would hide an in-memory body's
// WriteTo from io.Copy, which then allocates a 32 KB buffer per
// response.
type clientWriter struct {
	w   io.Writer
	err error
}

func (c *clientWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if err != nil {
		c.err = err
	}
	return n, err
}

// route walks retry rounds over the policy's candidate order. It
// returns a successful (or client-errored) result, or (nil, minWait)
// when every live replica was saturated, or (nil, 0) when everything
// failed. Every result it passes over is closed here; the one it
// returns is the caller's to stream and close.
func (r *Router) route(req *http.Request, body []byte, order []int) (*attemptResult, time.Duration) {
	canHedge := r.cfg.HedgeAfter > 0 && idempotent(req)
	idem := idempotent(req)
	var sawSaturated bool
	for round := 0; ; round++ {
		if round > 0 {
			// Capped exponential backoff with seeded jitter between
			// rounds, credited to the router.retry stage. Saturated-only
			// rounds wait out the nearest Retry-After horizon instead.
			d := r.backoff(round)
			if sawSaturated {
				if wait := r.minSaturationWait(); wait > 0 && wait > d {
					d = wait
				}
			}
			r.reg.ObserveStage(obs.StageRouterRetry, d)
			select {
			case <-req.Context().Done():
				return &attemptResult{err: req.Context().Err()}, 0
			case <-time.After(d):
			}
			sawSaturated = false
		}
		now := time.Now()
		for i := 0; i < len(order); i++ {
			rep := r.reps[order[i]]
			if !rep.available(now) {
				continue
			}
			// Pick a hedge partner: the next-ranked available replica.
			var hedgeRep *replica
			if canHedge {
				for j := i + 1; j < len(order); j++ {
					if cand := r.reps[order[j]]; cand.available(now) && cand != rep {
						hedgeRep = cand
						break
					}
				}
			}
			res := r.race(req, body, rep, hedgeRep)
			switch {
			case res.err != nil:
				// Transport-level failure. Retrying is safe when the
				// request never reached a handler (connect error) or the
				// endpoint is idempotent; otherwise surface it.
				if !idem && !isConnectErr(res.err) {
					return res, 0
				}
			case res.status == http.StatusTooManyRequests:
				sawSaturated = true
			case res.status >= 500:
				if !idem {
					return res, 0
				}
			default:
				return res, 0
			}
			res.close()
		}
		if round >= r.cfg.Retries {
			break
		}
	}
	if sawSaturated {
		wait := r.minSaturationWait()
		if wait <= 0 {
			wait = time.Second
		}
		return nil, wait
	}
	return nil, 0
}

// backoff returns the jittered, capped exponential backoff for round
// (1-based).
func (r *Router) backoff(round int) time.Duration {
	d := r.cfg.RetryBackoff
	for i := 1; i < round; i++ {
		d *= 2
		if d > 40*r.cfg.RetryBackoff {
			d = 40 * r.cfg.RetryBackoff
			break
		}
	}
	return r.rng.jitter(2 * d) // jitter(2d) ∈ [d, 2d)
}

// minSaturationWait returns the shortest remaining Retry-After horizon
// across the fleet (0 when none is saturated).
func (r *Router) minSaturationWait() time.Duration {
	now := time.Now().UnixNano()
	var min int64
	for _, rep := range r.reps {
		until := rep.satUntilNs.Load()
		if until <= now {
			continue
		}
		if d := until - now; min == 0 || d < min {
			min = d
		}
	}
	return time.Duration(min)
}

// race runs one attempt on rep, optionally hedged on hedgeRep: if rep
// has not answered after the hedge delay, a second attempt launches
// and the first success wins. The winner comes back with its context
// live, for the caller to stream and close; a loser's context is
// cancelled the moment the winner is chosen, which is all net/http
// needs to release the loser's unread body. The result channel is
// buffered for both attempts so a loser's send never blocks a
// goroutine (leaktest pins that).
func (r *Router) race(req *http.Request, body []byte, rep, hedgeRep *replica) *attemptResult {
	results := make(chan *attemptResult, 2)
	launch := func(target *replica) context.CancelFunc {
		actx, cancel := context.WithTimeout(req.Context(), r.cfg.AttemptTimeout)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer guard.Rescue("router.attempt", func(err error) {
				results <- &attemptResult{rep: target, err: err, cancel: cancel}
			})
			res := r.attempt(actx, target, req, body)
			res.cancel = cancel
			results <- res
		}()
		return cancel
	}
	cancel1 := launch(rep)
	// A lone attempt keeps its goroutine: inline, it raised peak RSS (DESIGN.md).
	if hedgeRep == nil {
		return <-results
	}

	delay := r.hedge.delay(r.cfg.HedgeAfter)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case res := <-results:
		return res
	case <-timer.C:
	}
	// Primary is slow: hedge on the partner, unless the chaos plan
	// says the hedger itself is broken (then just keep waiting).
	if err := faultHedge.Hit(req.Context()); err != nil {
		return <-results
	}
	r.reg.ObserveStage(obs.StageRouterHedge, delay)
	cancel2 := launch(hedgeRep)
	first := <-results
	if attemptOK(first) {
		if first.rep == rep {
			cancel2()
		} else {
			cancel1()
		}
		return first
	}
	second := <-results
	if attemptOK(second) {
		first.close()
		return second
	}
	second.close()
	return first
}

// attemptOK reports whether res should win a hedge race: a response
// that is not a server-side failure.
func attemptOK(res *attemptResult) bool {
	return res.err == nil && res.status < 500 && res.status != http.StatusTooManyRequests
}

// attempt performs one proxied request against rep and returns once
// the replica's status line and headers are in, leaving the body
// unread. Outcomes feed the breaker and the passive health signals;
// 429s only mark saturation.
func (r *Router) attempt(ctx context.Context, rep *replica, orig *http.Request, body []byte) *attemptResult {
	start := time.Now()
	rep.inflight.Add(1)
	rep.attempts.Add(1)
	defer rep.inflight.Add(-1)

	req, err := http.NewRequestWithContext(ctx, orig.Method, "", bytes.NewReader(body))
	if err != nil {
		return &attemptResult{rep: rep, err: err}
	}
	// The replica's URL is copied into the request's (empty) one, not
	// printed for NewRequestWithContext to parse straight back.
	u := req.URL
	*u = *rep.base
	u.Path = orig.URL.Path
	u.RawQuery = orig.URL.RawQuery
	req.Host = u.Host
	// Every attempt shares the client's header map read-only: nothing
	// in the router, the replica handlers or a RoundTripper writes to a
	// request's Header.
	req.Header = orig.Header
	resp, err := r.cfg.Transport.RoundTrip(req)
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			rep.timeouts.Add(1)
		}
		rep.consecErrs.Add(1)
		rep.br.Failure(time.Now())
		rep.ep.Observe(0, elapsed)
		return &attemptResult{rep: rep, err: err, elapsed: elapsed}
	}
	rep.ep.Observe(resp.StatusCode, elapsed)
	res := &attemptResult{
		rep:     rep,
		status:  resp.StatusCode,
		header:  resp.Header,
		body:    resp.Body,
		elapsed: elapsed,
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		// Saturation, not failure: honor the replica's Retry-After.
		ra := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ra = time.Duration(secs) * time.Second
		}
		rep.markSaturated(ra)
	case resp.StatusCode >= 500:
		rep.consecErrs.Add(1)
		rep.br.Failure(time.Now())
	default:
		rep.consecErrs.Store(0)
		rep.br.Success(time.Now())
		r.hedge.observe(elapsed)
	}
	return res
}

// affinityKey derives the rendezvous key for a request: the canonical
// forms of the query/view patterns in the body, so equivalent queries
// (same canonical pattern, different spelling) land on the same
// replica and hit its rewrite cache. Requests the router cannot
// decode key on their raw body, and GETs on their path. canon maps one
// expression to its canonical form: canonicalOr, or a memo of it.
func affinityKey(path string, body []byte, canon func(string) string) string {
	if len(body) == 0 {
		return path
	}
	var probe keyProbe
	if err := reqjson.Lenient(body, probe.member); err != nil {
		return string(body)
	}
	// A batch routes on its first item: batches assembled per canonical
	// query group (the common shape) stay on their owner.
	if len(probe.Items) > 0 {
		return canon(probe.Items[0].Query) + "\x00" +
			canon(probe.Items[0].View) + "\x00" + probe.Items[0].Schema
	}
	if probe.P != "" || probe.Q != "" {
		return canon(probe.P) + "\x00" + canon(probe.Q) + "\x00" + probe.Schema
	}
	view := probe.View
	if view == "" {
		view = probe.ViewName
	}
	if probe.Query == "" && view == "" {
		return string(body)
	}
	key := canon(probe.Query) + "\x00" + canon(view) + "\x00" + probe.Schema
	if probe.Recursive {
		key += "\x00r"
	}
	return key
}

// keyProbe is what affinityKey reads of a body: the members of every
// request shape that name its patterns. Any other member is skipped.
type keyProbe struct {
	Query, View, ViewName, Schema, P, Q string
	Recursive                           bool
	Items                               []keyItem
}

type keyItem struct{ Query, View, Schema string }

func (p *keyProbe) member(d *reqjson.Decoder) bool {
	switch {
	case d.Key("query"):
		p.Query = d.String(p.Query)
	case d.Key("view"):
		p.View = d.String(p.View)
	case d.Key("viewName"):
		p.ViewName = d.String(p.ViewName)
	case d.Key("schema"):
		p.Schema = d.String(p.Schema)
	case d.Key("recursive"):
		p.Recursive = d.Bool(p.Recursive)
	case d.Key("p"):
		p.P = d.String(p.P)
	case d.Key("q"):
		p.Q = d.String(p.Q)
	case d.Key("items"):
		p.Items = reqjson.Objects(d, p.Items, (*keyItem).member)
	default:
		return false
	}
	return true
}

func (it *keyItem) member(d *reqjson.Decoder) bool {
	switch {
	case d.Key("query"):
		it.Query = d.String(it.Query)
	case d.Key("view"):
		it.View = d.String(it.View)
	case d.Key("schema"):
		it.Schema = d.String(it.Schema)
	default:
		return false
	}
	return true
}

// canonicalOr parses expr as a tree pattern and returns its canonical
// form, or expr itself when it does not parse (the replica will reject
// it consistently, so consistency of routing still holds).
func canonicalOr(expr string) string {
	if expr == "" {
		return ""
	}
	p, err := tpq.Parse(expr)
	if err != nil {
		return expr
	}
	return p.Canonical()
}

// canonMemoBytes bounds a router's memo of canonicalOr: the text and
// canonical form of every entry (plus cache.MemoEntryBytes each).
const canonMemoBytes = 1 << 20

// newCanonMemo returns an empty memo of canonicalOr by expression text.
func newCanonMemo() *cache.Memo[string, string] {
	return cache.NewMemo(canonMemoBytes, func(expr, form string) int { return len(expr) + len(form) })
}

// canonical returns canonicalOr(expr), from the router's memo when it
// can, so a request whose query and view the router has seen before is
// keyed without a parse. canonicalOr is a pure function of the text:
// losing an entry costs a reparse, never a different route.
func (r *Router) canonical(expr string) string {
	if c, ok := r.canon.Get(expr); ok {
		return c
	}
	c := canonicalOr(expr)
	r.canon.Put(expr, c)
	return c
}

// ReplicaStatus is the /v1/cluster view of one replica.
type ReplicaStatus struct {
	Name        string      `json:"name"`
	State       string      `json:"state"` // breaker state
	Healthy     bool        `json:"healthy"`
	Draining    bool        `json:"draining"`
	ConsecErrs  int64       `json:"consecErrs"`
	Attempts    int64       `json:"attempts"`
	Timeouts    int64       `json:"timeouts"`
	InFlight    int64       `json:"inflight"`
	SaturatedMs int64       `json:"saturatedMs,omitempty"` // remaining Retry-After horizon
	Transitions int64       `json:"breakerTransitions"`
	Load        *loadReport `json:"load,omitempty"`
}

// ClusterStatus is the GET /v1/cluster document.
type ClusterStatus struct {
	Policy   string          `json:"policy"`
	Draining bool            `json:"draining"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// Status returns the cluster document (also served at /v1/cluster).
func (r *Router) Status() ClusterStatus {
	now := time.Now()
	cs := ClusterStatus{Policy: r.policy.name(), Draining: r.draining.Load()}
	for _, rep := range r.reps {
		state, _, transitions := rep.br.Snapshot()
		rs := ReplicaStatus{
			Name:        rep.name,
			State:       state.String(),
			Healthy:     rep.probeOK.Load(),
			Draining:    rep.draining.Load(),
			ConsecErrs:  rep.consecErrs.Load(),
			Attempts:    rep.attempts.Load(),
			Timeouts:    rep.timeouts.Load(),
			InFlight:    rep.inflight.Load(),
			Transitions: transitions,
			Load:        rep.health.Load(),
		}
		if until := rep.satUntilNs.Load(); until > now.UnixNano() {
			rs.SaturatedMs = (until - now.UnixNano()) / int64(time.Millisecond)
		}
		cs.Replicas = append(cs.Replicas, rs)
	}
	sort.Slice(cs.Replicas, func(i, j int) bool { return cs.Replicas[i].Name < cs.Replicas[j].Name })
	return cs
}

func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.Status())
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.reg.Snapshot())
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	status := "ok"
	code := http.StatusOK
	if r.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"draining": r.draining.Load(),
		"replicas": len(r.reps),
	})
}

// latencyTracker keeps the last window of successful attempt latencies
// and answers "what delay should pace a hedge": the configured floor
// until enough samples exist, then max(floor, tracked quantile).
type latencyTracker struct {
	mu       sync.Mutex
	ring     [128]time.Duration
	n        int // total observed
	quantile float64
}

func newLatencyTracker(q float64) *latencyTracker {
	return &latencyTracker{quantile: q}
}

func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.ring[t.n%len(t.ring)] = d
	t.n++
	t.mu.Unlock()
}

func (t *latencyTracker) delay(floor time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	size := t.n
	if size > len(t.ring) {
		size = len(t.ring)
	}
	if size < 16 {
		return floor
	}
	buf := make([]time.Duration, size)
	copy(buf, t.ring[:size])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := int(float64(size) * t.quantile)
	if idx >= size {
		idx = size - 1
	}
	if q := buf[idx]; q > floor {
		return q
	}
	return floor
}

// writeJSON encodes v before writing anything, so a marshal failure
// becomes a clean 500 instead of a half-written 200. Bodies are compact
// and newline-terminated, as the replicas write them.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func httpError(w http.ResponseWriter, code int, err error) {
	msg, _ := json.Marshal(err.Error())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%s}\n", msg)
}
