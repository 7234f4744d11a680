// Package server exposes the QAV engine as a small JSON-over-HTTP
// service: the mediator component of an integration deployment.
// Endpoints:
//
//	POST /v1/rewrite        {query, view, schema?, recursive?}
//	POST /v1/rewrite/batch  {items: [{query, view, schema?, recursive?}, ...]}
//	POST /v1/answer   {query, view, document, schema?, backend?}
//	POST /v1/answer   {query, viewName, backend?}   (stored-view mode)
//	POST /v1/contain  {p, q, schema?}
//	POST /v1/views    {name, view, document}
//	GET  /v1/views
//	GET  /v1/stats
//	GET  /v1/slowlog
//	GET  /metrics
//	GET  /healthz
//
// /v1/answer runs the compiled answer-plan pipeline (see
// internal/plan): the MCR's compensations are compiled once per
// canonical CR union (cached), the view forest is indexed, and the
// plan executes with a per-program backend (structural join, per-tree
// DP, or streaming — "auto" picks by forest statistics). In
// stored-view mode the document never travels: the query is answered
// from the forest a source shipped to POST /v1/views.
//
// The handlers are thin JSON adapters over internal/engine: one shared
// Engine carries the rewrite cache (singleflight-deduplicated), the
// per-schema constraint contexts, and the enumeration budget. Each
// request's context is threaded into the pipeline, so a client
// disconnect or server deadline stops an exponential enumeration.
//
// Every endpoint is wrapped in a metrics middleware that records
// request counts, status classes and latency into the Engine's
// obs.Registry; GET /metrics serves the combined snapshot (endpoint,
// stage, cache and slow-query-log sections) as JSON.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"qav/internal/cache"
	"qav/internal/engine"
	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/limits"
	"qav/internal/names"
	"qav/internal/obs"
	"qav/internal/plan"
	"qav/internal/rewrite"
	"qav/internal/viewstore"
)

// faultHandler fires at the top of every instrumented endpoint (no-op
// unless a chaos plan arms it; see internal/fault). ActPanic on this
// point exercises the handler recovery middleware end to end.
var faultHandler = fault.Register(names.FaultServerHandler)

// maxBodyBytes bounds request bodies; anything larger is refused with
// 413 before the decoder buffers it.
const maxBodyBytes = 16 << 20

// New returns the service's HTTP handler backed by a fresh Engine with
// default bounds.
func New() http.Handler {
	return NewWith(engine.New(engine.Config{CacheSize: 1024}))
}

// NewWith returns the service's HTTP handler backed by eng, so a
// deployment can share one Engine between the HTTP surface and other
// entry points, or tune its bounds. Deployments that need the drain
// control (flipping /healthz to 503 before shutdown) use NewService
// instead.
func NewWith(eng *engine.Engine) http.Handler {
	return NewService(eng).Handler()
}

// NewService returns the service backed by eng. The Service exposes
// the HTTP handler plus the lifecycle surface a clustered deployment
// needs: StartDraining (health goes 503 before the listener dies) and
// the Health load report.
func NewService(eng *engine.Engine) *Service {
	s := &Service{eng: eng, bodies: newBodyMemo()}
	reg := eng.Metrics()
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		// The endpoint label is the route pattern, not the raw URL, so
		// cardinality stays bounded no matter what clients send.
		mux.Handle(pattern, s.instrument(pattern, reg.Endpoint(pattern), h))
	}
	handle("GET /healthz", s.handleHealth)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /v1/slowlog", s.handleSlowLog)
	handle("GET /metrics", s.handleMetrics)
	handle("POST /v1/rewrite", s.handleRewrite)
	handle("POST /v1/rewrite/batch", s.handleRewriteBatch)
	handle("POST /v1/answer", s.handleAnswer)
	handle("POST /v1/contain", s.handleContain)
	handle("POST /v1/views", s.handleRegisterView)
	handle("GET /v1/views", s.handleListViews)
	s.mux = mux
	return s
}

// Service is the HTTP service with its lifecycle state: the handler
// mux, the draining bit /healthz reports, and the in-flight request
// gauge the health payload exposes to the router.
type Service struct {
	eng    *engine.Engine
	mux    *http.ServeMux
	bodies *cache.Memo[*rewrite.Result, []byte] // result -> encoded /v1/rewrite body

	draining atomic.Bool
	inflight atomic.Int64
}

// Handler returns the service's HTTP handler.
func (s *Service) Handler() http.Handler { return s.mux }

// Engine returns the engine backing the service.
func (s *Service) Engine() *engine.Engine { return s.eng }

// statusWriter remembers the first status code written so the metrics
// middleware can classify the response.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler to record request count, status class and
// latency into ep, and isolates handler panics: a panic becomes a clean
// 500 (when nothing was written yet) plus a slow-log entry carrying the
// stack, instead of net/http killing the connection and losing the
// crash site in the server's stderr noise.
func (s *Service) instrument(pattern string, ep *obs.Endpoint, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		func() {
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				// http.ErrAbortHandler is net/http's own control flow for
				// aborting a response; re-panicking preserves it.
				if v == http.ErrAbortHandler {
					panic(v)
				}
				ie := guard.FromPanic(v, "server "+pattern)
				s.eng.SlowLog().Record(obs.SlowEntry{
					Time:       time.Now(),
					Op:         names.OpPanic,
					Query:      pattern,
					DurationNs: int64(time.Since(start)),
					Err:        ie.Error(),
					Stack:      string(ie.Stack),
				})
				if sw.status == 0 {
					httpError(sw, http.StatusInternalServerError, ie)
				}
			}()
			if err := faultHandler.Hit(r.Context()); err != nil {
				httpError(sw, statusFor(err), err)
				return
			}
			h(sw, r)
		}()
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		ep.Observe(status, time.Since(start))
	})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	writeJSON(w, map[string]int64{
		"cacheHits":       st.CacheHits,
		"cacheWarmHits":   st.CacheWarmHits,
		"cacheMisses":     st.CacheMisses,
		"cacheDedups":     st.CacheDedups,
		"cacheEntries":    int64(st.CacheEntries),
		"warmEntries":     int64(st.WarmEntries),
		"warmReplayed":    st.WarmReplayed,
		"persisted":       st.Persisted,
		"internHits":      st.InternHits,
		"internDedups":    st.InternDedups,
		"planCacheHits":   st.PlanCacheHits,
		"planCacheMisses": st.PlanCacheMiss,
		"planCacheDedups": st.PlanCacheDedup,
		"planCacheSize":   int64(st.PlanEntries),
		"schemaContexts":  int64(st.SchemaContexts),
		"storedViews":     int64(st.StoredViews),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.eng.MetricsSnapshot())
}

func (s *Service) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.eng.SlowLog().Snapshot())
}

type rewriteRequest struct {
	Query     string `json:"query"`
	View      string `json:"view"`
	Schema    string `json:"schema,omitempty"`
	Recursive bool   `json:"recursive,omitempty"`
}

func (r rewriteRequest) text() engine.Text {
	return engine.Text{Query: r.Query, View: r.View, Schema: r.Schema, Recursive: r.Recursive}
}

type crJSON struct {
	Rewriting    string `json:"rewriting"`
	Compensation string `json:"compensation"`
}

type rewriteResponse struct {
	Answerable bool     `json:"answerable"`
	Union      string   `json:"union,omitempty"`
	CRs        []crJSON `json:"crs,omitempty"`
	// Partial reports graceful degradation: the enumeration budget or
	// the deadline expired mid-computation and Union is the sound (every
	// disjunct verified contained) but possibly non-maximal subset found
	// up to that point. PartialReason is "budget" or "deadline".
	Partial       bool   `json:"partial,omitempty"`
	PartialReason string `json:"partialReason,omitempty"`
}

func (s *Service) handleRewrite(w http.ResponseWriter, r *http.Request) {
	var req rewriteRequest
	if err := decode(w, r, &req); err != nil {
		httpError(w, decodeStatus(err), err)
		return
	}
	parsed, err := s.eng.Parse(engine.OpRewrite, req.text())
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	res, err := s.eng.Rewrite(r.Context(), parsed)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	s.writeRewrite(w, res)
}

// writeRewrite writes the /v1/rewrite body of res: exactly what
// writeJSON(w, buildRewriteResponse(res)) writes, encoded once per
// cached result and then served from the memo. A Partial result is
// encoded every time: the engine's cache never stores one, so its
// pointer is new on every request and an entry could never hit.
func (s *Service) writeRewrite(w http.ResponseWriter, res *rewrite.Result) {
	body, ok := s.bodies.Get(res)
	if !ok {
		var err error
		if body, err = encodeJSON(buildRewriteResponse(res)); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		if !res.Partial {
			s.bodies.Put(res, body)
		}
	}
	writeBody(w, http.StatusOK, body)
}

// bodyMemoBytes bounds the encoded bodies a Service memoizes (plus
// cache.MemoEntryBytes each). At a typical 0.2 KB body it holds about
// as many entries as the engine's default cache (1024). The budget
// bounds the bodies, not the results they pin: every entry keeps its
// *rewrite.Result (patterns and CRs) alive as the key, including
// results the engine's LRU has since evicted, until the next wholesale
// reset drops them.
const bodyMemoBytes = 256 << 10

// newBodyMemo returns an empty memo from an engine result to its
// encoded /v1/rewrite body. A cache hit returns the same immutable
// *rewrite.Result every time, so the body, a pure function of the
// result, is encoded once per cached result instead of once per
// request.
func newBodyMemo() *cache.Memo[*rewrite.Result, []byte] {
	return cache.NewMemo(bodyMemoBytes, func(_ *rewrite.Result, body []byte) int { return len(body) })
}

func buildRewriteResponse(res *rewrite.Result) rewriteResponse {
	out := rewriteResponse{
		Answerable:    !res.Union.Empty(),
		Partial:       res.Partial,
		PartialReason: string(res.PartialReason),
	}
	if out.Answerable {
		out.Union = res.Union.String()
		for _, cr := range res.CRs {
			out.CRs = append(out.CRs, crJSON{
				Rewriting:    cr.Rewriting.String(),
				Compensation: cr.Compensation.String(),
			})
		}
	}
	return out
}

// maxBatchItems bounds one batch request; larger workloads paginate.
const maxBatchItems = 256

type batchRewriteRequest struct {
	Items []rewriteRequest `json:"items"`
}

// batchItemResponse is one item's outcome: its own HTTP-style status
// and either a rewrite response (200) or an error message. Shared marks
// items that were canonically identical to an earlier item in the same
// batch and reused its computation.
type batchItemResponse struct {
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
	Shared bool   `json:"shared,omitempty"`
	rewriteResponse
}

type batchRewriteResponse struct {
	Items []batchItemResponse `json:"items"`
}

// handleRewriteBatch rewrites up to maxBatchItems requests in one call,
// sharing parse, schema-context and chase work across items hitting the
// same view+schema (see engine.RewriteBatch). The response is
// index-aligned with the request items; per-item failures carry their
// own status and never fail the batch, so the outer status is 200
// whenever the batch itself was well-formed.
func (s *Service) handleRewriteBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRewriteRequest
	if err := decode(w, r, &req); err != nil {
		httpError(w, decodeStatus(err), err)
		return
	}
	if len(req.Items) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("batch must contain at least one item"))
		return
	}
	if len(req.Items) > maxBatchItems {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d items exceeds the limit of %d", len(req.Items), maxBatchItems))
		return
	}
	reqs := make([]engine.Text, len(req.Items))
	for i, it := range req.Items {
		reqs[i] = it.text()
	}
	outs := s.eng.RewriteBatch(r.Context(), reqs)
	resp := batchRewriteResponse{Items: make([]batchItemResponse, len(outs))}
	for i, o := range outs {
		item := batchItemResponse{Status: http.StatusOK, Shared: o.Shared}
		if o.Err != nil {
			item.Status = statusFor(o.Err)
			item.Error = o.Err.Error()
		} else {
			item.rewriteResponse = buildRewriteResponse(o.Result)
		}
		resp.Items[i] = item
	}
	writeJSON(w, resp)
}

type answerRequest struct {
	Query    string `json:"query"`
	View     string `json:"view,omitempty"`
	Document string `json:"document,omitempty"`
	Schema   string `json:"schema,omitempty"`
	// ViewName selects stored-view mode: the query is answered from the
	// forest registered under this name (POST /v1/views) and View,
	// Document and Schema must be absent.
	ViewName string `json:"viewName,omitempty"`
	// Backend forces the plan execution backend ("structjoin", "treedp",
	// "stream"); empty or "auto" selects per program.
	Backend string `json:"backend,omitempty"`
}

type answerJSON struct {
	Path string `json:"path"`
	Text string `json:"text,omitempty"`
}

// planJSON summarizes the compiled answer plan a request executed: how
// many compensation programs it unions and which backend ran each.
type planJSON struct {
	Programs int      `json:"programs"`
	Backends []string `json:"backends,omitempty"`
}

type answerResponse struct {
	Union      string       `json:"union"`
	ViewNodes  int          `json:"viewNodes,omitempty"`
	ViewTrees  int          `json:"viewTrees,omitempty"`
	Answers    []answerJSON `json:"answers"`
	DirectSize int          `json:"directAnswerCount,omitempty"`
	Plan       *planJSON    `json:"plan,omitempty"`
	// Partial mirrors rewriteResponse: the answers were produced by a
	// sound but possibly non-maximal rewriting.
	Partial       bool   `json:"partial,omitempty"`
	PartialReason string `json:"partialReason,omitempty"`
}

func buildPlanJSON(pl *plan.Plan, exec *plan.ExecResult) *planJSON {
	if pl == nil {
		return nil
	}
	pj := &planJSON{Programs: pl.Programs()}
	if exec != nil {
		for _, b := range exec.Backends {
			pj.Backends = append(pj.Backends, b.String())
		}
	}
	return pj
}

func (s *Service) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var req answerRequest
	if err := decode(w, r, &req); err != nil {
		httpError(w, decodeStatus(err), err)
		return
	}
	if req.ViewName != "" && (req.View != "" || req.Document != "" || req.Schema != "") {
		httpError(w, http.StatusBadRequest,
			errors.New("viewName is exclusive with view, document and schema"))
		return
	}
	parsed, err := s.eng.Parse(engine.OpAnswer, engine.Text{
		Query: req.Query, View: req.View, Document: req.Document, Schema: req.Schema,
		ViewName: req.ViewName, Backend: req.Backend,
	})
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	ans, err := s.eng.Answer(r.Context(), parsed)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	// Direct answers report ViewNodes and DirectSize, stored-view
	// answers ViewTrees; the other mode's fields are zero and omitted.
	resp := answerResponse{
		Union:         ans.Result.Union.String(),
		ViewNodes:     len(ans.ViewNodes),
		ViewTrees:     ans.Trees,
		DirectSize:    len(ans.Direct),
		Partial:       ans.Result.Partial,
		PartialReason: string(ans.Result.PartialReason),
		Plan:          buildPlanJSON(ans.Plan, ans.Exec),
	}
	for _, n := range ans.Answers {
		resp.Answers = append(resp.Answers, answerJSON{Path: n.Path(), Text: n.Text})
	}
	writeJSON(w, resp)
}

type registerViewRequest struct {
	Name     string `json:"name"`
	View     string `json:"view"`
	Document string `json:"document"`
}

type registerViewResponse struct {
	Name  string `json:"name"`
	Trees int    `json:"trees"`
	Nodes int    `json:"nodes"`
}

// handleRegisterView materializes the view over the document and stores
// the resulting forest under the given name — the source side of the
// integration scenario, shipping a view to the mediator.
func (s *Service) handleRegisterView(w http.ResponseWriter, r *http.Request) {
	var req registerViewRequest
	if err := decode(w, r, &req); err != nil {
		httpError(w, decodeStatus(err), err)
		return
	}
	// Registration's inputs are all plain client data, so every parse
	// failure is a 400.
	parsed, err := s.eng.Parse(engine.OpRegister, engine.Text{ViewName: req.Name, View: req.View, Document: req.Document})
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	m := viewstore.Materialize(parsed.View, parsed.Document)
	s.eng.RegisterView(parsed.ViewName, m)
	writeJSON(w, registerViewResponse{Name: req.Name, Trees: len(m.Forest), Nodes: m.Size()})
}

type listViewsResponse struct {
	Views []string               `json:"views"`
	Stats viewstore.CatalogStats `json:"stats"`
	// Selected is present when the request carried ?q=: the catalog's
	// top-k candidate views for that query, ranked by signature
	// tightness (?k= caps the list, default 10, 0 = all candidates).
	Selected []viewstore.SelectedView `json:"selected,omitempty"`
}

// handleListViews lists the registered views plus the catalog's
// statistics. With ?q=<tree pattern> it additionally ranks the
// signature-index candidates for that query (?k= bounds the list).
func (s *Service) handleListViews(w http.ResponseWriter, r *http.Request) {
	resp := listViewsResponse{Views: s.eng.ViewNames(), Stats: s.eng.ViewStats()}
	if resp.Views == nil {
		resp.Views = []string{}
	}
	if qExpr := r.URL.Query().Get("q"); qExpr != "" {
		parsed, err := s.eng.Parse(engine.OpSelect, engine.Text{Query: qExpr})
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		k := 10
		if ks := r.URL.Query().Get("k"); ks != "" {
			if k, err = strconv.Atoi(ks); err != nil || k < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("k: not a non-negative integer: %q", ks))
				return
			}
		}
		sel, err := s.eng.SelectViews(r.Context(), parsed.Query, k)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		if sel == nil {
			sel = []viewstore.SelectedView{}
		}
		resp.Selected = sel
	}
	writeJSON(w, resp)
}

type containRequest struct {
	P      string `json:"p"`
	Q      string `json:"q"`
	Schema string `json:"schema,omitempty"`
}

type containResponse struct {
	PInQ bool `json:"pInQ"`
	QInP bool `json:"qInP"`
}

func (s *Service) handleContain(w http.ResponseWriter, r *http.Request) {
	var req containRequest
	if err := decode(w, r, &req); err != nil {
		httpError(w, decodeStatus(err), err)
		return
	}
	// The contain endpoint's inputs are plain expressions, so parse
	// failures are 400s.
	parsed, err := s.eng.Parse(engine.OpContain, engine.Text{Query: req.P, View: req.Q, Schema: req.Schema})
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	pInQ, qInP, err := s.eng.Contain(r.Context(), parsed.Query, parsed.View, parsed.Schema)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, containResponse{PInQ: pInQ, QInP: qInP})
}

// statusFor maps pipeline errors to HTTP statuses: malformed documents
// are the client's fault (400), load shedding is 429 (the Retry-After
// header is added by httpError), recovered panics and injected faults
// are the server's 500, deadline overruns are reported as a timeout
// (504), everything else — unparsable expressions, unanswerable
// queries — is a semantically rejected request (422).
func statusFor(err error) int {
	var inv *engine.InvalidRequestError
	switch {
	case errors.As(err, &inv) && inv.Field == "document":
		return http.StatusBadRequest
	case errors.Is(err, limits.ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, guard.ErrInternal), errors.Is(err, fault.ErrInjected):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

// decode parses exactly one JSON object from the request body. A body
// with trailing garbage after the object ("{}{}", "{} extra") is
// rejected: a second Decode must report io.EOF, otherwise the request
// is ambiguous and refusing it beats silently ignoring half of it.
// Oversized bodies surface as *http.MaxBytesError, which decodeStatus
// maps to 413.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("bad request body: unexpected data after JSON object")
	}
	return nil
}

// decodeStatus maps a decode failure to its HTTP status: an oversized
// body is 413 Content Too Large, anything else is the client's 400.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeJSON marshals v fully before touching the ResponseWriter, so an
// encoding failure can still become a clean 500 instead of a 200 with
// half a body and a second JSON object glued on.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus is writeJSON with an explicit status code, for
// endpoints (like the draining /healthz) that serve a body alongside a
// non-200 status.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, code, body)
}

// encodeJSON renders v as every JSON response body is rendered:
// two-space indented, newline-terminated.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return buf.Bytes(), nil
}

// writeBody writes an encoded JSON body with its status code.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func httpError(w http.ResponseWriter, code int, err error) {
	// A shed request tells the client when the gate expects capacity
	// back; well-behaved clients back off instead of hammering.
	var sat *limits.SaturatedError
	if errors.As(err, &sat) {
		w.Header().Set("Retry-After", strconv.Itoa(sat.RetryAfterSeconds()))
	}
	// json.Marshal of a string cannot fail and escapes quotes properly,
	// so the message survives round-tripping instead of having its
	// quotes rewritten to apostrophes.
	msg, _ := json.Marshal(err.Error())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\n  \"error\": %s\n}\n", msg)
}
