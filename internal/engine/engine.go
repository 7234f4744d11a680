// Package engine provides the one shared query-answering pipeline of
// the system: parse → (chase) → MCR generation → compensation, behind
// a concurrency-safe, budgeted, context-aware façade.
//
// The paper's mediator setting (§1, §3.2) answers many queries against
// few views, and the MCR can be a union of exponentially many patterns
// — so every entry point (HTTP server, CLI, benchmarks, the public qav
// façade) routes through a single Engine rather than assembling the
// pipeline ad hoc. The Engine owns:
//
//   - the rewrite cache (LRU + singleflight, see internal/cache), so N
//     concurrent identical requests compute once;
//   - the per-schema constraint contexts (inference is O(|S|³),
//     Theorem 5, and query-independent — it runs once per schema, not
//     once per request);
//   - the registered materialized views (internal/viewstore), the
//     artifacts autonomous sources ship to the mediator.
//
// Every method takes a context.Context that is threaded down into the
// enumeration and chase hot loops: a client disconnect or deadline
// stops an exponential enumeration instead of burning the budget.
package engine

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"qav/internal/cache"
	"qav/internal/chase"
	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/limits"
	"qav/internal/names"
	"qav/internal/obs"
	"qav/internal/plan"
	"qav/internal/rewrite"
	"qav/internal/schema"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/xmltree"
)

// faultCompute fires at the top of every computed (non-cache-hit)
// rewriting (no-op unless a chaos plan arms it; see internal/fault).
var faultCompute = fault.Register(names.FaultEngineCompute)

// ErrNotAnswerable is returned by Answer when the query has no
// contained rewriting using the view.
var ErrNotAnswerable = errors.New("engine: query is not answerable using the view")

// ErrUnknownView is returned by Answer when the request's ViewName
// names no registered view.
var ErrUnknownView = errors.New("engine: no stored view with that name")

// An InvalidRequestError reports an unparsable request input. Field
// names the offending input: "query", "view", "schema", "document",
// "name", "p", or "q".
type InvalidRequestError struct {
	Field string
	Err   error
}

func (e *InvalidRequestError) Error() string { return e.Field + ": " + e.Err.Error() }
func (e *InvalidRequestError) Unwrap() error { return e.Err }

// Config bounds an Engine.
type Config struct {
	// CacheSize is the rewrite-cache capacity in entries; <= 0 means
	// 1024.
	CacheSize int
	// MaxEmbeddings is the default enumeration budget per request;
	// <= 0 defers to rewrite.DefaultMaxEmbeddings.
	MaxEmbeddings int
	// Timeout, when positive, imposes a per-call deadline on requests
	// whose context does not already carry one.
	Timeout time.Duration
	// Metrics receives the engine's observations (per-stage pipeline
	// timings; the HTTP layer adds per-endpoint metrics to the same
	// registry). nil means a private registry — metrics are always on;
	// the instrumentation is cheap enough for the hot kernels.
	Metrics *obs.Registry
	// SlowQueryThreshold, when positive, records every computed
	// rewriting at or above this duration into the slow-query log with
	// its canonical query/view and stage breakdown. 0 disables.
	SlowQueryThreshold time.Duration
	// SlowLogSize bounds the slow-query ring buffer; <= 0 means 128.
	SlowLogSize int
	// Gate, when non-nil, is the admission-control gate applied to every
	// computed (non-cache-hit, non-follower) rewriting: the leader
	// acquires a slot before running the pipeline and queues or sheds
	// under saturation (*limits.SaturatedError). Cache hits and
	// singleflight followers bypass the gate — they do not add compute
	// load. nil means unlimited admission.
	Gate *limits.Gate
	// CacheDir, when non-empty, enables the persistent second cache
	// tier: completed rewritings are appended asynchronously to a
	// checksummed segment file under this directory and replayed at
	// construction, so a restarted engine serves previously computed
	// rewritings without recomputing them. Corrupt or partial segment
	// tails are truncated, never fatal; a tier that fails to open
	// disables itself and reports the error through Stats.WarmBootErr
	// rather than failing New. Partial results and errors are never
	// persisted.
	CacheDir string
	// SnapshotInterval, when positive (and CacheDir is set),
	// periodically compacts the segment file down to the live warm
	// entries, dropping superseded duplicates. 0 never compacts.
	SnapshotInterval time.Duration
}

// maxSchemaContexts bounds the per-schema constraint-context cache.
// Mediators see few distinct schemas, so the bound only guards against
// adversarial schema churn.
const maxSchemaContexts = 64

// Engine is the shared rewriting pipeline. It is safe for concurrent
// use by multiple goroutines.
type Engine struct {
	cfg   Config
	cache *cache.Cache[*rewrite.Result]
	// plans caches compiled answer plans keyed by the canonical CR
	// union (plan.KeyOf): plans are pure functions of the rewriting,
	// so every request answering through the same MCR shares one.
	plans *cache.Cache[*plan.Plan]
	// planKeys memoizes each cached rewriting's plan key: a hit returns
	// the same immutable *rewrite.Result, so plan.KeyOf, which clones
	// and canonicalizes every compensation, runs once per result rather
	// than once per answer.
	planKeys *cache.Memo[*rewrite.Result, string]
	views    *viewstore.Catalog
	metrics  *obs.Registry
	slow     *obs.SlowLog
	// intern shares parsed patterns and schemas across requests and
	// collapses canonically identical request text before the cache.
	intern *interner
	// persist is the attached warm tier, retained here so Stats can
	// still report it after Close detaches it from the cache; nil when
	// not configured or when the open failed.
	persist *cache.Persist[*rewrite.Result]
	// warmErr records a persistent-tier open failure (the tier is then
	// disabled); empty when the tier is healthy or not configured.
	warmErr string

	mu sync.RWMutex
	// schemas caches constraint-inference contexts, keyed by canonical
	// schema text.
	// guarded by mu
	schemas map[string]*rewrite.SchemaContext
}

// New creates an Engine with the given bounds.
func New(cfg Config) *Engine {
	size := cfg.CacheSize
	if size <= 0 {
		size = 1024
	}
	if cfg.SlowLogSize <= 0 {
		cfg.SlowLogSize = 128
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	e := &Engine{
		cfg: cfg,
		// Partial rewritings describe where one request's budget or
		// deadline landed, not the key — volatile, never stored.
		cache: cache.NewWithPolicy[*rewrite.Result](size, func(r *rewrite.Result) bool {
			return r != nil && r.Partial
		}),
		plans:    cache.New[*plan.Plan](size),
		planKeys: cache.NewMemo(planKeyMemoBytes, func(_ *rewrite.Result, key string) int { return len(key) }),
		views:    viewstore.NewCatalog(),
		metrics:  metrics,
		slow:     obs.NewSlowLog(cfg.SlowQueryThreshold, cfg.SlowLogSize),
		intern:   newInterner(4 * size),
		schemas:  make(map[string]*rewrite.SchemaContext),
	}
	if cfg.CacheDir != "" {
		p, err := cache.OpenPersist[*rewrite.Result](
			filepath.Join(cfg.CacheDir, "rewrites.seg"),
			resultCodec{},
			cache.PersistOptions{
				MaxEntries:      4 * size,
				CompactInterval: cfg.SnapshotInterval,
			},
		)
		if err != nil {
			// A broken cache directory degrades to a memory-only engine;
			// persistence is an optimization, never a startup dependency.
			e.warmErr = err.Error()
		} else {
			e.cache.AttachTier2(p)
			e.persist = p
			metrics.ObserveStage(obs.StageCacheReplay, p.Stats().ReplayDuration)
		}
	}
	return e
}

// Close flushes and closes the persistent cache tier; it is a no-op for
// a memory-only engine, which stays usable afterwards. Call it on
// shutdown so queued cache writes reach the segment.
func (e *Engine) Close() error { return e.cache.Close() }

// WarmBoot describes the persistent tier's boot outcome.
type WarmBoot struct {
	// Enabled reports whether a persistent tier is attached.
	Enabled bool
	// Entries is the current warm-tier entry count; Replayed how many
	// records the boot replay loaded; TruncatedBytes how many trailing
	// segment bytes were discarded as corrupt or torn.
	Entries        int
	Replayed       int64
	TruncatedBytes int64
	// Err is the open failure that disabled the tier, if any.
	Err string
}

// WarmBootInfo returns the persistent tier's boot outcome, for startup
// logs and smoke checks.
func (e *Engine) WarmBootInfo() WarmBoot {
	wb := WarmBoot{Err: e.warmErr}
	if p := e.persist; p != nil {
		ps := p.Stats()
		wb.Enabled = true
		wb.Entries = ps.Entries
		wb.Replayed = ps.Replayed
		wb.TruncatedBytes = ps.TruncatedBytes
	}
	return wb
}

// Metrics returns the engine's observation registry; the HTTP layer
// records its per-endpoint metrics here so GET /metrics is one
// document.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// SlowLog returns the engine's slow-query log.
func (e *Engine) SlowLog() *obs.SlowLog { return e.slow }

// Gate returns the engine's admission gate, or nil when ungated. The
// health endpoint reads its occupancy for load-aware routing; a nil
// Gate is a valid no-op receiver for Stats and Acquire.
func (e *Engine) Gate() *limits.Gate { return e.cfg.Gate }

// withDeadline applies the engine's default timeout when the caller's
// context has no deadline of its own.
func (e *Engine) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.cfg.Timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			return context.WithTimeout(ctx, e.cfg.Timeout)
		}
	}
	return ctx, func() {}
}

// SchemaContext returns the engine's cached constraint-inference
// context for g, inferring the constraint set on first use. Contexts
// are shared across requests: inference is query-independent.
func (e *Engine) SchemaContext(g *schema.Graph) *rewrite.SchemaContext {
	key := g.String()
	e.mu.RLock()
	sc := e.schemas[key]
	e.mu.RUnlock()
	if sc != nil {
		return sc
	}
	sc = rewrite.NewSchemaContext(g)
	e.mu.Lock()
	if cached, ok := e.schemas[key]; ok {
		sc = cached
	} else {
		if len(e.schemas) >= maxSchemaContexts {
			// Cheap wholesale reset; a mediator sees few schemas, so
			// this only fires under schema churn.
			e.schemas = make(map[string]*rewrite.SchemaContext)
		}
		e.schemas[key] = sc
	}
	e.mu.Unlock()
	return sc
}

// Request is a fully parsed request for one of the paper's operations:
// Rewrite reads Query, View and Schema; Answer additionally reads
// Document or ViewName.
type Request struct {
	Query *tpq.Pattern
	View  *tpq.Pattern
	// Schema is optional; nil selects the schemaless algorithm (§3).
	Schema *schema.Graph
	// Recursive forces the §5 recursive-schema algorithm even when the
	// schema itself is recursion-free. It is implied by a recursive
	// schema.
	Recursive bool
	// MaxEmbeddings overrides the engine's default enumeration budget
	// for this request when positive.
	MaxEmbeddings int
	// NoCache bypasses the rewrite cache (used by benchmarks measuring
	// the raw pipeline, and by callers that will mutate the result).
	NoCache bool
	// Document is the source a direct Answer materializes View over; it
	// is required unless ViewName is set.
	Document *xmltree.Document
	// ViewName, when set, makes Answer run over the stored view
	// registered under this name in place of View and Document.
	ViewName string
}

func (r Request) options(e *Engine, ctx context.Context) rewrite.Options {
	limit := r.MaxEmbeddings
	if limit <= 0 {
		limit = e.cfg.MaxEmbeddings
	}
	return rewrite.Options{MaxEmbeddings: limit, Context: ctx}
}

// recursive reports whether the request takes the §5 recursive-schema
// algorithm.
func (r Request) recursive() bool {
	return r.Schema != nil && (r.Recursive || r.Schema.IsRecursive())
}

// Text is a request's operands in textual form, as the HTTP API and the
// benchmarks receive them. Parse resolves it into a Request.
type Text struct {
	Query     string
	View      string
	Schema    string // optional schema DSL text
	Recursive bool
	Document  string // XML text
	// ViewName names a stored view: the one an answer runs over in place
	// of View and Document, or the one a registration stores.
	ViewName string
}

// The operations Parse resolves textual operands for. Each decides
// which operands are required (an empty required operand fails like any
// unparsable one), the order they are checked in, and the field name an
// *InvalidRequestError reports.
const (
	// OpRewrite: query and view; optional schema.
	OpRewrite = names.OpRewrite
	// OpAnswer: query, view, optional schema, and document; with a
	// ViewName, only query.
	OpAnswer = names.OpAnswer
	// OpContain: p and q, carried in Query and View; optional schema.
	OpContain = "contain"
	// OpSelect: the stored-view selection probe q, carried in Query.
	OpSelect = "select"
	// OpRegister: a stored view's name (ViewName), view and document.
	OpRegister = "register"
)

// Parse resolves a request's textual operands for op through the
// engine's interner: repeated expression text skips the parse entirely,
// and canonically identical patterns collapse onto one shared instance,
// so two spellings of the same query produce the same cache key and
// join the same singleflight before any parse-downstream work runs.
// Every textual entry point parses here, and the time lands in the
// parse stage.
func (e *Engine) Parse(op string, t Text) (req Request, err error) {
	start := time.Now()
	defer func() { e.metrics.ObserveStage(obs.StageParse, time.Since(start)) }()
	// The operands op requires, named as its clients know them; an
	// empty field name marks a pattern operand op does not take.
	qField, vField, needDoc := "query", "view", false
	switch {
	case op == OpContain:
		qField, vField = "p", "q"
	case op == OpSelect:
		qField, vField = "q", ""
	case op == OpRegister:
		if t.ViewName == "" {
			return Request{}, &InvalidRequestError{Field: "name", Err: errors.New("empty view name")}
		}
		qField, needDoc = "", true
	case op == OpAnswer && t.ViewName != "":
		vField = "" // the stored view's own expression is the view
	case op == OpAnswer:
		needDoc = true
	}
	if qField != "" {
		if req.Query, err = e.intern.pattern(t.Query); err != nil {
			return Request{}, &InvalidRequestError{Field: qField, Err: err}
		}
	}
	if vField != "" {
		if req.View, err = e.intern.pattern(t.View); err != nil {
			return Request{}, &InvalidRequestError{Field: vField, Err: err}
		}
	}
	if t.Schema != "" {
		if req.Schema, err = e.intern.schemaGraph(t.Schema); err != nil {
			return Request{}, &InvalidRequestError{Field: "schema", Err: err}
		}
	}
	if needDoc {
		if req.Document, err = xmltree.ParseString(t.Document); err != nil {
			return Request{}, &InvalidRequestError{Field: "document", Err: err}
		}
	}
	req.Recursive, req.ViewName = t.Recursive, t.ViewName
	return req, nil
}

// Rewrite computes the maximal contained rewriting of the request's
// query using its view, selecting the schemaless (§3), schema (§4) or
// recursive-schema (§5) algorithm, with caching and singleflight
// deduplication. Cached results are shared: callers must not mutate
// them (set NoCache to receive a private copy).
//
// Every computed (non-cache-hit) request runs under a fresh obs.Span:
// the pipeline credits its parse/chase/enumerate/buildcr/contain time,
// the span folds into the engine's metrics registry, and requests at or
// above Config.SlowQueryThreshold land in the slow-query log. Cache
// hits bypass all of it — a hit stays a lock, a map probe and nothing
// else.
func (e *Engine) Rewrite(ctx context.Context, req Request) (*rewrite.Result, error) {
	ctx, cancel := e.withDeadline(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	recursive := req.recursive()
	compute := func() (*rewrite.Result, error) {
		// Admission control guards compute, not lookups: only the
		// singleflight leader reaches this closure, so cache hits and
		// deduplicated followers never queue or shed.
		release, err := e.cfg.Gate.Acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		sp := obs.NewSpan()
		cctx := obs.WithSpan(ctx, sp)
		start := time.Now()
		res, err := e.runPipelineGuarded(cctx, req, recursive)
		e.observe(obs.SlowEntry{Op: names.OpRewrite}, req, sp, time.Since(start), err)
		return res, err
	}
	if req.NoCache {
		return compute()
	}
	key := cache.Key(req.Query, req.View, req.Schema, recursive)
	return e.cache.GetOrCompute(ctx, key, compute)
}

// runPipelineGuarded is runPipeline behind panic isolation: a panic
// anywhere in the rewriting pipeline becomes a typed ErrInternal whose
// stack observe preserves in the slow-query log, failing one request
// instead of the process.
func (e *Engine) runPipelineGuarded(ctx context.Context, req Request, recursive bool) (res *rewrite.Result, err error) {
	defer guard.Recover(&err, "engine.rewrite")
	if err := faultCompute.Hit(ctx); err != nil {
		return nil, err
	}
	return e.runPipeline(ctx, req, recursive)
}

// runPipeline dispatches to the paper's three rewriting algorithms.
func (e *Engine) runPipeline(ctx context.Context, req Request, recursive bool) (*rewrite.Result, error) {
	opts := req.options(e, ctx)
	if req.Schema == nil {
		return rewrite.MCR(req.Query, req.View, opts)
	}
	sc := e.SchemaContext(req.Schema)
	if recursive {
		return sc.MCRRecursive(req.Query, req.View, opts)
	}
	return sc.MCRWithSchemaCtx(ctx, req.Query, req.View)
}

// observe folds one computed rewriting or answer execution into the
// metrics registry and, when it crossed the slow-query threshold, into
// the slow log: entry, which carries the operation's Op label, is
// completed with the request and its stage breakdown. Canonicalization
// is cached on the patterns, so even slow-path entries are cheap to
// build.
func (e *Engine) observe(entry obs.SlowEntry, req Request, sp *obs.Span, d time.Duration, err error) {
	e.metrics.ObserveSpan(sp)
	// Recovered panics are recorded regardless of the latency threshold:
	// the stack is the only evidence of the crash site, and a request
	// that died early is exactly the one the threshold would drop.
	var ie *guard.InternalError
	internal := errors.As(err, &ie)
	th := e.slow.Threshold()
	if !internal && (th <= 0 || d < th) {
		return
	}
	entry.Time = time.Now()
	entry.Query = req.Query.Canonical()
	entry.View = req.View.Canonical()
	entry.Recursive = req.recursive()
	entry.DurationNs = int64(d)
	entry.StageNs = sp.StageNs()
	if req.Schema != nil {
		entry.Schema = req.Schema.String()
	}
	if err != nil {
		entry.Err = err.Error()
	}
	if internal {
		entry.Stack = string(ie.Stack)
	}
	e.slow.Record(entry)
}

// BatchOutcome is one item's outcome in a RewriteBatch call.
type BatchOutcome struct {
	Result *rewrite.Result
	Err    error
	// Shared marks items whose (query, view, schema) was canonically
	// identical to an earlier item in the same batch: they reuse that
	// item's computation instead of starting their own.
	Shared bool
}

// RewriteBatch rewrites a batch of textual requests, sharing work
// across items: parsing goes through the interner (so repeated or
// canonically identical expressions parse once), items that collapse
// onto the same cache key compute once per batch, and distinct keys
// compute concurrently under the engine's gate, deadline and cache —
// schema contexts and chase results are shared through the usual
// per-schema cache. The returned slice is index-aligned with reqs;
// per-item failures land in their item's Err and never fail the batch.
func (e *Engine) RewriteBatch(ctx context.Context, reqs []Text) []BatchOutcome {
	ctx, cancel := e.withDeadline(ctx)
	defer cancel()
	out := make([]BatchOutcome, len(reqs))
	parsed := make([]Request, len(reqs))
	groups := make(map[string][]int) // cache key → item indices
	var order []string
	for i, r := range reqs {
		p, err := e.Parse(OpRewrite, r)
		if err != nil {
			out[i].Err = err
			continue
		}
		parsed[i] = p
		k := cache.Key(p.Query, p.View, p.Schema, p.recursive())
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	var wg sync.WaitGroup
	for _, k := range order {
		indices := groups[k]
		wg.Add(1)
		go func(indices []int) {
			defer wg.Done()
			lead := indices[0]
			var res *rewrite.Result
			var err error
			func() {
				// Rewrite isolates pipeline panics itself; this guard
				// covers the batch plumbing so one bad item cannot take
				// down the whole process.
				defer guard.Recover(&err, "engine.batch")
				res, err = e.Rewrite(ctx, parsed[lead])
			}()
			for _, i := range indices {
				out[i] = BatchOutcome{Result: res, Err: err, Shared: i != lead}
			}
		}(indices)
	}
	wg.Wait()
	return out
}

// Answer is the outcome of answering a query through a view: the
// rewriting used, the answers obtained by executing the compiled answer
// plan, and the plan.
type Answer struct {
	Result *rewrite.Result
	// Exec holds the answers as positions of the forest the plan ran
	// over; Exec.Nodes resolves them to nodes.
	Exec *plan.ExecResult
	// ViewNodes (materialized view nodes) and Direct (the query
	// evaluated on the document, for comparison) are set by a direct
	// answer over a document.
	ViewNodes []*xmltree.Node
	Direct    []*xmltree.Node
	// Trees is the stored forest's tree count, set by a stored-view
	// answer.
	Trees int
	// Plan is the compiled (cached) answer plan the request executed.
	Plan *plan.Plan
}

// planKeyMemoBytes bounds the plan keys Engine.planKeys holds (plus
// cache.MemoEntryBytes each), a few hundred at typical key sizes. Every
// entry pins its *rewrite.Result, evicted from the rewrite cache or
// not, until the memo's next wholesale reset, so the bound on keys is
// also the bound on the results they keep alive.
const planKeyMemoBytes = 32 << 10

// planFor returns the compiled answer plan for res's CR set, from the
// plan cache: plans are pure functions of the canonical CR union, so
// concurrent requests answering through the same MCR compile once
// (singleflight) and share the artifact. Compile time is credited to
// the plan.compile stage by the computing leader only — a hit stays a
// memo probe, a lock and a map probe.
func (e *Engine) planFor(ctx context.Context, res *rewrite.Result) (*plan.Plan, error) {
	key, ok := e.planKeys.Get(res)
	if !ok {
		var err error
		if key, err = plan.KeyOf(rewrite.Compensations(res.CRs)); err != nil {
			return nil, err
		}
		// A partial result is new on every request: its key would
		// never be asked for again.
		if !res.Partial {
			e.planKeys.Put(res, key)
		}
	}
	return e.plans.GetOrCompute(ctx, key, func() (*plan.Plan, error) {
		return plan.Compile(ctx, rewrite.Compensations(res.CRs))
	})
}

// answerPlan is the shared answer pipeline tail: compile (cached) →
// index (caller-supplied: per-request subtree windows or the stored
// view's cached forest index) → exec, behind the same protections as
// the rewriting pipeline — panic isolation (a panic fails the request,
// not the process) and admission control (indexing and execution scan
// the forest, so they queue or shed under saturation like any other
// compute; plan-cache lookups happen before the gate).
func (e *Engine) answerPlan(ctx context.Context, res *rewrite.Result, index func(context.Context) (*plan.Forest, error)) (pl *plan.Plan, exec *plan.ExecResult, err error) {
	defer guard.Recover(&err, "engine.answer")
	pl, err = e.planFor(ctx, res)
	if err != nil {
		return nil, nil, err
	}
	release, err := e.cfg.Gate.Acquire(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	f, err := index(ctx)
	if err != nil {
		return nil, nil, err
	}
	exec, err = pl.Exec(ctx, f, plan.ExecOptions{})
	if err != nil {
		return nil, nil, err
	}
	return pl, exec, nil
}

// Answer answers the request's query strictly through a view: the MCR
// is computed (cached), its compensation queries compile into an answer
// plan (cached by canonical CR union), and the plan executes over the
// view's forest. With a ViewName the forest is the stored view's, read
// through its cached index, and the source document is never touched
// (ErrUnknownView when no view has that name); otherwise View is
// materialized over Document and the plan executes over the indexed
// view windows. Returns ErrNotAnswerable when no contained rewriting
// exists.
func (e *Engine) Answer(ctx context.Context, req Request) (*Answer, error) {
	ctx, cancel := e.withDeadline(ctx)
	defer cancel()
	var stored *viewstore.Materialized
	if req.ViewName != "" {
		var ok bool
		if stored, ok = e.views.Get(req.ViewName); !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownView, req.ViewName)
		}
		req.View = stored.Expr
	}
	res, err := e.Rewrite(ctx, req)
	if err != nil {
		return nil, err
	}
	if res.Union.Empty() {
		return nil, ErrNotAnswerable
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ans := &Answer{Result: res}
	var index func(context.Context) (*plan.Forest, error)
	if stored != nil {
		ans.Trees = len(stored.Forest)
		index = stored.ForestIndex
	} else {
		viewNodes := rewrite.MaterializeView(req.View, req.Document)
		ans.ViewNodes = viewNodes
		index = func(c context.Context) (*plan.Forest, error) {
			return plan.IndexSubtrees(c, req.Document, viewNodes)
		}
	}
	sp := obs.NewSpan()
	start := time.Now()
	pl, exec, err := e.answerPlan(obs.WithSpan(ctx, sp), res, index)
	e.observe(obs.SlowEntry{Op: names.OpAnswer}, req, sp, time.Since(start), err)
	if err != nil {
		return nil, err
	}
	ans.Plan, ans.Exec = pl, exec
	if stored == nil {
		ans.Direct = req.Query.Evaluate(req.Document)
	}
	return ans, nil
}

// RegisterView stores a materialized view under name, replacing any
// previous registration. This is the mediator's catalog of shipped
// views.
func (e *Engine) RegisterView(name string, m *viewstore.Materialized) {
	e.views.Register(name, m)
}

// ViewNames returns the names of the registered stored views, sorted.
func (e *Engine) ViewNames() []string { return e.views.Names() }

// ViewStats returns the view catalog's statistics (registration count,
// shard count, interned tag dictionary size, mutation generation).
func (e *Engine) ViewStats() viewstore.CatalogStats { return e.views.Stats() }

// SelectViews returns the top k stored views for q ranked by signature
// tightness; k <= 0 returns all candidates, ranked.
func (e *Engine) SelectViews(ctx context.Context, q *tpq.Pattern, k int) ([]viewstore.SelectedView, error) {
	return e.views.SelectViews(ctx, q, k)
}

// Contain decides containment both ways between p and q, schema-
// relative when g is non-nil.
func (e *Engine) Contain(ctx context.Context, p, q *tpq.Pattern, g *schema.Graph) (pInQ, qInP bool, err error) {
	ctx, cancel := e.withDeadline(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return false, false, err
	}
	start := time.Now()
	defer func() { e.metrics.ObserveStage(obs.StageContain, time.Since(start)) }()
	if g == nil {
		return tpq.Contained(p, q), tpq.Contained(q, p), nil
	}
	sc := e.SchemaContext(g)
	pInQ = sc.SContained(p, q)
	if err := ctx.Err(); err != nil {
		return false, false, err
	}
	return pInQ, sc.SContained(q, p), nil
}

// Chase exposes the chase procedure as an inspection utility: the
// goal-directed intelligent chase toward q when q is non-nil (Lemma 4),
// the exhaustive fixpoint chase otherwise. The exhaustive chase can be
// exponential, so it honors ctx cancellation.
func (e *Engine) Chase(ctx context.Context, v, q *tpq.Pattern, g *schema.Graph) (*tpq.Pattern, error) {
	ctx, cancel := e.withDeadline(ctx)
	defer cancel()
	start := time.Now()
	defer func() { e.metrics.ObserveStage(obs.StageChase, time.Since(start)) }()
	sigma := e.SchemaContext(g).Sigma
	if q != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return chase.Intelligent(v, q, sigma), nil
	}
	return chase.Exhaustive(ctx, v, sigma, chase.Options{})
}

// Stats is a point-in-time snapshot of the engine's shared state.
// CacheHits, CacheMisses and CacheDedups are disjoint: a lookup is
// exactly one of a completed-entry hit, a leader computation, or a
// follower wait deduplicated onto an in-flight leader.
type Stats struct {
	CacheHits    int64
	CacheMisses  int64
	CacheDedups  int64
	CacheEntries int
	// CacheWarmHits counts lookups served by the persistent warm tier
	// (decoded from disk and promoted, no recompute) — disjoint from
	// hits, misses and dedups.
	CacheWarmHits int64
	// Persistent-tier gauges; all zero for a memory-only engine.
	WarmEntries   int
	WarmReplayed  int64
	Persisted     int64
	PersistDrops  int64
	PersistErrors int64
	SegmentBytes  int64
	// WarmBootErr is the persistent-tier open failure that disabled the
	// tier, if any.
	WarmBootErr string
	// Interner counters: text hits (no parse), parses, and parses that
	// collapsed onto a canonically identical shared pattern.
	InternHits   int64
	InternMisses int64
	InternDedups int64

	PlanCacheHits  int64
	PlanCacheMiss  int64
	PlanCacheDedup int64
	PlanEntries    int
	SchemaContexts int
	StoredViews    int
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	hits, misses, dedups := e.cache.Stats()
	phits, pmisses, pdedups := e.plans.Stats()
	ihits, imisses, idedups := e.intern.stats()
	st := Stats{
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheDedups:    dedups,
		CacheEntries:   e.cache.Len(),
		CacheWarmHits:  e.cache.WarmHits(),
		WarmBootErr:    e.warmErr,
		InternHits:     ihits,
		InternMisses:   imisses,
		InternDedups:   idedups,
		PlanCacheHits:  phits,
		PlanCacheMiss:  pmisses,
		PlanCacheDedup: pdedups,
		PlanEntries:    e.plans.Len(),
		StoredViews:    e.views.Len(),
	}
	if p := e.persist; p != nil {
		ps := p.Stats()
		st.WarmEntries = ps.Entries
		st.WarmReplayed = ps.Replayed
		st.Persisted = ps.Appended
		st.PersistDrops = ps.Dropped
		st.PersistErrors = ps.Errors
		st.SegmentBytes = ps.SegmentBytes
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	st.SchemaContexts = len(e.schemas)
	return st
}

// MetricsSnapshot returns the full observability document: endpoint and
// stage metrics from the registry, the cache counters, engine-level
// gauges, and the slow-query log. GET /metrics serves exactly this
// value, qavd republishes it through expvar, and qavbench -json embeds
// its Stages section — one schema for offline and live reporting.
func (e *Engine) MetricsSnapshot() obs.Snapshot {
	snap := e.metrics.Snapshot()
	st := e.Stats()
	snap.Cache = &obs.CacheSnapshot{
		Hits:          st.CacheHits,
		WarmHits:      st.CacheWarmHits,
		Misses:        st.CacheMisses,
		Dedups:        st.CacheDedups,
		Entries:       st.CacheEntries,
		WarmEntries:   st.WarmEntries,
		Replayed:      st.WarmReplayed,
		Persisted:     st.Persisted,
		PersistDrops:  st.PersistDrops,
		PersistErrors: st.PersistErrors,
		SegmentBytes:  st.SegmentBytes,
	}
	snap.Engine = map[string]int64{
		"schemaContexts":  int64(st.SchemaContexts),
		"storedViews":     int64(st.StoredViews),
		"planCacheHits":   st.PlanCacheHits,
		"planCacheMisses": st.PlanCacheMiss,
		"planCacheDedups": st.PlanCacheDedup,
		"planCacheSize":   int64(st.PlanEntries),
		"internHits":      st.InternHits,
		"internMisses":    st.InternMisses,
		"internDedups":    st.InternDedups,
	}
	if g := e.cfg.Gate; g != nil {
		gs := g.Stats()
		snap.Gate = &obs.GateSnapshot{
			InFlight: gs.InFlight,
			Queued:   gs.Queued,
			Admitted: gs.Admitted,
			Shed:     gs.Shed,
		}
	}
	slow := e.slow.Snapshot()
	snap.SlowLog = &slow
	return snap
}
