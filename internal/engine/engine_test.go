package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/leaktest"
	"qav/internal/limits"
	"qav/internal/plan"
	"qav/internal/rewrite"
	"qav/internal/schema"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

const auctionSchema = `root Auctions
Auctions -> Auction*
Auction -> open_auction* closed_auction?
open_auction -> item bids?
closed_auction -> item person? buyer?
bids -> person+
buyer -> person
person -> name
item -> name
`

// rewriteText parses t for OpRewrite and rewrites it.
func rewriteText(e *Engine, t Text) (*rewrite.Result, error) {
	req, err := e.Parse(OpRewrite, t)
	if err != nil {
		return nil, err
	}
	return e.Rewrite(context.Background(), req)
}

// answerText parses t for OpAnswer and answers it.
func answerText(e *Engine, t Text) (*Answer, error) {
	req, err := e.Parse(OpAnswer, t)
	if err != nil {
		return nil, err
	}
	return e.Answer(context.Background(), req)
}

// containText parses t for OpContain (p in Query, q in View) and decides
// containment both ways.
func containText(e *Engine, t Text) (pInQ, qInP bool, err error) {
	req, err := e.Parse(OpContain, t)
	if err != nil {
		return false, false, err
	}
	return e.Contain(context.Background(), req.Query, req.View, req.Schema)
}

// registerText parses a registration for OpRegister, materializes the
// view over the document and stores it under name, as POST /v1/views
// does.
func registerText(e *Engine, name, view, doc string) (*viewstore.Materialized, error) {
	req, err := e.Parse(OpRegister, Text{ViewName: name, View: view, Document: doc})
	if err != nil {
		return nil, err
	}
	m := viewstore.Materialize(req.View, req.Document)
	e.RegisterView(req.ViewName, m)
	return m, nil
}

func TestRewriteSchemaless(t *testing.T) {
	e := New(Config{})
	res, err := rewriteText(e, Text{
		Query: "//Trials[//Status]//Trial", View: "//Trials//Trial",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Union.Empty() {
		t.Fatal("expected answerable")
	}
	// Must agree with the rewrite package called directly.
	direct, err := rewrite.MCR(tpq.MustParse("//Trials[//Status]//Trial"), tpq.MustParse("//Trials//Trial"), rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Union.SameAs(direct.Union) {
		t.Errorf("engine union %s != direct %s", res.Union, direct.Union)
	}
}

func TestRewriteWithSchemaSelectsAlgorithm(t *testing.T) {
	e := New(Config{})
	res, err := rewriteText(e, Text{
		Query: "//Auction[//item]//name", View: "//Auction//person", Schema: auctionSchema,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Union.String(); got != "//Auction//person//name" {
		t.Errorf("union = %s", got)
	}
	// A recursive schema must silently select the §5 algorithm.
	if _, err := rewriteText(e, Text{
		Query: "//a//b", View: "//a//b", Schema: "root a\na -> a? b\nb -> c?\n",
	}); err != nil {
		t.Fatalf("recursive schema: %v", err)
	}
}

func TestInvalidInputs(t *testing.T) {
	e := New(Config{})
	var inv *InvalidRequestError
	if _, err := rewriteText(e, Text{Query: "///", View: "//a"}); !errors.As(err, &inv) || inv.Field != "query" {
		t.Errorf("bad query: %v", err)
	}
	if _, err := rewriteText(e, Text{Query: "//a", View: "//b", Schema: "not a schema"}); !errors.As(err, &inv) || inv.Field != "schema" {
		t.Errorf("bad schema: %v", err)
	}
	if _, err := answerText(e, Text{Query: "//a", View: "//a", Document: "<unclosed"}); !errors.As(err, &inv) || inv.Field != "document" {
		t.Errorf("bad document: %v", err)
	}
}

func TestAnswerExpr(t *testing.T) {
	e := New(Config{})
	ans, err := answerText(e, Text{
		Query:    "//Trials[//Status]//Trial/Patient",
		View:     "//Trials//Trial",
		Document: "<PharmaLab><Trials><Trial><Patient>John</Patient><Status/></Trial><Trial><Patient>Jen</Patient></Trial></Trials></PharmaLab>",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Answers) != 1 || ans.Answers[0].Text != "John" {
		t.Errorf("answers = %v", ans.Answers)
	}
	if len(ans.ViewNodes) != 2 || len(ans.Direct) != 2 {
		t.Errorf("viewNodes = %d, direct = %d", len(ans.ViewNodes), len(ans.Direct))
	}
	// Unanswerable pair.
	if _, err := answerText(e, Text{Query: "/b", View: "/a//c", Document: "<a/>"}); !errors.Is(err, ErrNotAnswerable) {
		t.Errorf("err = %v, want ErrNotAnswerable", err)
	}
}

func TestAnswerStored(t *testing.T) {
	e := New(Config{})
	d, err := xmltree.ParseString("<Trials><Trial><Patient>Ann</Patient><Status/></Trial></Trials>")
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterView("src1", viewstore.Materialize(tpq.MustParse("//Trials//Trial"), d))
	ans, err := e.Answer(context.Background(), Request{Query: tpq.MustParse("//Trials//Trial/Patient"), ViewName: "src1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Answers) != 1 || ans.Answers[0].Text != "Ann" {
		t.Errorf("answers = %v", ans.Answers)
	}
	if _, err := e.Answer(context.Background(), Request{Query: tpq.MustParse("//x"), ViewName: "nope"}); !errors.Is(err, ErrUnknownView) {
		t.Errorf("err = %v, want ErrUnknownView", err)
	}
}

func TestContain(t *testing.T) {
	e := New(Config{})
	pInQ, qInP, err := containText(e, Text{Query: "//a/b", View: "//a//b"})
	if err != nil || !pInQ || qInP {
		t.Errorf("contain = %v %v %v", pInQ, qInP, err)
	}
	// Schema-relative: the Figure 2 pair holds only under the schema.
	pInQ, _, err = containText(e, Text{
		Query: "//Auction//person//name", View: "//Auction[//item]//name", Schema: auctionSchema,
	})
	if err != nil || !pInQ {
		t.Errorf("S-containment = %v %v", pInQ, err)
	}
}

func TestSchemaContextShared(t *testing.T) {
	e := New(Config{})
	g1 := schema.MustParse(auctionSchema)
	g2 := schema.MustParse(auctionSchema)
	if e.SchemaContext(g1) != e.SchemaContext(g2) {
		t.Error("structurally equal schemas must share one inferred context")
	}
	if n := e.Stats().SchemaContexts; n != 1 {
		t.Errorf("SchemaContexts = %d", n)
	}
}

// A context cancelled before the call returns its error immediately.
func TestRewriteCancelledUpfront(t *testing.T) {
	e := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Rewrite(ctx, Request{Query: workload.Fig8Query(4), View: workload.Fig8View()}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// Deadline mid-enumeration: the Figure 8 family has 2^n useful
// embeddings and a quadratic redundancy-elimination phase on top, so an
// uncancelled run at n=12 takes many seconds. A deadline must stop it
// promptly — and, under graceful degradation, hand back the sound union
// found so far as a Partial result rather than an error.
func TestRewriteDeadlineStopsEnumeration(t *testing.T) {
	defer leaktest.Check(t)()
	e := New(Config{})
	q, v := workload.Fig8Query(12), workload.Fig8View()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := e.Rewrite(ctx, Request{Query: q, View: v, MaxEmbeddings: 1 << 22})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("err = %v, want a partial result", err)
	}
	if !res.Partial || res.PartialReason != rewrite.PartialDeadline {
		t.Fatalf("result = {Partial: %v, Reason: %q}, want a deadline partial", res.Partial, res.PartialReason)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; the deadline was not honored in the hot loop", elapsed)
	}
	// Every disjunct of a partial union must still be contained in q.
	for _, p := range res.Union.Patterns {
		if !tpq.Contained(p, q) {
			t.Errorf("partial disjunct %s not contained in the query", p)
		}
	}
	// The partial result must not have been cached: the next caller with
	// a healthy deadline deserves a shot at the full answer.
	if s := e.Stats(); s.CacheEntries != 0 {
		t.Errorf("partial computation was cached (%d entries)", s.CacheEntries)
	}
}

// A cancelled client (as opposed to an expired deadline) still gets an
// error: nobody is left to read a partial answer.
func TestRewriteCancelIsNotPartial(t *testing.T) {
	defer leaktest.Check(t)()
	e := New(Config{})
	q, v := workload.Fig8Query(12), workload.Fig8View()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := e.Rewrite(ctx, Request{Query: q, View: v, MaxEmbeddings: 1 << 22})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The engine timeout config applies when the caller's context has none;
// its expiry degrades to a partial result like any other deadline.
func TestConfigTimeout(t *testing.T) {
	e := New(Config{Timeout: 20 * time.Millisecond})
	res, err := e.Rewrite(context.Background(), Request{Query: workload.Fig8Query(12), View: workload.Fig8View(), MaxEmbeddings: 1 << 22})
	if err != nil {
		t.Fatalf("err = %v, want a partial result", err)
	}
	if !res.Partial || res.PartialReason != rewrite.PartialDeadline {
		t.Fatalf("result = {Partial: %v, Reason: %q}, want a deadline partial", res.Partial, res.PartialReason)
	}
}

// Singleflight: N concurrent identical requests compute once.
// A computed rewrite credits its pipeline stages into the metrics
// registry; a cache hit credits nothing (the hit path must stay a map
// probe).
func TestMetricsSnapshotStages(t *testing.T) {
	e := New(Config{})
	req := Text{Query: "//Trials[//Status]//Trial", View: "//Trials//Trial"}
	if _, err := rewriteText(e, req); err != nil {
		t.Fatal(err)
	}
	snap := e.MetricsSnapshot()
	for _, st := range []string{"parse", "enumerate", "buildcr", "contain"} {
		if snap.Stages[st].Count == 0 || snap.Stages[st].TotalNs == 0 {
			t.Errorf("stage %s not recorded: %+v", st, snap.Stages[st])
		}
	}
	if snap.Cache == nil || snap.Cache.Misses != 1 || snap.Cache.Hits != 0 {
		t.Fatalf("cache = %+v", snap.Cache)
	}

	// The same request again is a hit: parse runs (expression decoding
	// is outside the cache), the pipeline stages must not.
	enumBefore := snap.Stages["enumerate"].Count
	if _, err := rewriteText(e, req); err != nil {
		t.Fatal(err)
	}
	snap = e.MetricsSnapshot()
	if snap.Cache.Hits != 1 {
		t.Errorf("cache = %+v, want one hit", snap.Cache)
	}
	if got := snap.Stages["enumerate"].Count; got != enumBefore {
		t.Errorf("enumerate count grew on a cache hit: %d -> %d", enumBefore, got)
	}
}

// The schema pipeline credits the chase stage too.
func TestMetricsSnapshotSchemaStages(t *testing.T) {
	e := New(Config{})
	_, err := rewriteText(e, Text{
		Query: "//Auction[//item]//name", View: "//Auction//person", Schema: auctionSchema,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.MetricsSnapshot()
	if snap.Stages["chase"].Count == 0 {
		t.Errorf("chase stage not recorded: %+v", snap.Stages)
	}
}

func TestSlowQueryLog(t *testing.T) {
	e := New(Config{SlowQueryThreshold: time.Nanosecond})
	if _, err := rewriteText(e, Text{
		Query: "//Trials[//Status]//Trial", View: "//Trials//Trial",
	}); err != nil {
		t.Fatal(err)
	}
	snap := e.SlowLog().Snapshot()
	if snap.Total != 1 || len(snap.Entries) != 1 {
		t.Fatalf("slowlog = %+v", snap)
	}
	entry := snap.Entries[0]
	if entry.Op != "rewrite" || entry.Query == "" || entry.DurationNs <= 0 {
		t.Errorf("entry = %+v", entry)
	}
	if len(entry.StageNs) == 0 {
		t.Error("entry has no stage breakdown")
	}
	// A repeat of the same request is a cache hit and must not be
	// logged again, no matter how low the threshold.
	if _, err := rewriteText(e, Text{
		Query: "//Trials[//Status]//Trial", View: "//Trials//Trial",
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.SlowLog().Snapshot().Total; got != 1 {
		t.Errorf("total = %d after cache hit, want 1", got)
	}
}

func TestSlowQueryLogDisabledByDefault(t *testing.T) {
	e := New(Config{})
	if _, err := rewriteText(e, Text{
		Query: "//Trials[//Status]//Trial", View: "//Trials//Trial",
	}); err != nil {
		t.Fatal(err)
	}
	if snap := e.SlowLog().Snapshot(); snap.Total != 0 {
		t.Errorf("slowlog recorded %d entries with a zero threshold", snap.Total)
	}
}

func TestConcurrentDuplicatesComputeOnce(t *testing.T) {
	e := New(Config{})
	req := Request{Query: tpq.MustParse("//Trials[//Status]//Trial"), View: tpq.MustParse("//Trials//Trial")}
	const workers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := e.Rewrite(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if s := e.Stats(); s.CacheMisses != 1 {
		t.Errorf("misses = %d, want 1 (singleflight dedup)", s.CacheMisses)
	}
}

// Hammer one shared Engine from many goroutines across every entry
// point; run with -race.
func TestEngineConcurrentMixedUse(t *testing.T) {
	e := New(Config{CacheSize: 8})
	queries := []string{"//a[b]", "//a[c]", "//a//b", "//a/b[c]", "//x/y"}
	doc := "<r><a><b>1</b><c/></a><x><y/></x></r>"
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := queries[(w+i)%len(queries)]
				switch i % 4 {
				case 0:
					if _, err := rewriteText(e, Text{Query: q, View: "//a"}); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := rewriteText(e, Text{Query: q, View: "//a", Schema: auctionSchema}); err != nil {
						t.Error(err)
					}
				case 2:
					if _, _, err := containText(e, Text{Query: q, View: "//a"}); err != nil {
						t.Error(err)
					}
				case 3:
					ans, err := answerText(e, Text{Query: "//a/b", View: "//a", Document: doc})
					if err != nil {
						t.Error(err)
					} else if len(ans.Answers) != 1 {
						t.Errorf("answers = %d", len(ans.Answers))
					}
				}
				e.Stats()
			}
		}(w)
	}
	// Concurrent view registration and stored answering.
	d, _ := xmltree.ParseString(doc)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("v%d", w)
			e.RegisterView(name, viewstore.Materialize(tpq.MustParse("//a"), d))
			for i := 0; i < 10; i++ {
				if _, err := e.Answer(context.Background(), Request{Query: tpq.MustParse("//a/b"), ViewName: name}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// Admission control: with one compute slot and no queue, a second
// concurrent computation sheds with *limits.SaturatedError while the
// admitted one completes normally. Cache hits bypass the gate entirely.
func TestGateShedsUnderSaturation(t *testing.T) {
	e := New(Config{Gate: limits.New(limits.Config{MaxInFlight: 1, MaxQueue: 0})})
	defer fault.Disable()
	// Hold the only slot by delaying the admitted computation.
	if err := fault.Enable(&fault.Plan{Seed: 11, Injections: []fault.Injection{
		{Point: "engine.compute", Action: fault.ActDelay, Delay: 300 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		_, err := rewriteText(e, Text{Query: "//a[b]//c", View: "//a//c"})
		first <- err
	}()
	// Wait for the first request to occupy the slot.
	deadline := time.Now().Add(2 * time.Second)
	for e.cfg.Gate.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the gate")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := rewriteText(e, Text{Query: "//x[y]//z", View: "//x//z"})
	var sat *limits.SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("second request err = %v, want *SaturatedError", err)
	}
	if sat.RetryAfterSeconds() < 1 {
		t.Errorf("RetryAfterSeconds = %d", sat.RetryAfterSeconds())
	}
	if err := <-first; err != nil {
		t.Errorf("admitted request failed: %v", err)
	}
	snap := e.MetricsSnapshot()
	if snap.Gate == nil || snap.Gate.Shed != 1 || snap.Gate.Admitted != 1 {
		t.Errorf("gate snapshot = %+v, want shed=1 admitted=1", snap.Gate)
	}
	// Shed outcomes are transient: the key must not be negative-cached,
	// so the same request succeeds once load drains.
	fault.Disable()
	if _, err := rewriteText(e, Text{Query: "//x[y]//z", View: "//x//z"}); err != nil {
		t.Errorf("retry after shed failed: %v", err)
	}
}

// A panic inside the rewriting pipeline becomes a typed ErrInternal and
// lands in the slow-query log with the panic stack, regardless of the
// latency threshold; the poisoned flight is never cached.
func TestPipelinePanicIsolatedAndLogged(t *testing.T) {
	e := New(Config{})
	defer fault.Disable()
	if err := fault.Enable(&fault.Plan{Seed: 12, Injections: []fault.Injection{
		{Point: "engine.compute", Action: fault.ActPanic},
	}}); err != nil {
		t.Fatal(err)
	}
	_, err := rewriteText(e, Text{Query: "//a[b]//c", View: "//a//c"})
	if !errors.Is(err, guard.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	slow := e.SlowLog().Snapshot()
	if len(slow.Entries) != 1 {
		t.Fatalf("slow log has %d entries, want the panic record", len(slow.Entries))
	}
	if slow.Entries[0].Stack == "" {
		t.Error("panic entry has no stack")
	}
	if s := e.Stats(); s.CacheEntries != 0 {
		t.Errorf("panicked computation was cached (%d entries)", s.CacheEntries)
	}
	fault.Disable()
	if _, err := rewriteText(e, Text{Query: "//a[b]//c", View: "//a//c"}); err != nil {
		t.Errorf("retry after recovered panic failed: %v", err)
	}
}

func TestAnswerStoredView(t *testing.T) {
	e := New(Config{})
	d, err := xmltree.ParseString("<Trials><Trial><Patient>Ann</Patient><Status/></Trial><Trial><Patient>Bob</Patient></Trial></Trials>")
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterView("src1", viewstore.Materialize(tpq.MustParse("//Trials//Trial"), d))
	q := tpq.MustParse("//Trials//Trial/Patient")
	for _, be := range []plan.Backend{plan.Auto, plan.StructJoin, plan.TreeDP, plan.Stream} {
		sa, err := e.Answer(context.Background(), Request{Query: q, ViewName: "src1", PlanBackend: be})
		if err != nil {
			t.Fatalf("backend %v: %v", be, err)
		}
		if len(sa.Answers) != 2 || sa.Answers[0].Text != "Ann" || sa.Answers[1].Text != "Bob" {
			t.Fatalf("backend %v: answers = %v", be, sa.Answers)
		}
		if sa.Trees != 2 || sa.Plan == nil || sa.Exec == nil {
			t.Fatalf("backend %v: trees=%d plan=%v exec=%v", be, sa.Trees, sa.Plan, sa.Exec)
		}
		if be != plan.Auto {
			for _, got := range sa.Exec.Backends {
				if got != be {
					t.Fatalf("forced %v but program ran %v", be, got)
				}
			}
		}
	}
	// The plan is a pure function of the CR union: the repeats above
	// must have hit the plan cache, not recompiled.
	st := e.Stats()
	if st.PlanCacheMiss != 1 || st.PlanCacheHits < 3 {
		t.Errorf("plan cache stats = %+v, want 1 miss and >=3 hits", st)
	}
}

func TestAnswerStoredExprBackendValidation(t *testing.T) {
	e := New(Config{})
	d, _ := xmltree.ParseString("<a><b/></a>")
	e.RegisterView("v", viewstore.Materialize(tpq.MustParse("//a"), d))
	if _, err := answerText(e, Text{Query: "//a/b", ViewName: "v", Backend: "bogus"}); err == nil {
		t.Fatal("bogus backend accepted")
	} else {
		var inv *InvalidRequestError
		if !errors.As(err, &inv) || inv.Field != "backend" {
			t.Fatalf("err = %v, want InvalidRequestError{backend}", err)
		}
	}
	if _, err := answerText(e, Text{
		Query: "//a/b", View: "//a", Document: "<a><b/></a>", Backend: "bogus",
	}); err == nil {
		t.Fatal("bogus backend accepted by a direct answer")
	}
}

func TestRegisterViewExprAndNames(t *testing.T) {
	e := New(Config{})
	m, err := registerText(e, "beta", "//Trials//Trial", "<Trials><Trial><Patient>Ann</Patient></Trial></Trials>")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Forest) != 1 {
		t.Fatalf("forest = %d trees", len(m.Forest))
	}
	if _, err := registerText(e, "alpha", "//Trials", "<Trials/>"); err != nil {
		t.Fatal(err)
	}
	names := e.ViewNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("ViewNames = %v", names)
	}
	for _, tc := range []struct{ name, view, doc, field string }{
		{"", "//a", "<a/>", "name"},
		{"x", "((", "<a/>", "view"},
		{"x", "//a", "<not-xml", "document"},
	} {
		_, err := registerText(e, tc.name, tc.view, tc.doc)
		var inv *InvalidRequestError
		if !errors.As(err, &inv) || inv.Field != tc.field {
			t.Errorf("register(%q,%q,...): err = %v, want field %q", tc.name, tc.view, err, tc.field)
		}
	}
}

func TestAnswerRecordsPlanStages(t *testing.T) {
	e := New(Config{})
	_, err := answerText(e, Text{
		Query:    "//Trials[//Status]//Trial/Patient",
		View:     "//Trials//Trial",
		Document: "<PharmaLab><Trials><Trial><Patient>John</Patient><Status/></Trial></Trials></PharmaLab>",
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.MetricsSnapshot()
	for _, st := range []string{"plan.compile", "plan.index", "plan.exec"} {
		if snap.Stages[st].Count == 0 {
			t.Errorf("stage %s not recorded: %+v", st, snap.Stages[st])
		}
	}
	if snap.Engine["planCacheMisses"] != 1 {
		t.Errorf("planCacheMisses = %d, want 1", snap.Engine["planCacheMisses"])
	}
}

func TestAnswerSlowLogOp(t *testing.T) {
	e := New(Config{SlowQueryThreshold: time.Nanosecond})
	_, err := answerText(e, Text{
		Query: "//Trials//Trial", View: "//Trials//Trial", Document: "<Trials><Trial/></Trials>",
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.SlowLog().Snapshot()
	found := false
	for _, en := range snap.Entries {
		if en.Op == "answer" {
			found = true
			if en.StageNs == nil {
				t.Error("answer entry has no stage breakdown")
			}
		}
	}
	if !found {
		t.Fatalf("no op=answer slowlog entry: %+v", snap.Entries)
	}
}

func TestAnswerStoredGateSheds(t *testing.T) {
	// A closed gate must shed the answer execution path like any other
	// compute, after the rewriting (cached, pre-gate) path succeeded.
	g := limits.New(limits.Config{MaxInFlight: 1, MaxQueue: 0})
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	e := New(Config{Gate: g})
	d, _ := xmltree.ParseString("<a><b/></a>")
	e.RegisterView("v", viewstore.Materialize(tpq.MustParse("//a"), d))
	_, err = e.Answer(context.Background(), Request{Query: tpq.MustParse("//a/b"), ViewName: "v"})
	if !errors.Is(err, limits.ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
}
