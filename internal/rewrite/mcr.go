package rewrite

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qav/internal/chase"
	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/names"
	"qav/internal/obs"
	"qav/internal/tpq"
)

// Fault-injection points of the MCR pipeline (no-ops unless a chaos
// plan arms them; see internal/fault).
var (
	faultBuildCR = fault.Register(names.FaultRewriteBuildCR)
	faultContain = fault.Register(names.FaultRewriteContain)
	faultWorker  = fault.Register(names.FaultRewriteWorker)
)

// Answerable reports whether the query is answerable using the view in
// the absence of a schema — i.e. whether a maximal contained rewriting
// exists (Theorem 1). It runs the polynomial labeling test of Theorem 2
// only; no rewriting is materialized.
// Wildcard patterns (XP{/,//,[],*}) are outside the algorithm's
// fragment and always report false.
func Answerable(q, v *tpq.Pattern) bool {
	if q.HasWildcard() || v.HasWildcard() {
		return false
	}
	return ComputeLabels(q, v, nil).Exists()
}

// DefaultMaxEmbeddings is the embedding-enumeration budget applied when
// Options.MaxEmbeddings is zero. The MCR can be a union of exponentially
// many tree patterns (§3.2, Example 1), so every entry point bounds the
// enumeration; this is the shared generous default.
const DefaultMaxEmbeddings = 1 << 20

// Options bounds MCR generation. The MCR can be a union of
// exponentially many tree patterns (§3.2, Example 1), so generation is
// explicitly budgeted.
type Options struct {
	// MaxEmbeddings bounds the number of useful embeddings enumerated;
	// 0 means DefaultMaxEmbeddings.
	MaxEmbeddings int
	// Context carries cancellation and deadlines into the exponential
	// hot loops (embedding enumeration, CR construction, redundancy
	// elimination): when it is cancelled, generation stops promptly and
	// the context's error is returned. nil means context.Background().
	Context context.Context
}

// ctx returns the configured context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

// Result is the output of MCR generation.
type Result struct {
	// Union is the maximal contained rewriting as a union of tree
	// patterns, irredundant (no disjunct contains another).
	Union *tpq.Union
	// CRs carries the rewritings with their compensation queries and
	// inducing embeddings, aligned with Union.Patterns.
	CRs []*ContainedRewriting
	// EmbeddingsConsidered is the number of distinct useful embeddings
	// enumerated before redundancy elimination: every one counts,
	// including those sharing a domain (the set of query nodes mapped)
	// with an earlier one, whose identical CR is built only once. On a
	// Partial result it counts the embeddings enumerated before the
	// wall.
	EmbeddingsConsidered int
	// Partial reports that generation stopped early — the embedding
	// budget was exhausted or the context deadline expired mid-stream —
	// and Union is the sound subset found up to that point. A partial
	// union is still a contained rewriting of the query (every CR is
	// individually verified), it just may not be maximal. Partial
	// results skip redundancy elimination (its quadratic containment
	// matrix is exactly the work the budget is protecting against), so
	// disjuncts may overlap. Partial results are never cached.
	Partial bool
	// PartialReason is PartialBudget or PartialDeadline when Partial.
	PartialReason PartialReason
}

// PartialReason classifies why a Result is Partial. The zero value
// (empty string) means the result is complete; the named type keeps
// switches over it checkable by the exhaustive analyzer.
type PartialReason string

// Reasons a Result can be Partial.
const (
	PartialBudget   PartialReason = "budget"
	PartialDeadline PartialReason = "deadline"
)

// partialReason classifies an in-flight pipeline error: budget and
// deadline overruns degrade into partial results, everything else —
// including client cancellation, where nobody is left to read a
// partial answer — stays an error.
func partialReason(err error) PartialReason {
	switch {
	case errors.Is(err, ErrEmbeddingBudget):
		return PartialBudget
	case errors.Is(err, context.DeadlineExceeded):
		return PartialDeadline
	}
	return ""
}

// MCR computes the maximal contained rewriting of q using v without a
// schema (Algorithm MCRGen, Fig 10). It returns an empty-union result
// when q is not answerable using v. Every returned CR is verified
// contained in q by homomorphism.
//
// Enumerate, build and verify are one loop (generateCRs): each
// embedding is consumed as the enumeration produces it, so the
// embedding set is never materialized, and one CR is built per
// embedding domain, since embeddings mapping the same query nodes
// induce the same CR. Redundancy elimination then runs once over the
// built CRs (assemble).
func MCR(q, v *tpq.Pattern, opts Options) (*Result, error) {
	return mcr(q, v, nil, opts)
}

// errWildcard rejects patterns outside the algorithms' fragment.
var errWildcard = errors.New("rewrite: wildcard patterns are outside XP{/,//,[]}; the MCR algorithms do not support them")

// mcr is the body MCR (sc nil) and MCRRecursive share: label the
// useful embeddings of q into v — under a schema, into the view chased
// against q, with the schema's graft cut — stream them through
// generateCRs, and assemble the union under plain or schema-relative
// containment. Budget and deadline overruns degrade into a Partial
// result (assemble).
func mcr(q, v *tpq.Pattern, sc *SchemaContext, opts Options) (*Result, error) {
	if q.HasWildcard() || v.HasWildcard() {
		return nil, errWildcard
	}
	limit := opts.MaxEmbeddings
	if limit <= 0 {
		limit = DefaultMaxEmbeddings
	}
	ctx := opts.ctx()
	sp := obs.SpanFrom(ctx)
	target, cut, contained := v, CutCheck(nil), tpq.Contained
	if sc != nil {
		if !sc.Schema.Satisfiable(v) || !sc.Schema.Satisfiable(q) {
			return &Result{Union: &tpq.Union{}}, nil
		}
		t := sp.Start()
		target = chase.Intelligent(v, q, sc.Sigma)
		sp.Observe(obs.StageChase, t)
		cut, contained = sc.graftCut(target.Output.Tag), sc.SContained
	}
	t := sp.Start()
	labels := ComputeLabels(q, target, cut)
	sp.Observe(obs.StageEnumerate, t)
	if !labels.Exists() {
		return &Result{Union: &tpq.Union{}}, nil
	}
	// The CRs are built against the original view: the compensation
	// runs on the real materialization (Example 3).
	crs, considered, err := generateCRs(labels, newCRGen(ctx, q, v, sc), limit)
	reason := partialReason(err)
	if err != nil && reason == "" {
		return nil, err
	}
	return assemble(ctx, crs, considered, contained, reason)
}

// generateCRs fuses embedding enumeration with CR construction and
// containment verification, one CR per embedding domain (g): every
// embedding is validated and counted as the enumeration emits it, and
// the first of each domain is built and verified on the spot, after a
// poll of g's context, so a deadline stops the loop within one CR. A
// CR that g drops (under a schema, an unsatisfiable one) is left out.
// The CRs come out in enumeration order and carry no compensation yet;
// assemble extracts it for the CRs it keeps. The enumerate stage is
// credited the Stream time less the time spent in build, which credits
// its own buildcr and contain stages, so the stages add up to no more
// than the call.
//
// Partial contract: when the returned error is an embedding-budget
// overrun or context.DeadlineExceeded, the returned CRs are the sound
// subset completed before the wall (each verified contained in q) and
// the caller may degrade into a Partial result. On any other error the
// CR slice is nil.
func generateCRs(labels *Labeling, g *crGen, limit int) ([]*ContainedRewriting, int, error) {
	t := g.sp.Start()
	err := labels.Stream(g.ctx, limit, g.emit)
	if !t.IsZero() {
		g.sp.Add(obs.StageEnumerate, time.Since(t)-g.inBuild)
	}
	if err != nil && partialReason(err) == "" {
		return nil, 0, err
	}
	return g.crs, g.considered, err
}

// emit is generateCRs' step for one emitted embedding.
func (g *crGen) emit(f *Embedding) error {
	first, err := g.fresh(f)
	if err != nil {
		return err
	}
	g.considered++
	if !first {
		return nil
	}
	if err := g.ctx.Err(); err != nil {
		return err
	}
	t := g.sp.Start()
	cr, err := g.build(f)
	if !t.IsZero() {
		g.inBuild += time.Since(t)
	}
	if err != nil {
		return err
	}
	if cr != nil {
		g.crs = append(g.crs, cr)
	}
	return nil
}

// assemble is the one tail of every MCR entry point: by Lemma 1 the
// MCR is the irredundant union of the verified CRs. It deduplicates the
// CRs by canonical form in crs's own array (dedupCRs: the first of each
// form wins, so the representative embedding is the earliest one),
// orders them smallest
// first (sortCRs) and, unless reason already marks the result Partial,
// drops every CR contained in another under contained — plain or
// schema-relative — through markRedundant, credited to the contain
// stage. A budget or deadline overrun there sets reason instead of
// failing. The kept CRs get their compensations, and the union is
// built from them.
//
// One rule holds for every entry point: a Partial result is
// deduplicated and ordered only — the quadratic containment matrix is
// exactly the work the wall protects against, so its disjuncts may
// overlap — and a complete result is irredundant. Every CR was verified
// contained in the query on its own, so either union is sound.
func assemble(ctx context.Context, crs []*ContainedRewriting, considered int, contained func(a, b *tpq.Pattern) bool, reason PartialReason) (*Result, error) {
	uniq := dedupCRs(crs)
	sortCRs(uniq)
	var redundant []bool
	if reason == "" && len(uniq) > 1 {
		sp := obs.SpanFrom(ctx)
		t := sp.Start()
		var err error
		redundant, err = markRedundant(ctx, len(uniq), func(i, j int) bool {
			return contained(uniq[i].Rewriting, uniq[j].Rewriting)
		})
		sp.Observe(obs.StageContain, t)
		if reason = partialReason(err); err != nil && reason == "" {
			return nil, err
		}
	}
	res := &Result{
		Union:                &tpq.Union{Patterns: make([]*tpq.Pattern, 0, len(uniq))},
		CRs:                  uniq[:0],
		EmbeddingsConsidered: considered,
		Partial:              reason != "",
		PartialReason:        reason,
	}
	for i, cr := range uniq {
		if i < len(redundant) && redundant[i] {
			continue
		}
		cr.ensureCompensation()
		res.CRs = append(res.CRs, cr)
		res.Union.Patterns = append(res.Union.Patterns, cr.Rewriting)
	}
	// The kept CRs were filtered into uniq's own array: clear its tail,
	// or a cached result would keep every dropped CR reachable.
	clear(uniq[len(res.CRs):])
	return res, nil
}

// dedupCRs keeps the first CR of each canonical form, in order,
// filtering crs in place; the dropped tail is cleared so nothing keeps
// it reachable.
func dedupCRs(crs []*ContainedRewriting) []*ContainedRewriting {
	seen := make(map[string]bool, len(crs))
	uniq := crs[:0]
	for _, cr := range crs {
		if key := cr.Rewriting.Canonical(); !seen[key] {
			seen[key] = true
			uniq = append(uniq, cr)
		}
	}
	clear(crs[len(uniq):])
	return uniq
}

// NaiveMCR is the brute-force baseline used as ground truth in tests
// and as the ablation baseline in the benchmarks: it enumerates EVERY
// structurally valid partial matching f : Q ⇝ V (upward closed, no
// usefulness conditions), builds the graft-at-dV rewriting for each,
// keeps exactly those contained in q, and removes redundant ones.
// Exponential in |Q| and |V|; use only on small inputs. The context is
// checked periodically inside the matching recursion, so a cancelled
// ctx stops the enumeration promptly.
func NaiveMCR(ctx context.Context, q, v *tpq.Pattern) (*Result, error) {
	qn := q.PreorderNodes()
	vn := v.PreorderNodes()
	// Candidate images per tag, in view preorder: same iteration order
	// as scanning vn with a tag filter, without the scan.
	vByTag := make(map[string][]*tpq.Node)
	for _, img := range vn {
		vByTag[img.Tag] = append(vByTag[img.Tag], img)
	}
	// The partial matching is a slice indexed by query preorder position
	// (nil = unmapped): assignment, undo and the upward-closure lookup
	// are plain array stores, no hashing. Only accepted matchings are
	// converted to an Embedding map.
	cur := make([]*tpq.Node, len(qn))
	mapped := 0
	parentIdx := make([]int, len(qn))
	for i, x := range qn {
		parentIdx[i] = q.Preorder(x.Parent) // -1 for the root
	}
	outIdx := q.Preorder(q.Output)

	var crs []*ContainedRewriting
	considered := 0
	steps := 0

	var rec func(i int) error
	rec = func(i int) error {
		steps++
		if steps&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if i == len(qn) {
			// Expressibility: a mapped query output must be the view
			// output, else E ∘ V cannot return it. Checked before any
			// allocation so rejected matchings cost nothing.
			if img := cur[outIdx]; img != nil && img != v.Output {
				return nil
			}
			if mapped == 0 && q.Root.Axis != tpq.Descendant {
				return nil
			}
			m := make(map[*tpq.Node]*tpq.Node, mapped)
			for j, img := range cur {
				if img != nil {
					m[qn[j]] = img
				}
			}
			f := &Embedding{Q: q, V: v, M: m}
			considered++
			cr, err := buildUnchecked(f, v)
			if err != nil {
				return nil
			}
			if tpq.Contained(cr.Rewriting, q) {
				crs = append(crs, cr)
			}
			return nil
		}
		x := qn[i]
		// Option 1: leave x (and transitively its subtree) unmapped.
		if err := rec(i + 1); err != nil {
			return err
		}
		// Option 2: map x to every structurally consistent view node.
		if pi := parentIdx[i]; pi >= 0 {
			pimg := cur[pi]
			if pimg == nil {
				return nil // upward closure: parent unmapped
			}
			for _, img := range vByTag[x.Tag] {
				valid := false
				switch x.Axis {
				case tpq.Child:
					valid = img.Parent == pimg && img.Axis == tpq.Child
				case tpq.Descendant:
					valid = pimg.IsAncestorOf(img)
				}
				if !valid {
					continue
				}
				cur[i] = img
				mapped++
				err := rec(i + 1)
				cur[i] = nil
				mapped--
				if err != nil {
					return err
				}
			}
			return nil
		}
		for _, img := range vByTag[x.Tag] {
			if x.Axis == tpq.Child && (img != v.Root || v.Root.Axis != tpq.Child) {
				continue
			}
			cur[i] = img
			mapped++
			err := rec(i + 1)
			cur[i] = nil
			mapped--
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	res, err := assemble(ctx, crs, considered, tpq.Contained, "")
	if err == nil && res.Partial {
		// The oracle never degrades: the deadline that cut redundancy
		// elimination short is its error.
		return nil, context.DeadlineExceeded
	}
	return res, err
}

// markRedundant computes, for each CR index, whether it is strictly
// contained in another CR or equivalent to an earlier one. The
// criterion is order-independent (containment is transitive, so a
// witness that is itself redundant always leads to an irredundant one),
// which lets the quadratic containment matrix run its rows in parallel
// (forEach) — the dominating cost when the MCR is exponential (§3.2).
func markRedundant(ctx context.Context, n int, contains func(i, j int) bool) ([]bool, error) {
	redundant := make([]bool, n)
	err := forEach(ctx, n, 32, "rewrite.markRedundant", func(i int) error {
		if i&31 == 0 {
			if err := faultContain.Hit(ctx); err != nil {
				return err
			}
		}
		for j := 0; j < n; j++ {
			if i == j || !contains(i, j) {
				continue
			}
			// Strictly contained in j, or equivalent to the earlier j.
			if !contains(j, i) || j < i {
				redundant[i] = true
				return nil
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return redundant, nil
}

// forEach runs do(i) for every i in [0, n), each item writing only its
// own output. Below serialBelow items, or with one P, it runs them in
// index order on the calling goroutine; otherwise up to GOMAXPROCS
// workers claim indexes through an atomic counter. ctx is polled before
// every item. The first failure stops the loop (on the pooled side by
// pushing the counter past n) and is returned: ctx's error, an error
// from do, or a panic in do, which becomes an ErrInternal named op on
// either side, so a bug fails the call the same way whatever GOMAXPROCS
// is.
func forEach(ctx context.Context, n, serialBelow int, op string, do func(i int) error) (err error) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if n < serialBelow || workers <= 1 {
		defer guard.Recover(&err, op)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := do(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		mu   sync.Mutex
		werr error
	)
	fail := func(err error) {
		mu.Lock()
		if werr == nil {
			werr = err
		}
		mu.Unlock()
		next.Store(int64(n))
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard.Rescue(op, fail)
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := do(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return werr
}

// sortCRs orders rewritings by size then canonical form, so redundancy
// elimination deterministically keeps the most compact representative
// of each equivalence class.
func sortCRs(crs []*ContainedRewriting) {
	sort.Slice(crs, func(i, j int) bool {
		si, sj := crs[i].Rewriting.Size(), crs[j].Rewriting.Size()
		if si != sj {
			return si < sj
		}
		return crs[i].Rewriting.Canonical() < crs[j].Rewriting.Canonical()
	})
}

// buildUnchecked constructs the graft-at-dV rewriting for any partial
// matching without requiring usefulness; the caller filters by
// containment.
func buildUnchecked(f *Embedding, base *tpq.Pattern) (*ContainedRewriting, error) {
	r, dVc := base.CloneTrack(base.Output)
	var outClone *tpq.Node
	graft := func(y *tpq.Node) {
		cp, oc := tpq.CloneSubtreeTrack(y, f.Q.Output)
		if oc != nil {
			outClone = oc
		}
		dVc.Attach(y.Axis, cp)
	}
	if f.Empty() {
		graft(f.Q.Root)
	} else {
		for _, x := range f.Terminals() {
			for _, y := range x.Children {
				if !f.Defined(y) {
					graft(y)
				}
			}
		}
	}
	if f.Defined(f.Q.Output) {
		r.SetOutput(dVc)
	} else {
		if outClone == nil {
			return nil, fmt.Errorf("rewrite: query output neither mapped nor grafted")
		}
		r.SetOutput(outClone)
	}
	// Index the finished rewriting before it escapes: CRs flow into
	// parallel redundancy elimination, where concurrent readers must
	// never trigger a lazy relabel.
	r.Reindex()
	// The compensation is extracted on demand (ensureCompensation): the
	// result assemblies extract it for the CRs they keep, so candidates
	// dropped on the way never pay for it.
	return &ContainedRewriting{Rewriting: r, Embedding: f, dVc: dVc}, nil
}
