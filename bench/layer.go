package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"qav/internal/plan"
	"qav/internal/rewrite"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/xmltree"
)

// The layer pass replays the inputs of the first sampled traced
// requests into the kernels under the serving stack, one call at a
// time, timing each call: it prices the work a cache miss, an answer
// or a registration does, whatever the caches above it did with the
// live request.

// layerBudget bounds the pass's wall time.
const layerBudget = 5 * time.Second

// containReps repeats each containment test: one is too short for the
// clock.
const containReps = 8

// acc collects timed calls. Kernels are reported by their median call:
// the pass runs on a host that stalls now and then, and a mean of a few
// calls (two stored views, say) would report the stall.
type acc struct {
	ns    []float64
	total int64
}

func (a *acc) add(d time.Duration) {
	a.ns = append(a.ns, float64(d))
	a.total += int64(d)
}

func (a *acc) since(start time.Time) { a.add(time.Since(start)) }

// median returns the median call time in the given unit.
func (a *acc) median(unit time.Duration) float64 {
	return median(a.ns) / float64(unit)
}

type layerPass struct {
	f   *fixture
	ctx context.Context

	parse, contain, mcr, schemaMCR     acc
	compile, exec, index               acc
	register, sel, materialize, xmlDoc acc
	xmlKB                              float64
	mcrCalls, embeddings, crs          int64
	answerOps, answers                 int64
	probes, candidates                 int64

	stored  map[int]*plan.Forest
	scratch *viewstore.Catalog
}

// runLayerPass replays ops until they or the budget run out.
func runLayerPass(f *fixture, ops []op) (*layerPass, error) {
	lp := &layerPass{f: f, ctx: context.Background(), stored: make(map[int]*plan.Forest), scratch: viewstore.NewCatalog()}
	runtime.GC() // start from the heap the load left behind, collected
	deadline := time.Now().Add(layerBudget)
	for i, o := range ops {
		if time.Now().After(deadline) {
			break
		}
		if err := lp.replay(o, i); err != nil {
			return nil, fmt.Errorf("layer pass, %s: %w", opNames[o.kind], err)
		}
	}
	return lp, nil
}

func (lp *layerPass) replay(o op, seq int) error {
	f := lp.f
	switch o.kind {
	case opRewrite:
		_, _, err := lp.rewrite(o.ref)
		return err
	case opBatch:
		for _, k := range f.batches[o.ref].items {
			if _, _, err := lp.rewrite(k); err != nil {
				return err
			}
		}
		return nil
	case opStored:
		res, _, err := lp.rewrite(o.ref)
		if err != nil {
			return err
		}
		forest, err := lp.storedForest(f.templates[o.ref].view)
		if err != nil {
			return err
		}
		return lp.answer(res, forest)
	case opDirect:
		res, v, err := lp.rewrite(o.ref)
		if err != nil {
			return err
		}
		d, err := lp.parseXML(f.docs[o.aux].xml)
		if err != nil {
			return err
		}
		start := time.Now()
		m := viewstore.Materialize(v, d)
		lp.materialize.since(start)
		start = time.Now()
		forest, err := plan.IndexForest(lp.ctx, m.Forest)
		lp.index.since(start)
		if err != nil {
			return err
		}
		return lp.answer(res, forest)
	case opContain:
		pr := f.pairs[o.ref]
		p, err := lp.parsePattern(spell(pr.p, spelling{}))
		if err != nil {
			return err
		}
		q, err := lp.parsePattern(spell(pr.q, spelling{}))
		if err != nil {
			return err
		}
		lp.timeContain(p, q)
		return nil
	case opSelect:
		q, err := lp.parsePattern(spell(f.probes[o.ref].q, spelling{}))
		if err != nil {
			return err
		}
		cat := f.catalogMirror()
		start := time.Now()
		_, err = cat.SelectViews(lp.ctx, q, 16)
		lp.sel.since(start)
		if err != nil {
			return err
		}
		cands, err := cat.Candidates(lp.ctx, q, nil)
		lp.probes++
		lp.candidates += int64(len(cands))
		return err
	case opWrite:
		d, err := lp.parseXML(f.writeDocs[o.aux].xml)
		if err != nil {
			return err
		}
		start := time.Now()
		m := viewstore.Materialize(f.writeViews[o.ref].v, d)
		lp.materialize.since(start)
		start = time.Now()
		lp.scratch.Register(fmt.Sprintf("w%d", seq), m)
		lp.register.since(start)
		return nil
	default:
		return fmt.Errorf("no replay for op kind %d", o.kind)
	}
}

func (lp *layerPass) parsePattern(text string) (*tpq.Pattern, error) {
	start := time.Now()
	p, err := tpq.Parse(text)
	lp.parse.since(start)
	return p, err
}

func (lp *layerPass) parseXML(xml string) (*xmltree.Document, error) {
	start := time.Now()
	d, err := xmltree.ParseString(xml)
	lp.xmlDoc.since(start)
	lp.xmlKB += float64(len(xml)) / 1024
	return d, err
}

var containSink bool

func (lp *layerPass) timeContain(p, q *tpq.Pattern) {
	start := time.Now()
	for i := 0; i < containReps; i++ {
		containSink = tpq.Contained(p, q)
	}
	lp.contain.add(time.Since(start) / containReps)
}

// rewrite parses the key's patterns and computes its MCR uncached.
func (lp *layerPass) rewrite(k int) (*rewrite.Result, *tpq.Pattern, error) {
	key := &lp.f.keys[k]
	q, err := lp.parsePattern(key.qText)
	if err != nil {
		return nil, nil, err
	}
	v, err := lp.parsePattern(key.vText)
	if err != nil {
		return nil, nil, err
	}
	lp.timeContain(q, v)
	var res *rewrite.Result
	start := time.Now()
	if key.schema < 0 {
		res, err = rewrite.MCR(q, v, rewrite.Options{Context: lp.ctx})
		lp.mcr.since(start)
	} else {
		res, err = lp.f.schemas[key.schema].sc.MCRWithSchemaCtx(lp.ctx, q, v)
		lp.schemaMCR.since(start)
	}
	if err != nil {
		return nil, nil, err
	}
	lp.mcrCalls++
	lp.embeddings += int64(res.EmbeddingsConsidered)
	lp.crs += int64(len(res.CRs))
	return res, v, nil
}

// answer compiles the MCR's compensations and executes the plan.
func (lp *layerPass) answer(res *rewrite.Result, forest *plan.Forest) error {
	start := time.Now()
	pl, err := plan.Compile(lp.ctx, rewrite.Compensations(res.CRs))
	lp.compile.since(start)
	if err != nil {
		return err
	}
	start = time.Now()
	ex, err := pl.Exec(lp.ctx, forest, plan.ExecOptions{})
	lp.exec.since(start)
	if err != nil {
		return err
	}
	lp.answerOps++
	lp.answers += int64(len(ex.Matches))
	return nil
}

// storedForest materializes and indexes a stored view on first use,
// timing both (three times each) as the replicas' set-up does them.
func (lp *layerPass) storedForest(view int) (*plan.Forest, error) {
	if f, ok := lp.stored[view]; ok {
		return f, nil
	}
	var forest *plan.Forest
	for i := 0; i < 3; i++ {
		start := time.Now()
		m := viewstore.Materialize(lp.f.storedViews[view].v, lp.f.storedDoc)
		lp.materialize.since(start)
		var err error
		start = time.Now()
		forest, err = plan.IndexForest(lp.ctx, m.Forest)
		lp.index.since(start)
		if err != nil {
			return nil, err
		}
	}
	lp.stored[view] = forest
	return forest, nil
}

// metrics returns the pass's per-layer metrics.
func (lp *layerPass) metrics(m map[string]float64) {
	m["tpq.parse_us"] = lp.parse.median(time.Microsecond)
	m["tpq.contain_ns"] = lp.contain.median(time.Nanosecond)
	m["rewrite.mcr_us"] = lp.mcr.median(time.Microsecond)
	m["rewrite.schema_mcr_us"] = lp.schemaMCR.median(time.Microsecond)
	m["rewrite.embeddings_per_miss"] = ratio(lp.embeddings, lp.mcrCalls)
	m["rewrite.crs_per_miss"] = ratio(lp.crs, lp.mcrCalls)
	m["rewrite.useful_ratio"] = ratio(lp.crs, lp.embeddings)
	m["plan.compile_us"] = lp.compile.median(time.Microsecond)
	m["plan.exec_us"] = lp.exec.median(time.Microsecond)
	m["plan.index_ms"] = lp.index.median(time.Millisecond)
	m["plan.answers_per_op"] = ratio(lp.answers, lp.answerOps)
	m["viewstore.register_us"] = lp.register.median(time.Microsecond)
	m["viewstore.select_us"] = lp.sel.median(time.Microsecond)
	m["viewstore.candidates_per_probe"] = ratio(lp.candidates, lp.probes)
	m["viewstore.materialize_us"] = lp.materialize.median(time.Microsecond)
	if lp.xmlKB > 0 {
		m["xmltree.parse_us_per_kb"] = float64(lp.xmlDoc.total) / 1e3 / lp.xmlKB
	} else {
		m["xmltree.parse_us_per_kb"] = 0
	}
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
