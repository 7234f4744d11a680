package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/xmltree"
)

// The checker verifies every distinct response body once, after the
// load has stopped, so checking costs the measurement nothing. The
// oracles are independent of the serving path: containment and
// evaluation kernels on the harness's own parsed inputs, with the
// known rewriting E∘V as the witness of maximality.

// checkOutcome is the verdict over all responses of a run.
type checkOutcome struct {
	failed      int64
	errs        []string
	variantKeys int
}

func (o *checkOutcome) fail(n int64, msg string) {
	o.failed += n
	if len(o.errs) < maxErrors {
		o.errs = append(o.errs, msg)
	}
}

// mergeResponses folds the clients' response maps into one.
func mergeResponses(clients []*client) map[identity]*variants {
	all := make(map[identity]*variants)
	for _, c := range clients {
		for id, vs := range c.responses {
			into := all[id]
			if into == nil {
				all[id] = vs
				continue
			}
		next:
			for _, v := range vs.bodies {
				for i := range into.bodies {
					if into.bodies[i].hash == v.hash {
						into.bodies[i].n += v.n
						continue next
					}
				}
				into.bodies = append(into.bodies, v)
			}
		}
	}
	return all
}

// checkResponses verifies every distinct body with workers goroutines.
// Under strict, an identity answered with more than one distinct body
// fails every response but those carrying its most common body.
func checkResponses(f *fixture, strict bool, responses map[identity]*variants, workers int) checkOutcome {
	type item struct {
		id identity
		v  variant
	}
	var out checkOutcome
	var items []item
	for id, vs := range responses {
		for _, v := range vs.bodies {
			items = append(items, item{id, v})
		}
		if id.kind == opWrite || len(vs.bodies) < 2 {
			continue // every registration carries its own name
		}
		out.variantKeys++
		if strict {
			sort.Slice(vs.bodies, func(i, j int) bool { return vs.bodies[i].n > vs.bodies[j].n })
			var minority int64
			for _, v := range vs.bodies[1:] {
				minority += v.n
			}
			out.fail(minority, fmt.Sprintf("%s %d/%d: %d byte-distinct bodies for one canonical request",
				opNames[id.kind], id.ref, id.aux, len(vs.bodies)))
		}
	}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it := items[i]
				if err := f.check(it.id, it.v.body); err != nil {
					mu.Lock()
					out.fail(it.v.n, fmt.Sprintf("%s %d/%d: %v", opNames[it.id.kind], it.id.ref, it.id.aux, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out
}

type rewriteJSON struct {
	Answerable bool   `json:"answerable"`
	Union      string `json:"union"`
	CRs        []struct {
		Rewriting    string `json:"rewriting"`
		Compensation string `json:"compensation"`
	} `json:"crs"`
	Partial       bool   `json:"partial"`
	PartialReason string `json:"partialReason"`
}

type answerJSON struct {
	Union   string `json:"union"`
	Answers []struct {
		Path string `json:"path"`
		Text string `json:"text"`
	} `json:"answers"`
	DirectAnswerCount int  `json:"directAnswerCount"`
	Partial           bool `json:"partial"`
}

// check verifies one response body.
func (f *fixture) check(id identity, body []byte) error {
	switch id.kind {
	case opRewrite:
		var r rewriteJSON
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return f.checkRewrite(id.ref, r)
	case opBatch:
		return f.checkBatch(id.ref, body)
	case opStored:
		t := f.templates[id.ref]
		return checkAnswers(body, t.q.Evaluate(f.storedDoc), false)
	case opDirect:
		q, _, err := f.keys[id.ref].patterns()
		if err != nil {
			return err
		}
		return checkAnswers(body, q.Evaluate(f.docs[id.aux].d), true)
	case opContain:
		return f.checkContain(id.ref, body)
	case opSelect:
		return f.checkSelect(id.ref, body)
	case opWrite:
		return f.checkWrite(id.ref, id.aux, body)
	default:
		return fmt.Errorf("no check for op kind %d", id.kind)
	}
}

// checkRewrite requires every CR to be contained in the query (schema-
// relative under a schema), some CR to contain the known rewriting
// E∘V = q (so the union is maximal), each compensation composed over
// the view to give its rewriting, and the union to list the CRs.
func (f *fixture) checkRewrite(k int, r rewriteJSON) error {
	key := &f.keys[k]
	q, v, err := key.patterns()
	if err != nil {
		return err
	}
	if !r.Answerable || len(r.CRs) == 0 {
		return errors.New("reported unanswerable, but the query is E∘V by construction")
	}
	if r.Partial {
		return fmt.Errorf("partial result (%s)", r.PartialReason)
	}
	contained := tpq.Contained
	if key.schema >= 0 {
		contained = f.schemas[key.schema].sc.SContained
	}
	witness := false
	texts := make([]string, len(r.CRs))
	for i, cr := range r.CRs {
		rw, err := tpq.Parse(cr.Rewriting)
		if err != nil {
			return fmt.Errorf("CR %d: %w", i, err)
		}
		if !contained(rw, q) {
			return fmt.Errorf("CR %q is not contained in the query %q", cr.Rewriting, key.qText)
		}
		witness = witness || contained(q, rw)
		if key.schema < 0 {
			comp, err := tpq.Parse(cr.Compensation)
			if err != nil {
				return fmt.Errorf("CR %d compensation: %w", i, err)
			}
			got, err := tpq.Compose(comp, v)
			if err != nil || !tpq.Equivalent(got, rw) {
				return fmt.Errorf("compensation %q over the view does not give the CR %q", cr.Compensation, cr.Rewriting)
			}
		}
		texts[i] = cr.Rewriting
	}
	if !witness {
		return fmt.Errorf("no CR contains the known rewriting %q: the union is not maximal", key.qText)
	}
	sort.Strings(texts)
	if want := strings.Join(texts, " U "); r.Union != want {
		return fmt.Errorf("union %q does not list the CRs %q", r.Union, want)
	}
	return nil
}

func (f *fixture) checkBatch(b int, body []byte) error {
	var r struct {
		Items []struct {
			Status int    `json:"status"`
			Error  string `json:"error"`
			Shared bool   `json:"shared"`
			rewriteJSON
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	items := f.batches[b].items
	if len(r.Items) != len(items) {
		return fmt.Errorf("%d items answered, %d sent", len(r.Items), len(items))
	}
	first := make(map[int]bool)
	for i, it := range r.Items {
		if it.Status != 200 {
			return fmt.Errorf("item %d: status %d: %s", i, it.Status, it.Error)
		}
		if it.Shared != first[items[i]] {
			return fmt.Errorf("item %d: shared=%v, but its key appeared earlier=%v", i, it.Shared, first[items[i]])
		}
		first[items[i]] = true
		if err := f.checkRewrite(items[i], it.rewriteJSON); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}

// checkAnswers requires the answers to be exactly the query's direct
// evaluation: the rewritings are equivalent to the query by
// construction. Stored-view answers are nodes of the shipped copies,
// so only their tag (the last path step) and text are comparable;
// direct answers keep their document path.
func checkAnswers(body []byte, want []*xmltree.Node, direct bool) error {
	var r answerJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Partial {
		return errors.New("partial answer")
	}
	got := make([]string, len(r.Answers))
	for i, a := range r.Answers {
		p := a.Path
		if !direct {
			p = path.Base(p)
		}
		got[i] = p + "\x00" + a.Text
	}
	exp := make([]string, len(want))
	for i, n := range want {
		p := n.Path()
		if !direct {
			p = n.Tag
		}
		exp[i] = p + "\x00" + n.Text
	}
	sort.Strings(got)
	sort.Strings(exp)
	if strings.Join(got, "\x01") != strings.Join(exp, "\x01") {
		return fmt.Errorf("%d answers, the query selects %d (or the multisets differ)", len(got), len(exp))
	}
	if direct && r.DirectAnswerCount != len(want) {
		return fmt.Errorf("directAnswerCount %d, want %d", r.DirectAnswerCount, len(want))
	}
	return nil
}

// checkContain requires a generalization pair to be reported contained
// and every claimed containment to hold on the fixed document and on
// the contained pattern's canonical document.
func (f *fixture) checkContain(i int, body []byte) error {
	var r struct {
		PInQ bool `json:"pInQ"`
		QInP bool `json:"qInP"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	pr := f.pairs[i]
	if pr.general && !r.PInQ {
		return errors.New("q generalizes p, but pInQ is false")
	}
	if r.PInQ {
		if err := f.holds(pr.p, pr.q); err != nil {
			return fmt.Errorf("pInQ: %w", err)
		}
	}
	if r.QInP {
		if err := f.holds(pr.q, pr.p); err != nil {
			return fmt.Errorf("qInP: %w", err)
		}
	}
	return nil
}

// holds tests the claim a ⊆ b on documents.
func (f *fixture) holds(a, b *tpq.Pattern) error {
	inB := make(map[*xmltree.Node]bool)
	for _, n := range b.Evaluate(f.checkDoc) {
		inB[n] = true
	}
	for _, n := range a.Evaluate(f.checkDoc) {
		if !inB[n] {
			return errors.New("an answer of the contained side is missing from the containing side on the fixed document")
		}
	}
	d, out := a.CanonicalDocument()
	for _, n := range b.Evaluate(d) {
		if n == out {
			return nil
		}
	}
	return errors.New("the containing side misses the contained side's canonical answer")
}

// noSelection is the checked part of a listing without a selection
// (the server omits an empty one).
var noSelection = []byte(`"selected": []}`)

// checkSelect requires the ranked selection to equal the set-up
// catalog's: written views never qualify for the probes.
func (f *fixture) checkSelect(i int, part []byte) error {
	var r struct {
		Selected []viewstore.SelectedView `json:"selected"`
	}
	if err := json.Unmarshal(append([]byte("{"), part...), &r); err != nil {
		return err
	}
	want, err := f.catalogMirror().SelectViews(context.Background(), f.probes[i].q, 16)
	if err != nil {
		return err
	}
	if len(r.Selected) != len(want) {
		return fmt.Errorf("%d views selected, want %d", len(r.Selected), len(want))
	}
	for j := range want {
		if r.Selected[j] != want[j] {
			return fmt.Errorf("selection %d is %+v, want %+v", j, r.Selected[j], want[j])
		}
	}
	return nil
}

func (f *fixture) checkWrite(v, d int, body []byte) error {
	var r struct {
		Name  string `json:"name"`
		Trees int    `json:"trees"`
		Nodes int    `json:"nodes"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	m := viewstore.Materialize(f.writeViews[v].v, f.writeDocs[d].d)
	if !strings.HasPrefix(r.Name, "w") || r.Trees != len(m.Forest) || r.Nodes != m.Size() {
		return fmt.Errorf("registered %q with %d trees / %d nodes, want %d / %d", r.Name, r.Trees, r.Nodes, len(m.Forest), m.Size())
	}
	return nil
}
