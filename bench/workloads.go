package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"

	"qav/internal/viewstore"
)

// opKind is the kind of request an op sends.
type opKind uint8

const (
	opRewrite opKind = iota // POST /v1/rewrite
	opBatch                 // POST /v1/rewrite/batch
	opStored                // POST /v1/answer, viewName mode
	opDirect                // POST /v1/answer, view + document
	opContain               // POST /v1/contain
	opSelect                // GET /v1/views?q=&k=
	opWrite                 // POST /v1/views
	numOpKinds
)

var opNames = [numOpKinds]string{"rewrite", "batch", "answer_stored", "answer_direct", "contain", "select", "write"}

// op is one request a client sends.
type op struct {
	kind opKind
	// ref and aux name the input in the fixture: the key, batch,
	// template, pair or probe index; for opDirect the key and the
	// document, for opWrite the view and the document.
	ref, aux int
	method   string
	target   string
	body     []byte
}

// identity is the canonical request behind an op: every response to
// one identity must carry the same answer.
type identity struct {
	kind     opKind
	ref, aux int
}

func (o op) identity() identity { return identity{o.kind, o.ref, o.aux} }

// keys returns the rewrite keys the op makes the replica look up.
func (o op) keys(f *fixture) []int {
	switch o.kind {
	case opRewrite, opDirect, opStored:
		return []int{o.ref}
	case opBatch:
		return f.batches[o.ref].items
	default:
		return nil
	}
}

// Zipf exponents: rewrite_hot concentrates on a head that always hits;
// mixed spreads over a pool 2.7× the cluster's cache, so hits, misses
// and recomputes after eviction all occur.
const (
	hotZipf   = 1.1
	mixedZipf = 1.05
	// twinShare of rewrite_hot requests use a canonical-twin spelling.
	twinShare = 0.25
)

// workloadDef is one traffic mix.
type workloadDef struct {
	name string
	// persist gives every replica a persistent cache directory.
	persist bool
	// strict requires byte-identical bodies per identity. Off where the
	// persistent tier replays results: a replay re-parses the stored
	// expressions, and tpq prints a re-parsed pattern's siblings in
	// another order, so the same rewriting can come back spelled
	// differently.
	strict bool
	build  func(seed int64, sz sizes) (*fixture, error)
	// prepare makes a booted cluster ready to serve: the program calls
	// setup_s counts.
	prepare func(f *fixture, c *cluster) error
	// source returns one client's request generator.
	source func(f *fixture, rng *rand.Rand, client int) func() op
}

var workloads = []workloadDef{
	{name: "rewrite_hot", strict: true, build: buildHot, prepare: primeKeys, source: hotSource},
	{name: "rewrite_cold", strict: true, build: buildCold, prepare: primeSchemas, source: coldSource},
	{name: "answer_stored", strict: true, build: buildStored, prepare: prepareStored, source: storedSource},
	{name: "mixed", persist: true, build: buildMixed, prepare: prepareMixed, source: mixedSource},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// call sends one set-up request and requires a 200.
func call(h http.Handler, method, target string, body []byte) error {
	req, err := http.NewRequest(method, "http://qav"+target, bytes.NewReader(body))
	if err != nil {
		return err
	}
	var rec recorder
	rec.header = make(http.Header)
	h.ServeHTTP(&rec, req)
	if rec.code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, target, rec.code, rec.body.String())
	}
	return nil
}

func rewriteOp(k int, body []byte) op {
	return op{kind: opRewrite, ref: k, method: http.MethodPost, target: "/v1/rewrite", body: body}
}

// primeKeys sends every key once through the router, so each owner
// replica holds it in its cache.
func primeKeys(f *fixture, c *cluster) error {
	for i := range f.keys {
		if err := call(c.front, http.MethodPost, "/v1/rewrite", f.keys[i].body); err != nil {
			return err
		}
		f.sent[i].Store(true)
	}
	return nil
}

// primeSchemas builds every replica's constraint context for each
// schema, which the first schema request would otherwise pay for.
func primeSchemas(f *fixture, c *cluster) error {
	for _, h := range c.direct {
		for _, s := range f.schemas {
			root := string(jsonString("/" + s.g.Root))
			body := []byte(`{"p":` + root + `,"q":` + root + `,"schema":` + string(jsonString(s.text)) + `}`)
			if err := call(h, http.MethodPost, "/v1/contain", body); err != nil {
				return err
			}
		}
	}
	return nil
}

// prepareStored registers both stored views on every replica (the
// router does not replicate views) and answers every template once, so
// each owner builds its forest index and caches rewriting and plan.
func prepareStored(f *fixture, c *cluster) error {
	for _, h := range c.direct {
		for _, body := range f.storedReg {
			if err := call(h, http.MethodPost, "/v1/views", body); err != nil {
				return err
			}
		}
	}
	for i, t := range f.templates {
		if err := call(c.front, http.MethodPost, "/v1/answer", t.body); err != nil {
			return err
		}
		f.sent[i].Store(true)
	}
	return nil
}

// prepareMixed registers the view catalog on every replica.
func prepareMixed(f *fixture, c *cluster) error {
	for _, eng := range c.engines {
		for _, v := range f.catalog {
			eng.RegisterView(v.Name, &viewstore.Materialized{Expr: v.Expr})
		}
	}
	return nil
}

func hotSource(f *fixture, rng *rand.Rand, _ int) func() op {
	zipf := rand.NewZipf(rng, hotZipf, 1, uint64(len(f.keys)-1))
	return func() op {
		k := int(zipf.Uint64())
		body := f.keys[k].body
		if f.keys[k].twin != nil && rng.Float64() < twinShare {
			body = f.keys[k].twin
		}
		return rewriteOp(k, body)
	}
}

// coldSource cycles the pool in order across all clients, so a key
// comes back only after every other key has been sent.
func coldSource(f *fixture, _ *rand.Rand, _ int) func() op {
	return func() op {
		k := int((f.cursor.Add(1) - 1) % int64(len(f.keys)))
		return rewriteOp(k, f.keys[k].body)
	}
}

// storedSource round-robins the templates across all clients.
func storedSource(f *fixture, _ *rand.Rand, _ int) func() op {
	return func() op {
		t := int((f.cursor.Add(1) - 1) % int64(len(f.templates)))
		return op{kind: opStored, ref: t, method: http.MethodPost, target: "/v1/answer", body: f.templates[t].body}
	}
}

// mixedSource draws the production-like mix: 55% rewrite, 10% batch,
// 10% contain, 10% direct answer, 10% catalog selection, 5% view
// registration.
func mixedSource(f *fixture, rng *rand.Rand, client int) func() op {
	zipf := rand.NewZipf(rng, mixedZipf, 1, uint64(len(f.keys)-1))
	writes := 0
	return func() op {
		switch r := rng.Float64(); {
		case r < 0.55:
			k := int(zipf.Uint64())
			return rewriteOp(k, f.keys[k].body)
		case r < 0.65:
			b := rng.Intn(len(f.batches))
			return op{kind: opBatch, ref: b, method: http.MethodPost, target: "/v1/rewrite/batch", body: f.batches[b].body}
		case r < 0.75:
			p := rng.Intn(len(f.pairs))
			return op{kind: opContain, ref: p, method: http.MethodPost, target: "/v1/contain", body: f.pairs[p].body}
		case r < 0.85:
			// Uniform keys: answer sizes vary widely between keys, and a
			// Zipf head would let a few of them set the run's cost.
			k, d := rng.Intn(len(f.keys)), rng.Intn(len(f.docs))
			body := []byte(`{"query":` + string(jsonString(f.keys[k].qText)) +
				`,"view":` + string(jsonString(f.keys[k].vText)) + `,"document":`)
			body = append(append(body, f.docs[d].json...), '}')
			return op{kind: opDirect, ref: k, aux: d, method: http.MethodPost, target: "/v1/answer", body: body}
		case r < 0.95:
			p := rng.Intn(len(f.probes))
			return op{kind: opSelect, ref: p, method: http.MethodGet, target: f.probes[p].target}
		default:
			v, d := rng.Intn(len(f.writeViews)), rng.Intn(len(f.writeDocs))
			writes++
			body := []byte(`{"name":"w` + fmt.Sprint(client) + "-" + fmt.Sprint(writes) +
				`","view":` + string(jsonString(f.writeViews[v].text)) + `,"document":`)
			body = append(append(body, f.writeDocs[d].json...), '}')
			return op{kind: opWrite, ref: v, aux: d, method: http.MethodPost, target: "/v1/views", body: body}
		}
	}
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.header)
	r.code = 0
	r.body.Reset()
}
