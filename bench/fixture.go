package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"qav/internal/rewrite"
	"qav/internal/schema"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

// sizes are a workload's input sizes; quick mode shrinks them for the
// package test.
type sizes struct {
	hotKeys      int // rewrite_hot distinct keys
	coldKeys     int // rewrite_cold key pool
	storedGroups int // answer_stored Trials groups (50 trials each)
	mixedKeys    int // mixed rewrite key pool
	catalogViews int // mixed per-replica view catalog
	docs         int // mixed direct-answer documents
	docNodes     int // nodes per mixed direct-answer document
}

var (
	fullSizes  = sizes{256, 100_000, 200, 8192, 10_000, 16, 2000}
	quickSizes = sizes{64, 3000, 40, 1024, 1000, 4, 400}
)

// schemaSeed fixes the rewrite_cold schemas across seeds: schema shape
// moves per-request cost far more than the patterns drawn under it, so
// a seeded schema would make seeds incomparable.
const schemaSeed = 2006

// rwKey is one canonical rewriting key: a query composed as E∘V, so it
// is answerable by construction and E∘V itself is a known contained
// rewriting. Keys keep text only (pools run to 10⁵ keys); patterns
// are parsed again where a check or the layer pass needs them.
type rwKey struct {
	schema int // index into fixture.schemas; -1 for none
	// qText and vText are the normal spellings; body the /v1/rewrite
	// request in them; twin the same request in a canonical-twin
	// spelling (nil when the key has none).
	qText, vText string
	body, twin   []byte
}

// patterns parses the key's query and view.
func (k *rwKey) patterns() (q, v *tpq.Pattern, err error) {
	if q, err = tpq.Parse(k.qText); err != nil {
		return nil, nil, err
	}
	v, err = tpq.Parse(k.vText)
	return q, v, err
}

type schemaFix struct {
	g    *schema.Graph
	text string
	sc   *rewrite.SchemaContext // harness-side, for checks and the layer pass
}

type storedView struct {
	name string
	v    *tpq.Pattern
}

type storedQuery struct {
	q    *tpq.Pattern
	text string
	view int // index into fixture.storedViews
	body []byte
}

type directDoc struct {
	d    *xmltree.Document
	xml  string
	json []byte // xml as a JSON string literal
}

type batchFix struct {
	items []int // key indices
	body  []byte
}

type containPair struct {
	p, q *tpq.Pattern
	// general marks a pair whose q generalizes p, so pInQ must hold.
	general bool
	body    []byte
}

type probeFix struct {
	q      *tpq.Pattern
	target string
}

type writeView struct {
	v    *tpq.Pattern
	text string
}

// fixture holds every input a workload sends, generated from the seed
// before set-up starts.
type fixture struct {
	keys []rwKey
	// sent marks keys sent at least once, so misses on keys sent before
	// can be told from first-time misses.
	sent    []atomic.Bool
	schemas []schemaFix
	cursor  atomic.Int64 // shared position of cycled workloads

	storedDoc   *xmltree.Document
	storedViews []storedView
	storedReg   [][]byte // POST /v1/views bodies, one per stored view
	templates   []storedQuery

	docs       []directDoc
	batches    []batchFix
	pairs      []containPair
	checkDoc   *xmltree.Document // fixed document the contain check evaluates on
	probes     []probeFix
	catalog    []workload.CatalogView
	writeViews []writeView
	writeDocs  []directDoc

	mirrorOnce sync.Once
	mirror     *viewstore.Catalog // the replicas' catalog as registered at set-up
}

// setKeys installs the key pool.
func (f *fixture) setKeys(keys []rwKey) {
	f.keys = keys
	f.sent = make([]atomic.Bool, len(keys))
}

// catalogMirror returns a harness-side catalog holding exactly the
// views registered at set-up.
func (f *fixture) catalogMirror() *viewstore.Catalog {
	f.mirrorOnce.Do(func() {
		f.mirror = viewstore.NewCatalog()
		for _, v := range f.catalog {
			f.mirror.Register(v.Name, &viewstore.Materialized{Expr: v.Expr})
		}
	})
	return f.mirror
}

func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

func rewriteBody(q, v, schemaText string) []byte {
	m := map[string]string{"query": q, "view": v}
	if schemaText != "" {
		m["schema"] = schemaText
	}
	b, _ := json.Marshal(m) // a string map always marshals
	return b
}

// composed draws V and E with workload.RandomPattern, E's root tag
// matching V's output, and returns q = E∘V.
func composed(rng *rand.Rand, alphabet []string, maxNodes int) (q, v *tpq.Pattern, err error) {
	v = workload.RandomPattern(rng, alphabet, maxNodes)
	var e *tpq.Pattern
	for try := 0; ; try++ {
		e = workload.RandomPattern(rng, alphabet, maxNodes)
		if e.Root.Tag == v.Output.Tag {
			break
		}
		if try == 64 {
			e = tpq.MustParse("/" + v.Output.Tag)
			break
		}
	}
	q, err = tpq.Compose(e, v)
	return q, v, err
}

// schemaPatternAt is workload.RandomSchemaPattern rooted at a given
// tag: pc-edges follow schema edges, ad-edges schema paths.
func schemaPatternAt(rng *rand.Rand, g *schema.Graph, tag string, maxNodes int) *tpq.Pattern {
	p := tpq.New(tpq.Child, tag)
	nodes := []*tpq.Node{p.Root}
	target := 1 + rng.Intn(maxNodes)
	for attempts := 0; len(nodes) < target && attempts < 8*target; attempts++ {
		parent := nodes[rng.Intn(len(nodes))]
		if rng.Intn(2) == 0 {
			edges := g.Edges(parent.Tag)
			if len(edges) == 0 {
				continue
			}
			nodes = append(nodes, parent.AddChild(tpq.Child, edges[rng.Intn(len(edges))].Child))
			continue
		}
		var below []string
		for _, t := range g.Tags() {
			if g.Reachable(parent.Tag, t) {
				below = append(below, t)
			}
		}
		if len(below) == 0 {
			continue
		}
		nodes = append(nodes, parent.AddChild(tpq.Descendant, below[rng.Intn(len(below))]))
	}
	p.SetOutput(nodes[rng.Intn(len(nodes))])
	p.Reindex()
	return p
}

// newKey spells q and v and builds the request bodies.
func newKey(q, v *tpq.Pattern, schemaIdx int, schemaText string) rwKey {
	k := rwKey{schema: schemaIdx, qText: spell(q, spelling{}), vText: spell(v, spelling{})}
	k.body = rewriteBody(k.qText, k.vText, schemaText)
	qTwin, vTwin := spell(q, spelling{reverse: true}), spell(v, spelling{reverse: true})
	if qTwin != k.qText || vTwin != k.vText {
		k.twin = rewriteBody(qTwin, vTwin, schemaText)
	}
	return k
}

// keyPool draws n distinct canonical keys over the alphabet; a
// schemaShare fraction is drawn under one of the schemas instead.
func keyPool(rng *rand.Rand, n int, alphabet []string, schemas []schemaFix, schemaShare float64) ([]rwKey, error) {
	keys := make([]rwKey, 0, n)
	seen := make(map[string]bool, n)
	for len(keys) < n {
		si := -1
		var q, v *tpq.Pattern
		var err error
		if len(schemas) > 0 && rng.Float64() < schemaShare {
			si = rng.Intn(len(schemas))
			g := schemas[si].g
			v = workload.RandomSchemaPattern(rng, g, 6)
			if v == nil {
				continue
			}
			q, err = tpq.Compose(schemaPatternAt(rng, g, v.Output.Tag, 6), v)
		} else {
			q, v, err = composed(rng, alphabet, 6)
		}
		if err != nil {
			return nil, fmt.Errorf("composing a key: %w", err)
		}
		id := q.Canonical() + "\x00" + v.Canonical() + "\x00" + strconv.Itoa(si)
		if seen[id] {
			continue
		}
		seen[id] = true
		text := ""
		if si >= 0 {
			text = schemas[si].text
		}
		keys = append(keys, newKey(q, v, si, text))
	}
	return keys, nil
}

// stratify orders a pool that is drawn by popularity rank so that each
// rank holds a key of the same length class on every seed. Drawn in
// generation order, the few keys at the head of a Zipf law (the first
// takes a tenth or more of the draws) would set the cost of a run by
// their chance lengths; interleaving the length classes in proportion fixes
// the head's make-up, so seeds stay comparable.
func stratify(keys []rwKey) {
	classes := make(map[int][]int)
	for i, k := range keys {
		c := (len(k.qText) + len(k.vText)) / 8
		classes[c] = append(classes[c], i)
	}
	type slot struct {
		pos      float64 // position within its class, in (0, 1)
		class, i int
	}
	var slots []slot
	for c, members := range classes {
		for j, i := range members {
			slots = append(slots, slot{(float64(j) + 0.5) / float64(len(members)), c, i})
		}
	}
	sort.Slice(slots, func(a, b int) bool {
		if slots[a].pos != slots[b].pos {
			return slots[a].pos < slots[b].pos
		}
		return slots[a].class < slots[b].class
	})
	ordered := make([]rwKey, len(keys))
	for r, s := range slots {
		ordered[r] = keys[s.i]
	}
	copy(keys, ordered)
}

func fixedSchemas() []schemaFix {
	rng := rand.New(rand.NewSource(schemaSeed))
	out := make([]schemaFix, 4)
	for i := range out {
		g := workload.RandomDAGSchema(rng, 16, 0.3)
		out[i] = schemaFix{g: g, text: g.String(), sc: rewrite.NewSchemaContext(g)}
	}
	return out
}

func buildHot(seed int64, sz sizes) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	keys, err := keyPool(rng, sz.hotKeys, []string{"a", "b", "c", "d"}, nil, 0)
	if err != nil {
		return nil, err
	}
	stratify(keys)
	f := &fixture{}
	f.setKeys(keys)
	return f, nil
}

func buildCold(seed int64, sz sizes) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{}
	f.schemas = fixedSchemas()
	keys, err := keyPool(rng, sz.coldKeys, []string{"a", "b", "c"}, f.schemas, 0.2)
	if err != nil {
		return nil, err
	}
	f.setKeys(keys)
	return f, nil
}

// storedTemplates are the answer_stored queries, each E∘V over one of
// the two stored views; together they return about 40 KB per answer.
var storedTemplates = []struct{ query, view string }{
	{"//Trials[//Status]//Trial/Patient", "trials"},
	{"//Trials//Trial[/Status]/Patient", "trial"},
	{"//Trials//Trial[/Status]/Status", "trial"},
	{"//Trials[//Status]", "trials"},
	{"//Trials[//Trial/Status]//Trial[/Patient]/Patient", "trials"},
	{"//Trials//Trial[/Patient][/Status]", "trial"},
	{"//Trials[//Status]//Status", "trials"},
	{"//Trials[//Patient][//Status]//Trial[/Status]/Patient", "trials"},
}

func buildStored(seed int64, sz sizes) (*fixture, error) {
	f := &fixture{}
	// Every seed gets the same share of Status-carrying groups, so the
	// answer sizes (and the work) do not drift with the seed.
	want := sz.storedGroups / 10
	for try := int64(0); ; try++ {
		rng := rand.New(rand.NewSource(seed*7919 + try))
		d, err := workload.ClinicalTrialsDoc(context.Background(), rng, sz.storedGroups, 50, 0.1)
		if err != nil {
			return nil, fmt.Errorf("clinical trials document: %w", err)
		}
		if len(tpq.MustParse("//Trials[//Status]").Evaluate(d)) == want {
			f.storedDoc = d
			break
		}
	}
	xml := jsonString(f.storedDoc.XMLString())
	for _, sv := range []struct{ name, expr string }{{"trials", "//Trials"}, {"trial", "//Trials//Trial"}} {
		f.storedViews = append(f.storedViews, storedView{name: sv.name, v: tpq.MustParse(sv.expr)})
		body := []byte(`{"name":` + string(jsonString(sv.name)) + `,"view":` + string(jsonString(sv.expr)) + `,"document":`)
		f.storedReg = append(f.storedReg, append(append(body, xml...), '}'))
	}
	var keys []rwKey
	for _, t := range storedTemplates {
		vi := 0
		for i, sv := range f.storedViews {
			if sv.name == t.view {
				vi = i
			}
		}
		q := tpq.MustParse(t.query)
		b, _ := json.Marshal(map[string]string{"query": t.query, "viewName": t.view}) // a string map always marshals
		f.templates = append(f.templates, storedQuery{q: q, text: t.query, view: vi, body: b})
		keys = append(keys, rwKey{schema: -1, qText: t.query, vText: f.storedViews[vi].v.String()})
	}
	f.setKeys(keys)
	return f, nil
}

// numberedDoc generates a random document and gives every node a
// distinct text, so an answer's (path, text) names one node.
func numberedDoc(rng *rand.Rand, spec xmltree.GenSpec) directDoc {
	d := xmltree.Generate(rng, spec)
	for i, n := range d.Nodes {
		n.Text = strconv.Itoa(i)
	}
	xml := d.XMLString()
	return directDoc{d: d, xml: xml, json: jsonString(xml)}
}

func buildMixed(seed int64, sz sizes) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{}
	alphabet := []string{"a", "b", "c", "d"}
	keys, err := keyPool(rng, sz.mixedKeys, alphabet, nil, 0)
	if err != nil {
		return nil, err
	}
	stratify(keys)
	f.setKeys(keys)
	spec := xmltree.GenSpec{Tags: alphabet, MaxDepth: 8, MaxFanout: 4, TargetSize: sz.docNodes}
	for i := 0; i < sz.docs; i++ {
		f.docs = append(f.docs, numberedDoc(rng, spec))
	}
	f.checkDoc = numberedDoc(rng, spec).d

	zipf := rand.NewZipf(rng, mixedZipf, 1, uint64(len(keys)-1))
	for i := 0; i < 2048; i++ {
		bf := batchFix{items: make([]int, 16)}
		items := make([]map[string]string, 16)
		for j := range bf.items {
			k := int(zipf.Uint64())
			bf.items[j] = k
			items[j] = map[string]string{"query": keys[k].qText, "view": keys[k].vText}
		}
		bf.body, _ = json.Marshal(map[string]any{"items": items}) // maps of strings always marshal
		f.batches = append(f.batches, bf)
	}

	for i := 0; i < 2048; i++ {
		p, _, err := keys[rng.Intn(len(keys))].patterns()
		if err != nil {
			return nil, fmt.Errorf("contain pair: %w", err)
		}
		pair := containPair{p: p}
		var qText string
		if rng.Intn(2) == 0 {
			pair.general = true
			qText = spell(p, generalize(rng, p))
		} else {
			qText = keys[rng.Intn(len(keys))].qText
		}
		if pair.q, err = tpq.Parse(qText); err != nil {
			return nil, fmt.Errorf("contain pair: %w", err)
		}
		pair.body, _ = json.Marshal(map[string]string{"p": spell(p, spelling{}), "q": qText}) // a string map always marshals
		f.pairs = append(f.pairs, pair)
	}

	const catalogTags = 100
	f.catalog = workload.RandomCatalogViews(rng, sz.catalogViews, catalogTags, 10, 0.8)
	for i := 0; i < 256; i++ {
		q := workload.CatalogProbeQuery(rng, rng.Intn(catalogTags), catalogTags, 10)
		f.probes = append(f.probes, probeFix{q: q, target: "/v1/views?k=16&q=" + url.QueryEscape(spell(q, spelling{}))})
	}

	// Written views are '/'-rooted at a tag outside the catalog's
	// universe, so they never become candidates for the probes and the
	// selection check can use the set-up catalog as its oracle.
	for i := 0; i < 16; i++ {
		text := "/w" + spell(workload.RandomPattern(rng, []string{"a", "b"}, 4), spelling{})
		f.writeViews = append(f.writeViews, writeView{v: tpq.MustParse(text), text: text})
	}
	for i := 0; i < 8; i++ {
		sub := xmltree.Generate(rng, xmltree.GenSpec{Tags: []string{"a", "b"}, MaxDepth: 5, MaxFanout: 3, TargetSize: 60})
		d := xmltree.NewDocument(xmltree.Build("w", sub.Root))
		xml := d.XMLString()
		f.writeDocs = append(f.writeDocs, directDoc{d: d, xml: xml, json: jsonString(xml)})
	}
	return f, nil
}

// generalize picks a spelling of p that is contained-in-by-construction
// weaker: one pc-edge relaxed to ad, and one predicate subtree dropped.
func generalize(rng *rand.Rand, p *tpq.Pattern) spelling {
	var s spelling
	var pcs, preds []*tpq.Node
	for _, n := range p.Nodes() {
		if n.Axis == tpq.Child {
			pcs = append(pcs, n)
		}
		if !p.OnDistinguishedPath(n) {
			preds = append(preds, n)
		}
	}
	if len(pcs) > 0 {
		s.relax = pcs[rng.Intn(len(pcs))]
	}
	if len(preds) > 0 {
		s.drop = preds[rng.Intn(len(preds))]
	}
	return s
}
