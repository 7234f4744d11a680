package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"qav/internal/tpq"
)

// TestQuickWorkloads runs every workload traced, briefly and at reduced
// sizes: no request may fail its check, every metric must be reported
// with its unit, and every traced request's self times must be
// non-negative and add up to its wall time.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(runConfig{workload: w.name, seed: 1, seconds: 0.6, trace: true, quick: true, tmpDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Errors)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("metric %s: got %+v (present %v), want unit %q", d.Name, m, ok, d.Unit)
				}
			}
			for _, d := range endToEnd {
				if r.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", d.Name, r.Metrics[d.Name].Value)
				}
			}
			if len(r.traces) == 0 {
				t.Fatal("no traced requests")
			}
			for _, tr := range r.traces {
				bd := tr.breakdown()
				if bd.routerSelf < 0 || bd.fabric < 0 || bd.replica < 0 {
					t.Fatalf("request %d: negative self time %+v", tr.ID, bd)
				}
				sum := bd.routerSelf + bd.fabric + bd.replica
				if diff := sum - bd.wall; diff > bd.wall/20 || -diff > bd.wall/20 {
					t.Fatalf("request %d: router+fabric+replica = %d ns, wall %d ns", tr.ID, sum, bd.wall)
				}
			}
		})
	}
}

// TestHistQuantile checks the latency histogram against exact
// quantiles of the samples it recorded.
func TestHistQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var ns []int64
	for i := 0; i < 100_000; i++ {
		v := int64(math.Exp(rng.Float64()*20)) + rng.Int63n(100) // 0 ns to ~0.5 s
		h.add(v)
		ns = append(ns, v)
	}
	slices.Sort(ns)
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		want := float64(ns[min(int(q*float64(len(ns))), len(ns)-1)]) / 1e6
		if got := h.quantileMs(q); math.Abs(got-want) > want/128+1e-6 {
			t.Errorf("q=%v: histogram %.6f ms, samples %.6f ms", q, got, want)
		}
	}
}

// TestSpellingRoundTrips checks that the normal spelling, its twin and
// a generalization parse back to the intended patterns.
func TestSpellingRoundTrips(t *testing.T) {
	f, err := buildMixed(3, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	twins := 0
	for _, k := range f.keys[:200] {
		q, _, err := k.patterns()
		if err != nil {
			t.Fatal(err)
		}
		if got := spell(q, spelling{}); got != k.qText {
			t.Fatalf("respelling %q gives %q", k.qText, got)
		}
		twin, err := tpq.Parse(spell(q, spelling{reverse: true}))
		if err != nil || twin.Canonical() != q.Canonical() {
			t.Fatalf("twin of %q is not canonically equal (%v)", k.qText, err)
		}
		if spell(q, spelling{reverse: true}) != k.qText {
			twins++
		}
	}
	if twins == 0 {
		t.Fatal("no key has a distinct twin spelling")
	}
	for _, pr := range f.pairs {
		if pr.general && !tpq.Contained(pr.p, pr.q) {
			t.Fatalf("generalization %q does not contain %q", spell(pr.q, spelling{}), spell(pr.p, spelling{}))
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q, want %q with a why", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, want %+v with a bound in (0, 0.25]", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer %d: %+v, want %+v", i, m, perLayer[i])
		}
	}
}

// allowedImports are the program packages the benchmark may use, with
// the package-level names it may use from the boot packages (nil: any
// name). Everything else of the module is off limits, so later changes
// to engine methods, oracles and façades never require editing the
// benchmark.
var allowedImports = map[string][]string{
	"qav/internal/engine": {"New", "Config", "Engine"},
	"qav/internal/server": {"NewService"},
	"qav/internal/router": {"New", "Config", "Router", "NewHandlerTransport"},
	"qav/internal/limits": {"New", "Config"},
	"qav/internal/obs":    {"NewRegistry", "Registry"},
	// Paper kernels and generators.
	"qav/internal/tpq":       nil,
	"qav/internal/rewrite":   nil,
	"qav/internal/plan":      nil,
	"qav/internal/viewstore": nil,
	"qav/internal/xmltree":   nil,
	"qav/internal/schema":    nil,
	"qav/internal/workload":  nil,
}

// TestImportHygiene enforces allowedImports on the benchmark's sources,
// and bans by name the engine's expression methods (RewriteExpr, ...;
// the view field Expr stays usable), its AnswerStored* methods and the
// reference oracles (NaiveMCR and every function of a *_ref.go file).
func TestImportHygiene(t *testing.T) {
	banned := map[string]bool{"NaiveMCR": true}
	refs, err := filepath.Glob(filepath.Join("..", "internal", "*", "*_ref.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range refs {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				banned[fn.Name.Name] = true
			}
		}
	}
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		names := make(map[string]string) // local name → import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if first, _, _ := strings.Cut(p, "/"); first != "qav" {
				if strings.Contains(first, ".") {
					t.Errorf("%s imports %s: only the standard library and allowed program packages", path, p)
				}
				continue
			}
			if _, ok := allowedImports[p]; !ok {
				t.Errorf("%s imports %s, which the benchmark may not use", path, p)
			}
			name := filepath.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if banned[name] || (strings.HasSuffix(name, "Expr") && name != "Expr") || strings.HasPrefix(name, "AnswerStored") {
				t.Errorf("%s: uses %s, which the benchmark may not call", fset.Position(sel.Pos()), name)
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if allowed := allowedImports[names[id.Name]]; allowed != nil && !slices.Contains(allowed, name) {
					t.Errorf("%s: uses %s.%s, outside the benchmark's allowed API", fset.Position(sel.Pos()), id.Name, name)
				}
			}
			return true
		})
	}
}
