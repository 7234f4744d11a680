package plan

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/names"
	"qav/internal/tpq"
	"qav/internal/xmltree"
)

func mustDoc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCompileEmptyPlan(t *testing.T) {
	ctx := context.Background()
	pl, err := Compile(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Programs() != 0 || pl.Key() != "" {
		t.Fatalf("empty plan: %d programs, key %q", pl.Programs(), pl.Key())
	}
	f, err := IndexDocument(ctx, mustDoc(t, "<a><b/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Exec(ctx, f, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || res.Nodes() != nil {
		t.Fatalf("empty plan produced answers: %v", res.Matches)
	}
}

func TestCompileDedupAndKey(t *testing.T) {
	ctx := context.Background()
	a := tpq.MustParse("/a//b")
	a2 := tpq.MustParse("/a//b")
	b := tpq.MustParse("/a/c")
	pl, err := Compile(ctx, []*tpq.Pattern{a, a2, b, a})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Programs() != 2 {
		t.Fatalf("programs = %d, want 2 (duplicates must collapse)", pl.Programs())
	}
	key, err := KeyOf([]*tpq.Pattern{b, a}) // reversed order
	if err != nil {
		t.Fatal(err)
	}
	if key != pl.Key() {
		t.Fatalf("KeyOf order-dependent: %q vs %q", key, pl.Key())
	}
}

func TestKeyIgnoresRootAxis(t *testing.T) {
	// Compensations are pinned at view nodes; EvaluateAt ignores the
	// root axis, so the plan key must too.
	k1, err := KeyOf([]*tpq.Pattern{tpq.MustParse("/a/b")})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyOf([]*tpq.Pattern{tpq.MustParse("//a/b")})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("keys differ on root axis only: %q vs %q", k1, k2)
	}
}

func TestCompileRejectsNil(t *testing.T) {
	if _, err := Compile(context.Background(), []*tpq.Pattern{nil}); err == nil {
		t.Fatal("Compile accepted a nil compensation")
	}
	if _, err := KeyOf([]*tpq.Pattern{nil}); err == nil {
		t.Fatal("KeyOf accepted a nil compensation")
	}
}

func TestForestStats(t *testing.T) {
	ctx := context.Background()
	forest := []*xmltree.Document{
		mustDoc(t, "<a><b/><b/></a>"),
		mustDoc(t, "<a><c/></a>"),
	}
	f, err := IndexForest(ctx, forest)
	if err != nil {
		t.Fatal(err)
	}
	if f.Trees() != 2 || f.Shared() {
		t.Fatalf("Trees=%d Shared=%v", f.Trees(), f.Shared())
	}
	if f.Size() != 5 || f.Cardinality("b") != 2 || f.Cardinality("a") != 2 {
		t.Fatalf("Size=%d card(b)=%d card(a)=%d", f.Size(), f.Cardinality("b"), f.Cardinality("a"))
	}
	// Positions run in (tree, preorder) order: a(0) b(1) b(2) | a(3) c(4).
	if !slices.Equal(f.roots, []int32{0, 3}) || !slices.Equal(f.rootList("a"), []int32{0, 3}) || len(f.rootList("b")) != 0 {
		t.Fatalf("roots = %v, a-roots = %v, b-roots = %v", f.roots, f.rootList("a"), f.rootList("b"))
	}
	if !slices.Equal(f.parent, []int32{-1, 0, 0, -1, 3}) || !slices.Equal(f.end, []int32{2, 1, 2, 4, 4}) ||
		!slices.Equal(f.path, []int32{0, 1, 1, 0, 2}) || !slices.Equal(f.list("b"), []int32{1, 2}) {
		t.Fatalf("parent = %v, end = %v, path = %v, b = %v", f.parent, f.end, f.path, f.list("b"))
	}
}

func TestIndexSubtreesNestedWindows(t *testing.T) {
	// A view like //a//a materializes nested windows; nodes must be
	// indexed once per window so every program sees per-window contents.
	ctx := context.Background()
	d := mustDoc(t, "<a><a><b/></a></a>")
	v := tpq.MustParse("//a")
	f, err := IndexSubtrees(ctx, d, v.Evaluate(d))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Shared() || f.Trees() != 2 {
		t.Fatalf("Shared=%v Trees=%d", f.Shared(), f.Trees())
	}
	if f.Size() != 5 { // outer window 3 nodes + inner window 2
		t.Fatalf("Size = %d, want 5", f.Size())
	}
	// The shared-window answer union must report the inner b once, in
	// global document order.
	pl, err := Compile(ctx, []*tpq.Pattern{tpq.MustParse("/a//b")})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Exec(ctx, f, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nodes := res.Nodes(); len(nodes) != 1 || nodes[0].Tag != "b" {
		t.Fatalf("answers %v, want the single b", nodes)
	}
}

// TestWildcardAllBackendsAgree checks a wildcard compensation, which
// joins over every position, against the per-tree dynamic program.
func TestWildcardAllBackendsAgree(t *testing.T) {
	ctx := context.Background()
	d := mustDoc(t, "<a><b><c/></b><d><c/><e/></d></a>")
	f, err := IndexDocument(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	comps := []*tpq.Pattern{tpq.MustParse("/a/*/c")}
	pl, err := Compile(ctx, comps)
	if err != nil {
		t.Fatal(err)
	}
	want := treeDP(t, f, []window{{doc: d, root: d.Root}}, comps)
	if len(want) != 2 {
		t.Fatalf("wildcard answers = %d, want 2", len(want))
	}
	res, err := pl.Exec(ctx, f, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Matches, want) {
		t.Fatalf("structural joins %v, tree DP %v", res.Matches, want)
	}
}

// TestExecPanicFails checks Exec's one panic rule: a panic anywhere in
// a run fails the call with ErrInternal and no result, whatever
// GOMAXPROCS is and however many programs the plan has, and a run that
// panicked mid-join returns none of its scratch to the pool.
func TestExecPanicFails(t *testing.T) {
	ctx := context.Background()
	doc := "<a><b><c/></b><d/></a>"
	compile := func(exprs ...string) *Plan {
		t.Helper()
		ps := make([]*tpq.Pattern, len(exprs))
		for i, e := range exprs {
			ps[i] = tpq.MustParse(e)
		}
		pl, err := Compile(ctx, ps)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	plans := []*Plan{compile("/a/b"), compile("/a/b[c]", "/a/d")}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, pl := range plans {
			f, err := IndexDocument(ctx, mustDoc(t, doc))
			if err != nil {
				t.Fatal(err)
			}
			if err := fault.Enable(&fault.Plan{Seed: 1, Injections: []fault.Injection{
				{Point: names.FaultPlanExec, Action: fault.ActPanic},
			}}); err != nil {
				t.Fatal(err)
			}
			res, err := pl.Exec(ctx, f, ExecOptions{})
			fault.Disable()
			if !errors.Is(err, guard.ErrInternal) || res != nil {
				t.Fatalf("GOMAXPROCS=%d, %d programs: result %v, err %v; want none and ErrInternal", procs, pl.Programs(), res, err)
			}
		}
	}

	// The second program's path names a pattern node it does not have,
	// so its join panics after the first program ran.
	broken := compile("/a/b[c]", "/a/d")
	broken.programs[1].path = append(slices.Clone(broken.programs[1].path), int32(len(broken.programs[1].ops)))
	f, err := IndexDocument(ctx, mustDoc(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := broken.Exec(ctx, f, ExecOptions{})
	if !errors.Is(err, guard.ErrInternal) || res != nil {
		t.Fatalf("panicking join: result %v, err %v; want none and ErrInternal", res, err)
	}
	if sc := f.scratch.Get(); sc != nil {
		t.Fatal("a panicking run returned scratch to the pool")
	}
}

func TestExecHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f, err := IndexDocument(ctx, mustDoc(t, "<a><b/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(ctx, []*tpq.Pattern{tpq.MustParse("/a/b")})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := pl.Exec(ctx, f, ExecOptions{}); err != context.Canceled {
		t.Fatalf("Exec after cancel: err = %v", err)
	}
	if _, err := Compile(ctx, []*tpq.Pattern{tpq.MustParse("/a")}); err != context.Canceled {
		t.Fatalf("Compile after cancel: err = %v", err)
	}
	if _, err := IndexDocument(ctx, mustDoc(t, "<a/>")); err != context.Canceled {
		t.Fatalf("Index after cancel: err = %v", err)
	}
}

func TestEvaluateIndexedMatchesEvaluate(t *testing.T) {
	ctx := context.Background()
	d := mustDoc(t, "<a><b><c/></b><b/><c><b><c/></b></c></a>")
	f, err := IndexDocument(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"/a", "//b", "//b/c", "/a//c", "//c[b]", "//*[c]/c"} {
		p := tpq.MustParse(expr)
		got, err := EvaluateIndexed(ctx, f, p)
		if err != nil {
			t.Fatal(err)
		}
		want := p.Evaluate(d)
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers, Evaluate found %d", expr, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: diverges at %d", expr, i)
			}
		}
	}
}

func TestKeySeparatorUnambiguous(t *testing.T) {
	// Canonical forms never contain NUL, so the joined key cannot
	// collide across different canon multisets.
	k, err := KeyOf([]*tpq.Pattern{tpq.MustParse("/a/b"), tpq.MustParse("/c")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(k, "\x00") {
		t.Fatalf("expected NUL-joined key, got %q", k)
	}
}
