package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// CtxPoll enforces the cancellation discipline PR 1 introduced: the
// MCR enumeration is worst-case exponential (§3.2 of the paper), so
// every entry point of the rewriting and evaluation packages that can
// iterate without a syntactic bound — or that sweeps document-scale
// data — must be reachable by a context.Context and must poll it from
// inside a loop. Exported functions carry the obligation; unexported
// helpers inherit their callers' polling.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc: "exported functions with unbounded or document-scale loops must accept and poll a context.Context\n" +
		"Loops counted: `for {}`/condition-only loops and channel ranges (unbounded);\n" +
		"ranges over internal/xmltree data and loops calling into internal/xmltree\n" +
		"(document-scale); loops invoking a first-party cancellable callee. The\n" +
		"obligation is satisfied by a ctx (or Options-with-Context) parameter plus a\n" +
		"ctx.Err()/ctx.Done() check — or a forwarded ctx — inside a loop.",
	Run: runCtxPoll,
}

// ctxpollTargets are the package-path suffixes the discipline applies
// to: the packages that do per-request algorithmic work. Parsers,
// printers and in-memory tree utilities stay exempt.
var ctxpollTargets = []string{
	"internal/rewrite",
	"internal/chase",
	"internal/engine",
	"internal/viewselect",
	"internal/stream",
	"internal/workload",
	"internal/plan",
}

// obligation is one loop that demands a reachable, polled context.
type obligation struct {
	pos    token.Pos
	reason string
}

// ctxFuncInfo summarizes one function declaration for the
// whole-package obligation analysis.
type ctxFuncInfo struct {
	decl *ast.FuncDecl

	obligations []obligation
	// hasInLoopPoll: a poll expression appears directly inside some
	// loop body of this function.
	hasInLoopPoll bool
	// hasPollAnywhere: a poll expression appears anywhere in the body.
	hasPollAnywhere bool
	// callees / loopCallees: same-package functions called anywhere /
	// from inside a loop body.
	callees     []*types.Func
	loopCallees []*types.Func
}

func runCtxPoll(pass *Pass) error {
	target := false
	for _, suffix := range ctxpollTargets {
		if PathHasSuffix(pass.Pkg.Path(), suffix) {
			target = true
			break
		}
	}
	if !target {
		return nil
	}

	infos := make(map[*types.Func]*ctxFuncInfo)
	var order []*types.Func
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			infos[fn] = summarizeFunc(pass, fd)
			order = append(order, fn)
		}
	}

	pollTrans := make(map[*types.Func]int) // 0 unknown, 1 computing, 2 no, 3 yes
	var pollAnywhere func(fn *types.Func) bool
	pollAnywhere = func(fn *types.Func) bool {
		switch pollTrans[fn] {
		case 1, 2:
			return false
		case 3:
			return true
		}
		info := infos[fn]
		if info == nil {
			return false
		}
		pollTrans[fn] = 1
		ok := info.hasPollAnywhere
		for _, c := range info.callees {
			if pollAnywhere(c) {
				ok = true
				break
			}
		}
		if ok {
			pollTrans[fn] = 3
		} else {
			pollTrans[fn] = 2
		}
		return ok
	}

	for _, fn := range order {
		info := infos[fn]
		if !exportedAPI(info.decl) {
			continue
		}
		reach := reachable(fn, infos)
		var firstOb *obligation
		firstObOwn := false // prefer citing a loop in fn's own body
		inLoopPoll := false
		for _, g := range reach {
			gi := infos[g]
			for i := range gi.obligations {
				ob := gi.obligations[i]
				own := g == fn
				if firstOb == nil || (own && !firstObOwn) || (own == firstObOwn && ob.pos < firstOb.pos) {
					firstOb, firstObOwn = &ob, own
				}
			}
			if gi.hasInLoopPoll {
				inLoopPoll = true
			}
			for _, h := range gi.loopCallees {
				if pollAnywhere(h) {
					inLoopPoll = true
				}
			}
		}
		if firstOb == nil {
			continue
		}
		sig := fn.Type().(*types.Signature)
		switch {
		case !signatureIsCancellable(sig):
			pass.Reportf(info.decl.Name.Pos(),
				"%s has %s (%s) but cannot receive a context.Context; accept a ctx (or an Options carrying one) and poll ctx.Err() inside the loop (ctxpoll)",
				fn.Name(), firstOb.reason, pass.Fset.Position(firstOb.pos))
		case !inLoopPoll:
			pass.Reportf(info.decl.Name.Pos(),
				"%s has %s (%s) and never polls its context inside a loop; check ctx.Err() or forward the ctx in the loop body (ctxpoll)",
				fn.Name(), firstOb.reason, pass.Fset.Position(firstOb.pos))
		}
	}
	return nil
}

// exportedAPI reports whether fd is part of the package's exported
// surface: an exported function, or an exported method on an exported
// receiver type.
func exportedAPI(fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := fd.Recv.List[0].Type
	for {
		switch rt := t.(type) {
		case *ast.StarExpr:
			t = rt.X
		case *ast.IndexExpr:
			t = rt.X
		case *ast.Ident:
			return rt.IsExported()
		default:
			return true
		}
	}
}

// reachable returns fn plus every same-package function reachable from
// it through static calls.
func reachable(fn *types.Func, infos map[*types.Func]*ctxFuncInfo) []*types.Func {
	seen := map[*types.Func]bool{fn: true}
	stack := []*types.Func{fn}
	var out []*types.Func
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		info := infos[cur]
		if info == nil {
			continue
		}
		out = append(out, cur)
		for _, c := range info.callees {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return out
}

// summarizeFunc computes the per-function facts: the loops that create
// polling obligations, the polls present, and the same-package call
// edges.
func summarizeFunc(pass *Pass, fd *ast.FuncDecl) *ctxFuncInfo {
	info := &ctxFuncInfo{decl: fd}
	seenCallee := make(map[*types.Func]bool)
	seenLoopCallee := make(map[*types.Func]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			info.classifyLoop(pass, n, n.Body)
			if pollsIn(pass, n.Body) {
				info.hasInLoopPoll = true
			}
			walkLoopBody(pass, n.Body, info, seenLoopCallee)
		case *ast.RangeStmt:
			info.classifyLoop(pass, n, n.Body)
			if pollsIn(pass, n.Body) {
				info.hasInLoopPoll = true
			}
			walkLoopBody(pass, n.Body, info, seenLoopCallee)
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, n); fn != nil && fn.Pkg() == pass.Pkg && !seenCallee[fn] {
				seenCallee[fn] = true
				info.callees = append(info.callees, fn)
			}
		}
		return true
	})
	info.hasPollAnywhere = pollsIn(pass, fd.Body)
	return info
}

// walkLoopBody records the same-package callees invoked from inside a
// loop body (used for transitive in-loop polling).
func walkLoopBody(pass *Pass, body *ast.BlockStmt, info *ctxFuncInfo, seen map[*types.Func]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() == pass.Pkg && !seen[fn] {
				seen[fn] = true
				info.loopCallees = append(info.loopCallees, fn)
			}
		}
		return true
	})
}

// classifyLoop records the obligations loop creates, if any.
func (info *ctxFuncInfo) classifyLoop(pass *Pass, loop ast.Node, body *ast.BlockStmt) {
	add := func(reason string) {
		info.obligations = append(info.obligations, obligation{pos: loop.Pos(), reason: reason})
	}
	switch l := loop.(type) {
	case *ast.ForStmt:
		if l.Cond == nil {
			add("an unbounded `for {}` loop")
			return
		}
		if l.Init == nil && l.Post == nil {
			add("a condition-only `for` loop with no syntactic bound")
			return
		}
	case *ast.RangeStmt:
		if t := pass.Info.TypeOf(l.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				add("an unbounded range over a channel")
				return
			}
			if typeInvolvesXmltree(t) && (bodyHasNestedLoop(body) || bodyCallsModule(pass, body)) {
				add("a document-scale range over xmltree data")
			}
		}
	}
	if callee := bodyCallsXmltree(pass, body); callee != "" {
		add(fmt.Sprintf("a document-scale loop (calls xmltree's %s)", callee))
	}
	if callee := bodyCallsCancellable(pass, body); callee != "" {
		add(fmt.Sprintf("a loop invoking the cancellable %s", callee))
	}
}

// typeInvolvesXmltree unwraps pointers, slices, arrays and map values
// and reports whether a named internal/xmltree type is the element.
func typeInvolvesXmltree(t types.Type) bool {
	for i := 0; i < 4; i++ {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			if typeInvolvesXmltree(u.Key()) {
				return true
			}
			t = u.Elem()
		default:
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return false
			}
			return PathHasSuffix(named.Obj().Pkg().Path(), "internal/xmltree")
		}
	}
	return false
}

func bodyHasNestedLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

func bodyCallsModule(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(pass.Info, call); fn != nil && inModule(pass.ModulePath, fn.Pkg()) {
				found = true
			}
		}
		return !found
	})
	return found
}

func bodyCallsXmltree(pass *Pass, body *ast.BlockStmt) string {
	name := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fn := calleeFunc(pass.Info, call)
			if fn != nil && fn.Pkg() != nil && fn.Pkg() != pass.Pkg &&
				PathHasSuffix(fn.Pkg().Path(), "internal/xmltree") {
				name = fn.Name()
			}
		}
		return name == ""
	})
	return name
}

func bodyCallsCancellable(pass *Pass, body *ast.BlockStmt) string {
	name := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fn := calleeFunc(pass.Info, call)
			if fn != nil && fn.Pkg() != nil && fn.Pkg() != pass.Pkg &&
				inModule(pass.ModulePath, fn.Pkg()) {
				if sig, ok := fn.Type().(*types.Signature); ok && signatureIsCancellable(sig) {
					name = fn.Pkg().Name() + "." + fn.Name()
				}
			}
		}
		return name == ""
	})
	return name
}

// pollsIn reports whether the subtree contains a poll expression: a
// ctx.Err()/ctx.Done() call, a context-typed argument forwarded to a
// callee, or a composite literal propagating a context field — each
// with context.Background()/TODO() excluded, since a fresh root
// context transports no cancellation.
func pollsIn(pass *Pass, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Err" || sel.Sel.Name == "Done") {
				if t := pass.Info.TypeOf(sel.X); t != nil && isContextType(t) {
					found = true
				}
			}
			for _, arg := range n.Args {
				if forwardsContext(pass, arg) {
					found = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok && forwardsContext(pass, kv.Value) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// forwardsContext reports whether expr is a live context value — its
// static type is context.Context and it is not a fresh Background/TODO
// root.
func forwardsContext(pass *Pass, expr ast.Expr) bool {
	t := pass.Info.TypeOf(expr)
	if t == nil || !isContextType(t) {
		return false
	}
	if call, ok := ast.Unparen(expr).(*ast.CallExpr); ok {
		if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
			return false
		}
	}
	return true
}
