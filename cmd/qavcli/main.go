// Command qavcli is the command-line front end to the QAV engine:
// rewriting tree pattern queries using views, evaluating them over XML
// documents, deciding containment, and inspecting schema constraints
// and chased views.
//
// Usage:
//
//	qavcli rewrite -q XPATH -v XPATH [-schema FILE] [-recursive] [-server URL [-retries N] [-verbose]]
//	qavcli answer  -q XPATH -v XPATH -doc FILE [-schema FILE]
//	qavcli eval    -q XPATH -doc FILE
//	qavcli contain -p XPATH -q XPATH [-schema FILE]
//	qavcli constraints -schema FILE
//	qavcli chase   -v XPATH -schema FILE [-q XPATH]
//	qavcli ship    -v XPATH -doc FILE [-o FILE]
//	qavcli mediate -q XPATH -view FILE
//	qavcli select  -workload FILE -k N
//
// All rewriting-pipeline commands route through internal/engine, the
// same pipeline the HTTP server runs, and honor Ctrl-C: an interrupted
// exponential enumeration stops promptly via context cancellation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"qav"
	"qav/internal/engine"
	"qav/internal/rewrite"
	"qav/internal/schema"
	"qav/internal/tpq"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// Ctrl-C cancels the pipeline context: exponential enumerations
	// stop promptly instead of burning the whole embedding budget.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	eng := engine.New(engine.Config{})

	var err error
	switch os.Args[1] {
	case "rewrite":
		err = cmdRewrite(ctx, eng, os.Args[2:])
	case "answer":
		err = cmdAnswer(ctx, eng, os.Args[2:])
	case "eval":
		err = cmdEval(ctx, os.Args[2:])
	case "contain":
		err = cmdContain(ctx, eng, os.Args[2:])
	case "constraints":
		err = cmdConstraints(eng, os.Args[2:])
	case "chase":
		err = cmdChase(ctx, eng, os.Args[2:])
	case "ship":
		err = cmdShip(os.Args[2:])
	case "mediate":
		err = cmdMediate(ctx, eng, os.Args[2:])
	case "select":
		err = cmdSelect(ctx, os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "qavcli: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "qavcli:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: qavcli <rewrite|answer|eval|contain|constraints|chase|ship|mediate|select> [flags]
run "qavcli <command> -h" for command flags`)
	os.Exit(2)
}

func loadSchema(path string) (*schema.Graph, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return schema.Parse(string(src))
}

func loadDoc(path string) (*qav.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return qav.ParseDocument(f)
}

func cmdRewrite(ctx context.Context, eng *engine.Engine, args []string) error {
	fs := flag.NewFlagSet("rewrite", flag.ExitOnError)
	qExpr := fs.String("q", "", "query (XPath in XP{/,//,[]})")
	vExpr := fs.String("v", "", "view (XPath in XP{/,//,[]})")
	schemaFile := fs.String("schema", "", "optional schema file")
	recursive := fs.Bool("recursive", false, "use the recursive-schema algorithm")
	explain := fs.Bool("explain", false, "print the embedding derivation of each CR")
	server := fs.String("server", "", "rewrite via a qavd/qavrouter endpoint (base URL) instead of in-process")
	retries := fs.Int("retries", 0, "with -server: bounded retries on 429, honoring Retry-After")
	verbose := fs.Bool("verbose", false, "with -server: print per-attempt status and X-QAV-Replica attribution")
	fs.Parse(args)
	if *qExpr == "" || *vExpr == "" {
		return fmt.Errorf("-q and -v are required")
	}
	if *server != "" {
		return remoteRewrite(ctx, *server, *qExpr, *vExpr, *schemaFile, *recursive, *retries, *verbose)
	}
	q, err := qav.ParseQuery(*qExpr)
	if err != nil {
		return err
	}
	v, err := qav.ParseQuery(*vExpr)
	if err != nil {
		return err
	}
	var g *schema.Graph
	if *schemaFile != "" {
		if g, err = loadSchema(*schemaFile); err != nil {
			return err
		}
	}
	res, err := eng.Rewrite(ctx, engine.Request{Query: q, View: v, Schema: g, Recursive: *recursive})
	if err != nil {
		return err
	}
	if res.Union.Empty() {
		if res.Partial {
			fmt.Printf("PARTIAL (%s): generation stopped before finding any contained rewriting\n", res.PartialReason)
			return nil
		}
		fmt.Println("not answerable: no contained rewriting exists")
		return nil
	}
	if res.Partial {
		fmt.Printf("PARTIAL (%s): sound but possibly non-maximal rewriting (%d CR(s)):\n", res.PartialReason, len(res.CRs))
	} else {
		fmt.Printf("maximal contained rewriting (%d CR(s)):\n", len(res.CRs))
	}
	for _, cr := range res.CRs {
		fmt.Printf("  %-50s compensation: %s\n", cr.Rewriting, cr.Compensation)
	}
	if *explain {
		fmt.Println()
		fmt.Print(rewrite.Explain(q, v, res))
	}
	return nil
}

func cmdAnswer(ctx context.Context, eng *engine.Engine, args []string) error {
	fs := flag.NewFlagSet("answer", flag.ExitOnError)
	qExpr := fs.String("q", "", "query")
	vExpr := fs.String("v", "", "view")
	docFile := fs.String("doc", "", "XML document")
	schemaFile := fs.String("schema", "", "optional schema file")
	fs.Parse(args)
	if *qExpr == "" || *vExpr == "" || *docFile == "" {
		return fmt.Errorf("-q, -v and -doc are required")
	}
	q, err := qav.ParseQuery(*qExpr)
	if err != nil {
		return err
	}
	v, err := qav.ParseQuery(*vExpr)
	if err != nil {
		return err
	}
	d, err := loadDoc(*docFile)
	if err != nil {
		return err
	}
	var g *schema.Graph
	if *schemaFile != "" {
		if g, err = loadSchema(*schemaFile); err != nil {
			return err
		}
		if err := g.ValidateDocument(d); err != nil {
			fmt.Fprintln(os.Stderr, "warning: document does not conform to schema:", err)
		}
	}
	ans, err := eng.Answer(ctx, engine.Request{Query: q, View: v, Schema: g, Document: d})
	if errors.Is(err, engine.ErrNotAnswerable) {
		return fmt.Errorf("query is not answerable using the view")
	}
	if err != nil {
		return err
	}
	if ans.Result.Partial {
		fmt.Printf("PARTIAL (%s): answers come from a sound but possibly non-maximal rewriting\n", ans.Result.PartialReason)
	}
	fmt.Printf("materialized view: %d nodes\n", len(ans.ViewNodes))
	fmt.Printf("plan: %d program(s)\n", ans.Plan.Programs())
	answers := ans.Exec.Nodes()
	fmt.Printf("answers via view (%d):\n", len(answers))
	for _, n := range answers {
		printAnswer(n)
	}
	fmt.Printf("direct evaluation of the query finds %d answers\n", len(ans.Direct))
	return nil
}

func cmdEval(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	qExpr := fs.String("q", "", "query")
	docFile := fs.String("doc", "", "XML document")
	streaming := fs.Bool("stream", false, "evaluate in one SAX pass without loading the document")
	fs.Parse(args)
	if *qExpr == "" || *docFile == "" {
		return fmt.Errorf("-q and -doc are required")
	}
	q, err := qav.ParseQuery(*qExpr)
	if err != nil {
		return err
	}
	if *streaming {
		f, err := os.Open(*docFile)
		if err != nil {
			return err
		}
		defer f.Close()
		answers, err := qav.EvaluateStream(ctx, f, q)
		if err != nil {
			return err
		}
		fmt.Printf("%d answer(s):\n", len(answers))
		for _, a := range answers {
			if a.Text != "" {
				fmt.Printf("  %s  %q\n", a.Path, a.Text)
			} else {
				fmt.Printf("  %s\n", a.Path)
			}
		}
		return nil
	}
	d, err := loadDoc(*docFile)
	if err != nil {
		return err
	}
	answers := q.Evaluate(d)
	fmt.Printf("%d answer(s):\n", len(answers))
	for _, n := range answers {
		printAnswer(n)
	}
	return nil
}

func printAnswer(n *qav.Node) {
	if n.Text != "" {
		fmt.Printf("  %s  %q\n", n.Path(), n.Text)
	} else {
		fmt.Printf("  %s\n", n.Path())
	}
}

func cmdContain(ctx context.Context, eng *engine.Engine, args []string) error {
	fs := flag.NewFlagSet("contain", flag.ExitOnError)
	pExpr := fs.String("p", "", "candidate contained query")
	qExpr := fs.String("q", "", "containing query")
	schemaFile := fs.String("schema", "", "optional schema file")
	fs.Parse(args)
	if *pExpr == "" || *qExpr == "" {
		return fmt.Errorf("-p and -q are required")
	}
	p, err := qav.ParseQuery(*pExpr)
	if err != nil {
		return err
	}
	q, err := qav.ParseQuery(*qExpr)
	if err != nil {
		return err
	}
	var g *schema.Graph
	if *schemaFile != "" {
		if g, err = loadSchema(*schemaFile); err != nil {
			return err
		}
	}
	pInQ, qInP, err := eng.Contain(ctx, p, q, g)
	if err != nil {
		return err
	}
	rel := "⊆"
	if g != nil {
		rel = "⊆_S"
	}
	fmt.Printf("%s %s %s : %v\n", p, rel, q, pInQ)
	fmt.Printf("%s %s %s : %v\n", q, rel, p, qInP)
	return nil
}

func cmdConstraints(eng *engine.Engine, args []string) error {
	fs := flag.NewFlagSet("constraints", flag.ExitOnError)
	schemaFile := fs.String("schema", "", "schema file")
	fs.Parse(args)
	if *schemaFile == "" {
		return fmt.Errorf("-schema is required")
	}
	s, err := loadSchema(*schemaFile)
	if err != nil {
		return err
	}
	sigma := eng.SchemaContext(s).Sigma
	fmt.Printf("%d constraint(s) implied by the schema:\n%s\n", sigma.Len(), sigma)
	return nil
}

func cmdChase(ctx context.Context, eng *engine.Engine, args []string) error {
	fs := flag.NewFlagSet("chase", flag.ExitOnError)
	vExpr := fs.String("v", "", "view to chase")
	qExpr := fs.String("q", "", "query guiding the intelligent chase (omit for exhaustive)")
	schemaFile := fs.String("schema", "", "schema file")
	fs.Parse(args)
	if *vExpr == "" || *schemaFile == "" {
		return fmt.Errorf("-v and -schema are required")
	}
	v, err := tpq.Parse(*vExpr)
	if err != nil {
		return err
	}
	s, err := loadSchema(*schemaFile)
	if err != nil {
		return err
	}
	var q *tpq.Pattern
	if *qExpr != "" {
		if q, err = tpq.Parse(*qExpr); err != nil {
			return err
		}
	}
	out, err := eng.Chase(ctx, v, q, s)
	if err != nil {
		return err
	}
	kind := "exhaustive"
	if q != nil {
		kind = "intelligent"
	}
	fmt.Printf("%s chase (%d nodes): %s\n", kind, out.Size(), out)
	return nil
}

// cmdShip materializes a view over a source document and serializes the
// result forest — the artifact an autonomous source exports.
func cmdShip(args []string) error {
	fs := flag.NewFlagSet("ship", flag.ExitOnError)
	vExpr := fs.String("v", "", "view to materialize")
	docFile := fs.String("doc", "", "source XML document")
	outFile := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *vExpr == "" || *docFile == "" {
		return fmt.Errorf("-v and -doc are required")
	}
	v, err := qav.ParseQuery(*vExpr)
	if err != nil {
		return err
	}
	d, err := loadDoc(*docFile)
	if err != nil {
		return err
	}
	m := qav.ShipView(v, d)
	out := os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := m.Write(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "shipped %d tree(s), %d node(s)\n", len(m.Forest), m.Size())
	return nil
}

// cmdMediate answers a query at the mediator using only a shipped
// materialized view: the file's forest is registered with the engine,
// the maximal contained rewriting of the query using the recorded view
// expression is computed, and its compensations run over the stored
// forest.
func cmdMediate(ctx context.Context, eng *engine.Engine, args []string) error {
	fs := flag.NewFlagSet("mediate", flag.ExitOnError)
	qExpr := fs.String("q", "", "query")
	viewFile := fs.String("view", "", "shipped view file (from qavcli ship)")
	fs.Parse(args)
	if *qExpr == "" || *viewFile == "" {
		return fmt.Errorf("-q and -view are required")
	}
	q, err := qav.ParseQuery(*qExpr)
	if err != nil {
		return err
	}
	f, err := os.Open(*viewFile)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := qav.ReadShippedView(f)
	if err != nil {
		return err
	}
	fmt.Printf("stored view %s: %d tree(s)\n", m.Expr, len(m.Forest))
	eng.RegisterView(*viewFile, m)
	sa, err := eng.Answer(ctx, engine.Request{Query: q, ViewName: *viewFile})
	if errors.Is(err, engine.ErrNotAnswerable) {
		return fmt.Errorf("query is not answerable using the stored view")
	}
	if err != nil {
		return err
	}
	if sa.Result.Partial {
		fmt.Printf("PARTIAL (%s): sound but possibly non-maximal rewriting\n", sa.Result.PartialReason)
	}
	fmt.Println("rewriting:", sa.Result.Union)
	fmt.Printf("plan: %d program(s)\n", sa.Plan.Programs())
	answers := sa.Exec.Nodes()
	fmt.Printf("answers (%d):\n", len(answers))
	for _, n := range answers {
		printAnswer(n)
	}
	return nil
}

// cmdSelect picks views to materialize for a workload file (one XPath
// query per line, optionally prefixed "WEIGHT<TAB>").
func cmdSelect(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	workloadFile := fs.String("workload", "", "file with one query per line (optional 'weight<TAB>query')")
	k := fs.Int("k", 3, "maximum number of views to select")
	fs.Parse(args)
	if *workloadFile == "" {
		return fmt.Errorf("-workload is required")
	}
	raw, err := os.ReadFile(*workloadFile)
	if err != nil {
		return err
	}
	var w qav.ViewWorkload
	for lineNo, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		weight := 1.0
		expr := line
		if pre, rest, ok := strings.Cut(line, "\t"); ok {
			if f, err := strconv.ParseFloat(strings.TrimSpace(pre), 64); err == nil {
				weight, expr = f, strings.TrimSpace(rest)
			}
		}
		q, err := qav.ParseQuery(expr)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		w.Queries = append(w.Queries, q)
		w.Weights = append(w.Weights, weight)
	}
	if len(w.Queries) == 0 {
		return fmt.Errorf("empty workload")
	}
	cands := qav.CandidateViews(w.Queries)
	fmt.Printf("%d queries, %d candidate views, budget %d\n", len(w.Queries), len(cands), *k)
	sel, err := qav.SelectViews(ctx, w, cands, *k)
	if err != nil {
		return err
	}
	fmt.Printf("selected %d view(s), score %.1f:\n", len(sel.Views), sel.Score)
	for _, v := range sel.Views {
		fmt.Printf("  materialize %s\n", v)
	}
	labels := map[int]string{0: "uncovered", 1: "partial", 2: "exact"}
	for i, q := range w.Queries {
		fmt.Printf("  query %-40s %s\n", q.String(), labels[int(sel.PerQuery[i])])
	}
	return nil
}
