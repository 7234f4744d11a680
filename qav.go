package qav

import (
	"context"
	"io"
	"sync"

	"qav/internal/engine"
	"qav/internal/rewrite"
	"qav/internal/schema"
	"qav/internal/stream"
	"qav/internal/tpq"
	"qav/internal/viewselect"
	"qav/internal/viewstore"
	"qav/internal/xmltree"
)

// Pattern is a tree pattern query in XP{/,//,[]}: a tree of tagged
// nodes connected by child (pc) and descendant (ad) edges with one
// distinguished output node.
type Pattern = tpq.Pattern

// PatternNode is a node of a Pattern.
type PatternNode = tpq.Node

// Axis is a pattern edge type: Child ('/') or Descendant ('//').
type Axis = tpq.Axis

// Pattern edge types.
const (
	Child      = tpq.Child
	Descendant = tpq.Descendant
)

// Union is a union of tree patterns (the shape of schemaless MCRs).
type Union = tpq.Union

// Document is an XML database: a rooted labeled tree.
type Document = xmltree.Document

// Node is an element node of a Document.
type Node = xmltree.Node

// Schema is a schema graph: one node per element tag, edges labeled by
// the quantifiers 1, +, ?, *.
type Schema = schema.Graph

// ContainedRewriting is one contained rewriting R ≡ E ∘ V, carrying
// the rewriting pattern, the compensation query E, and the useful
// embedding that induced it.
type ContainedRewriting = rewrite.ContainedRewriting

// Result is the outcome of MCR generation: the irredundant union of
// contained rewritings with their compensations.
type Result = rewrite.Result

// Options bounds MCR generation (the schemaless MCR can be a union of
// exponentially many patterns).
type Options = rewrite.Options

// New constructs a single-node pattern rooted at tag with the given
// axis. The root starts as the output node; build the tree with
// PatternNode.AddChild and move the output with Pattern.SetOutput.
func New(axis Axis, tag string) *Pattern { return tpq.New(axis, tag) }

// ParseQuery parses an XPath expression in XP{/,//,[]} into a Pattern,
// e.g. "//Auction[//item]//name". The final step of the main path is
// the distinguished (answer) node.
func ParseQuery(expr string) (*Pattern, error) { return tpq.Parse(expr) }

// MustParseQuery is ParseQuery panicking on error.
func MustParseQuery(expr string) *Pattern { return tpq.MustParse(expr) }

// ParseDocument reads an XML document.
func ParseDocument(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// ParseDocumentString reads an XML document from a string.
func ParseDocumentString(s string) (*Document, error) { return xmltree.ParseString(s) }

// ParseSchema reads a schema graph from the textual DSL:
//
//	root Auctions
//	Auctions -> Auction*
//	Auction  -> open_auction* closed_auction?
func ParseSchema(src string) (*Schema, error) { return schema.Parse(src) }

// MustParseSchema is ParseSchema panicking on error.
func MustParseSchema(src string) *Schema { return schema.MustParse(src) }

// Contained reports q ⊆ q' over all databases (decided by
// homomorphism, polynomial for this fragment).
func Contained(q, qPrime *Pattern) bool { return tpq.Contained(q, qPrime) }

// Equivalent reports q ≡ q'.
func Equivalent(q, qPrime *Pattern) bool { return tpq.Equivalent(q, qPrime) }

// Answerable reports whether q is answerable using v without a schema,
// i.e. whether a maximal contained rewriting exists. Polynomial time
// (Theorem 2 of the paper).
func Answerable(q, v *Pattern) bool { return rewrite.Answerable(q, v) }

// Engine is the concurrency-safe front door to the whole pipeline: it
// owns the rewrite cache (with singleflight deduplication of concurrent
// identical requests), per-schema constraint contexts, and registered
// materialized views, and threads a context.Context through rewriting
// so callers can cancel exponential enumerations. The HTTP server, the
// CLI, and the benchmarks all run on an Engine; use one directly for
// long-lived embedding.
type Engine = engine.Engine

// EngineConfig bounds an Engine (cache capacity, per-request deadline,
// enumeration budget).
type EngineConfig = engine.Config

// EngineRequest is a parsed request for Engine.Rewrite and
// Engine.Answer.
type EngineRequest = engine.Request

// NewEngine returns an Engine with the given bounds; the zero Config
// picks sensible defaults.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// defaultEngine backs the package-level convenience functions. NoCache
// requests keep their fresh-result semantics: callers may mutate what
// they get back.
var defaultEngine = sync.OnceValue(func() *Engine { return engine.New(engine.Config{}) })

// Rewrite computes the maximal contained rewriting of q using v without
// a schema (Algorithm MCRGen). The result's Union is empty when q is
// not answerable using v.
func Rewrite(q, v *Pattern) (*Result, error) {
	return defaultEngine().Rewrite(context.Background(), engine.Request{Query: q, View: v, NoCache: true})
}

// RewriteWithOptions is Rewrite with an explicit enumeration budget and
// an optional Options.Context for cancellation.
func RewriteWithOptions(q, v *Pattern, opts Options) (*Result, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return defaultEngine().Rewrite(ctx, engine.Request{
		Query: q, View: v, MaxEmbeddings: opts.MaxEmbeddings, NoCache: true,
	})
}

// MaterializeView evaluates v over d, returning the view result nodes
// (whose subtrees form the materialized view).
func MaterializeView(v *Pattern, d *Document) []*Node {
	return rewrite.MaterializeView(v, d)
}

// AnswerUsingView answers a query through its contained rewritings by
// materializing the view once and applying each compensation query to
// the view forest. The result equals evaluating the rewriting union on
// the document directly. The context cancels answering over a large
// materialization.
func AnswerUsingView(ctx context.Context, crs []*ContainedRewriting, v *Pattern, d *Document) ([]*Node, error) {
	return rewrite.AnswerUsingView(ctx, crs, v, d)
}

// SchemaRewriter answers queries using views in the presence of a
// schema. Constraint inference runs once at construction (O(|S|³),
// Theorem 5) and is reused across rewritings.
type SchemaRewriter struct {
	sc *rewrite.SchemaContext
}

// NewSchemaRewriter infers the schema's constraints and returns a
// rewriter. Contexts are shared through the package's default engine,
// so constructing two rewriters for equal schemas infers once.
func NewSchemaRewriter(s *Schema) *SchemaRewriter {
	return &SchemaRewriter{sc: defaultEngine().SchemaContext(s)}
}

// Answerable reports whether q is answerable using v under the schema
// (Theorem 7), in polynomial time.
func (r *SchemaRewriter) Answerable(q, v *Pattern) bool {
	return r.sc.AnswerableWithSchema(q, v)
}

// Rewrite computes the MCR of q using v under a recursion-free schema
// (Algorithm MCRGenSchema): at most one contained rewriting, in
// polynomial time (Theorems 8 and 9).
func (r *SchemaRewriter) Rewrite(q, v *Pattern) (*Result, error) {
	return r.sc.MCRWithSchema(q, v)
}

// RewriteRecursive computes the MCR of q using v under a possibly
// recursive schema (§5 of the paper); the result may be a union of
// several contained rewritings.
func (r *SchemaRewriter) RewriteRecursive(q, v *Pattern, opts Options) (*Result, error) {
	return r.sc.MCRRecursive(q, v, opts)
}

// Contained reports schema-relative containment q ⊆_S q', decided via
// the chase (Theorem 6).
func (r *SchemaRewriter) Contained(q, qPrime *Pattern) bool {
	return r.sc.SContained(q, qPrime)
}

// Equivalent reports q ≡_S q'.
func (r *SchemaRewriter) Equivalent(q, qPrime *Pattern) bool {
	return r.sc.SEquivalent(q, qPrime)
}

// MaterializedView is a stored view result: the forest of answer
// subtrees a source ships to a mediator, detached from the source
// database.
type MaterializedView = viewstore.Materialized

// ShipView evaluates the view on the source database and extracts the
// result forest — what an autonomous source exports in the paper's
// information-integration scenario.
func ShipView(v *Pattern, d *Document) *MaterializedView {
	return viewstore.Materialize(v, d)
}

// ReadShippedView parses a materialized view previously serialized with
// MaterializedView.Write.
func ReadShippedView(r io.Reader) (*MaterializedView, error) {
	return viewstore.Read(r)
}

// ViewSource names one source's view for multi-view rewriting.
type ViewSource = rewrite.ViewSource

// MultiViewResult is the global MCR over a set of views.
type MultiViewResult = rewrite.MultiViewResult

// RewriteMultiView computes the maximal contained rewriting of q over a
// SET of views: the irredundant union of every view's contained
// rewritings — the full information-integration setting, where each
// autonomous source exposes one view.
func RewriteMultiView(q *Pattern, views []ViewSource, opts Options) (*MultiViewResult, error) {
	return rewrite.MCRMultiView(q, views, opts)
}

// StreamAnswer identifies one answer from streaming evaluation.
type StreamAnswer = stream.Answer

// EvaluateStream runs a pattern over an XML byte stream in a single
// SAX-style pass, without materializing the document: memory is
// proportional to document depth, not size. Answer indexes agree with
// the in-memory parser's preorder node indexes. The context is polled
// as the stream is consumed, so evaluation over an unbounded input can
// be cancelled.
func EvaluateStream(ctx context.Context, r io.Reader, p *Pattern) ([]StreamAnswer, error) {
	return stream.Evaluate(ctx, r, p)
}

// ViewWorkload is a weighted set of queries used for view selection.
type ViewWorkload = viewselect.Workload

// ViewSelection is the outcome of greedy view selection.
type ViewSelection = viewselect.Selection

// CandidateViews derives candidate views from a query workload (path
// prefixes and re-distinguished queries).
func CandidateViews(queries []*Pattern) []*Pattern {
	return viewselect.Candidates(queries)
}

// SelectViews greedily picks up to k views to materialize for the
// workload, preferring views that answer queries equivalently over
// merely-contained coverage. Selection runs one rewriting check per
// (query, candidate) pair, so the context bounds a large workload.
func SelectViews(ctx context.Context, w ViewWorkload, candidates []*Pattern, k int) (*ViewSelection, error) {
	return viewselect.Greedy(ctx, w, candidates, k)
}

// Minimize returns the unique minimal pattern equivalent to p
// (Amer-Yahia-style branch elimination). The input is not modified.
func Minimize(p *Pattern) *Pattern { return tpq.Minimize(p) }

// Compose builds the rewriting query E ∘ V from a compensation query E
// (rooted at the view output's tag) and a view V.
func Compose(e, v *Pattern) (*Pattern, error) { return tpq.Compose(e, v) }

// Counterexample returns a witness database separating q from q' when
// q ⊄ q': a document D and a node in q(D) \ q'(D). ok is false when
// the containment holds (or the patterns contain wildcards).
func Counterexample(q, qPrime *Pattern) (d *Document, witness *Node, ok bool) {
	return tpq.Counterexample(q, qPrime)
}

// EquivalentRewriting decides the classical QAV formulation: is there a
// compensation E with E ∘ V ≡ Q? Returns the rewriting if so.
func EquivalentRewriting(q, v *Pattern, opts Options) (*ContainedRewriting, bool, error) {
	return rewrite.EquivalentRewriting(q, v, opts)
}

// EquivalentRewriting is the schema-relative version of the package
// function: E ∘ V ≡_S Q.
func (r *SchemaRewriter) EquivalentRewriting(q, v *Pattern, opts Options) (*ContainedRewriting, bool, error) {
	return r.sc.EquivalentRewriting(q, v, opts)
}
