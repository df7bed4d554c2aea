// Package pathquery is the public API of this repository: a complete Go
// implementation of extended conjunctive regular path queries (ECRPQs)
// from Barceló, Libkin, Lin and Wood, "Expressive Languages for Path
// Queries over Graph-Structured Data" (PODS 2010 / ACM TODS 37(4), 2012).
//
// The package re-exports the building blocks a downstream user needs:
//
//   - Graph databases: Graph, Node, Path (Σ-labeled directed graphs).
//   - Queries: Query, parsed from text (ParseQuery) or built fluently
//     (NewQuery); CRPQs are the unary-relation special case.
//   - Regular relations on path labels: Relation, with the paper's
//     library (Equality, EqualLength, Prefix, EditDistance, …) and
//     arbitrary tuple regular expressions (TupleRegex).
//   - Evaluation: Prepare/Prepared (plan once, then Eval or Stream
//     concurrently with context cancellation and limits), Eval (the
//     one-shot Section 5 convolution construction, compiled per call),
//     Member (the ECRPQ-EVAL decision problem of Section 6),
//     PathAutomaton (Proposition 5.2 answer representation).
//   - Extensions: the length abstraction Q_len (Section 6.3), linear
//     constraints on label occurrences and path lengths (Section 8.2),
//     the negation fragment ECRPQ¬ (Section 8.1, package
//     internal/neg), and containment checking (Section 7).
//
// Every evaluation entry point takes one Snapshotter, the snapshot the
// question is answered on: pass the Graph to read its current epoch, or
// a Snapshot pinned earlier to answer at that epoch while writers move
// the store on.
//
// A minimal session:
//
//	g := pathquery.NewGraph()
//	u, v, w := g.AddNode("u"), g.AddNode("v"), g.AddNode("w")
//	g.AddEdge(u, 'a', v)
//	g.AddEdge(v, 'b', w)
//	q, _ := pathquery.ParseQuery(
//		"Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)",
//		pathquery.Env{Sigma: []rune{'a', 'b'}})
//	res, _ := pathquery.Eval(q, g, pathquery.Options{})
//	for _, ans := range res.Answers { ... }
package pathquery

import (
	"context"
	"iter"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/qerr"
	"repro/internal/regex"
	"repro/internal/relations"
)

// The typed failure taxonomy (see internal/qerr): every non-bug way an
// evaluation or the serving layer can fail has one sentinel, and every
// layer of the stack returns errors.Is-able errors against them.
// Deadline and cancellation failures additionally match the underlying
// context error (context.DeadlineExceeded / context.Canceled).
var (
	// ErrBudgetExceeded: evaluation exceeded Options.MaxProductStates.
	ErrBudgetExceeded = qerr.ErrBudgetExceeded
	// ErrDeadline: the context deadline expired mid-evaluation.
	ErrDeadline = qerr.ErrDeadline
	// ErrCanceled: the context was canceled mid-evaluation.
	ErrCanceled = qerr.ErrCanceled
	// ErrOverloaded: a serving layer refused the request at admission
	// (queue full, concurrency cap, draining).
	ErrOverloaded = qerr.ErrOverloaded
	// ErrStale: a degraded read found no cached result within the
	// permitted epoch lag.
	ErrStale = qerr.ErrStale
)

// Core data model.
type (
	// Graph is a Σ-labeled graph database (Section 2 of the paper). The
	// store is epoch-versioned: mutations are serialized and advance a
	// monotonic epoch, and Snapshot() returns an immutable epoch-stamped
	// view that evaluation reads — so queries can be served concurrently
	// with writes (see Snapshot).
	Graph = graph.DB
	// Snapshot is an immutable, epoch-stamped view of a Graph: the last
	// compacted CSR index plus a delta overlay of the writes since. A
	// pinned Snapshot never changes, so an evaluation passed one is fully
	// isolated from concurrent AddEdge/AddNode traffic, and a snapshot
	// taken right after a write costs O(Δ) in the number of writes since
	// the last compaction, not a full index rebuild.
	Snapshot = graph.Snapshot
	// Snapshotter is what every evaluation entry point takes: a *Graph
	// (its current snapshot) or a *Snapshot (itself).
	Snapshotter = graph.Snapshotter
	// Node identifies a graph node.
	Node = graph.Node
	// Path is a path v₀a₀v₁⋯ with its label λ(ρ).
	Path = graph.Path
	// Query is an ECRPQ (Definition 3.1).
	Query = ecrpq.Query
	// NodeVar and PathVar are query variables.
	NodeVar = ecrpq.NodeVar
	// PathVar is a path variable.
	PathVar = ecrpq.PathVar
	// Env supplies alphabet and named relations to the query parser.
	Env = ecrpq.Env
	// Options tune evaluation.
	Options = ecrpq.Options
	// StreamOptions tune streaming evaluation (Options plus Limit).
	StreamOptions = ecrpq.StreamOptions
	// Result is a query result with answers and path-automaton access.
	Result = ecrpq.Result
	// Answer is one output tuple (nodes, witness paths).
	Answer = ecrpq.Answer
	// Relation is an n-ary regular relation over path labels.
	Relation = relations.Relation
	// PathAutomaton is the Proposition 5.2 representation of all path
	// answers.
	PathAutomaton = ecrpq.PathAutomaton
	// Builder assembles queries fluently.
	Builder = ecrpq.Builder
)

// Bot is the padding symbol ⊥ (written "_" in textual regexes).
const Bot = regex.Bot

// NewGraph returns an empty graph database.
func NewGraph() *Graph { return graph.NewDB() }

// ParseQuery parses the textual ECRPQ syntax; see ecrpq.Parse.
func ParseQuery(src string, env Env) (*Query, error) { return ecrpq.Parse(src, env) }

// NewQuery starts a fluent query builder.
func NewQuery() *Builder { return ecrpq.NewBuilder() }

// Eval evaluates an ECRPQ by the convolution construction of Section 5
// over the snapshot g yields. It is a compile-per-call convenience over
// the plan/execute split: the query is compiled afresh and run to
// completion. For repeated evaluation, deadlines, or streaming, Prepare
// once and hold the Prepared.
func Eval(q *Query, g Snapshotter, opts Options) (*Result, error) { return ecrpq.Eval(q, g, opts) }

// Prepared is a compiled query — the public face of the plan/execute
// split. Prepare once, then Eval or Stream any number of times, against
// any graph, from any number of goroutines: the component
// decomposition, joint relation automata and join strategy are compiled
// once and shared; only graph-dependent work is paid per call.
type Prepared struct {
	plan *plan.Plan
}

// Prepare compiles q against env into a reusable Prepared query. The
// query must not be mutated while the Prepared is in use.
func Prepare(q *Query, env Env) (*Prepared, error) {
	p, err := plan.Compile(q, env)
	if err != nil {
		return nil, err
	}
	return &Prepared{plan: p}, nil
}

// Eval runs the prepared query to completion over the snapshot g
// yields, materializing the full sorted answer set — identical
// semantics to the package-level Eval — with a background context.
func (p *Prepared) Eval(g Snapshotter, opts Options) (*Result, error) {
	return p.EvalContext(context.Background(), g, opts)
}

// EvalContext is Eval with cancellation: ctx is checked inside the
// product BFS and the joins, so a deadline or cancel aborts promptly
// with ctx.Err(). The execution reads only the one snapshot g yields,
// so it is fully isolated from concurrent writers — the mixed
// read/write serving shape is
//
//	s := g.Snapshot()          // O(Δ) after a write, cached per epoch
//	res, err := p.EvalContext(ctx, s, opts)
//
// and repeated evaluations against the same snapshot (unchanged epoch)
// keep the per-epoch move-plan memos warm.
func (p *Prepared) EvalContext(ctx context.Context, g Snapshotter, opts Options) (*Result, error) {
	return p.plan.EvalSnapshot(ctx, g.Snapshot(), opts)
}

// Stream runs the prepared query over the snapshot g yields and yields
// answers incrementally, in discovery order: each distinct node tuple is
// yielded once with the first witness found (not necessarily the
// shortest — Eval refines duplicates, a stream cannot). opts.Limit
// stops the execution — not just the iteration — after that many
// answers, and ctx cancellation is honored mid-BFS. Breaking out of
// the range loop tears the execution down cleanly. Answers keep flowing
// from that one snapshot while writers mutate the store underneath.
func (p *Prepared) Stream(ctx context.Context, g Snapshotter, opts StreamOptions) iter.Seq2[Answer, error] {
	return p.plan.StreamSnapshot(ctx, g.Snapshot(), opts)
}

// Explain describes the compiled plan: component decomposition and join
// strategy.
func (p *Prepared) Explain() string { return p.plan.Explain() }

// Cache is an epoch-keyed, memory-bounded result cache with
// single-flight admission (see internal/qcache): entries are keyed on
// (compiled program, snapshot source+epoch, canonicalized options), so
// a hit is always byte-identical to re-evaluating against the same
// snapshot, concurrent identical queries at one epoch pay a single
// product BFS, stale epochs are dropped as the store advances, and an
// LRU keeps the total cached bytes under the configured budget. One
// Cache may be shared by any number of Prepared queries and graphs.
type Cache = qcache.Cache

// CacheStats is the counter snapshot returned by Cache.Stats.
type CacheStats = qcache.Stats

// NewCache returns a result cache bounded to maxBytes of cached
// answers.
func NewCache(maxBytes int64) *Cache { return qcache.New(maxBytes) }

// Cached wraps the prepared query with a result cache: the returned
// handle evaluates exactly like the Prepared it wraps, except that
// repeated evaluations with the same options at an unchanged snapshot
// epoch are served from c (and concurrent identical evaluations are
// deduplicated to one). Results served through the wrapper are shared
// between callers and must be treated as immutable. A nil cache
// returns a pass-through wrapper.
func (p *Prepared) Cached(c *Cache) *CachedPrepared {
	return &CachedPrepared{p: p, c: c}
}

// CachedPrepared is a Prepared query bound to a result cache; obtain
// one from Prepared.Cached.
type CachedPrepared struct {
	p *Prepared
	c *Cache
}

// Eval is Prepared.Eval through the cache, with a background context.
func (cp *CachedPrepared) Eval(g Snapshotter, opts Options) (*Result, error) {
	return cp.EvalContext(context.Background(), g, opts)
}

// EvalContext is Prepared.EvalContext through the cache: the serving
// path for mixed read/write traffic —
//
//	s := g.Snapshot()
//	res, err := cp.EvalContext(ctx, s, opts)
//
// pays one product BFS per (query, options, epoch) no matter how many
// goroutines ask. A caller that joins another caller's in-flight
// evaluation honors its own ctx while waiting; the underlying
// evaluation runs on the leader's.
func (cp *CachedPrepared) EvalContext(ctx context.Context, g Snapshotter, opts Options) (*Result, error) {
	res, _, err := cp.p.plan.EvalSnapshotCached(ctx, g.Snapshot(), opts, cp.c)
	return res, err
}

// Prepared returns the underlying prepared query (for Stream and
// Explain, which bypass the cache).
func (cp *CachedPrepared) Prepared() *Prepared { return cp.p }

// Stats returns the cache's counters (zero value for a nil cache).
func (cp *CachedPrepared) Stats() CacheStats {
	if cp.c == nil {
		return CacheStats{}
	}
	return cp.c.Stats()
}

// Member decides (v̄, ρ̄) ∈ Q(G) — the ECRPQ-EVAL problem of Section 6 —
// on the one snapshot g yields.
func Member(q *Query, g Snapshotter, nodes []Node, paths []Path, opts Options) (bool, error) {
	return ecrpq.Member(q, g, nodes, paths, opts)
}

// BuildPathAutomaton constructs the Proposition 5.2 answer automaton for
// fixed head-node values over the snapshot g yields, honoring
// opts.MaxProductStates.
func BuildPathAutomaton(q *Query, g Snapshotter, headNodes []Node, opts Options) (*PathAutomaton, error) {
	return ecrpq.BuildPathAutomaton(q, g, headNodes, opts)
}

// Built-in regular relations (Sections 1–4 of the paper).
var (
	// Equality is π₁ = π₂.
	Equality = relations.Equality
	// EqualLength is el(π₁, π₂): |π₁| = |π₂|. Like ShorterLen and
	// ShorterEqLen it is built in class form, over Σ as one class, so its
	// size does not grow with |Σ|; Relation.Expand spells it over labels.
	EqualLength = relations.EqualLength
	// Prefix is π₁ ⪯ π₂.
	Prefix = relations.Prefix
	// ShorterLen is |π₁| < |π₂|, in class form.
	ShorterLen = relations.ShorterLen
	// ShorterEqLen is |π₁| ≤ |π₂|, in class form.
	ShorterEqLen = relations.ShorterEqLen
	// Morphism is the synchronous letter transformation.
	Morphism = relations.Morphism
	// EditDistance is D≤k, the bounded edit distance relation.
	EditDistance = relations.EditDistance
	// RhoIso is the ρ-isomorphism relation of semantic associations.
	RhoIso = relations.RhoIso
)

// TupleRegex builds an n-ary relation from a regular expression over
// tuple symbols, e.g. "(<a,a>|<b,b>)*(<_,a>|<_,b>)*" for prefix.
func TupleRegex(name, src string, arity int) (*Relation, error) {
	node, err := regex.ParseTuple(src, arity)
	if err != nil {
		return nil, err
	}
	return relations.FromTupleRegex(name, node, arity), nil
}

// LangRegex builds a unary relation (a regular language) from a regular
// expression over Σ.
func LangRegex(src string) (*Relation, error) {
	node, err := regex.Parse(src)
	if err != nil {
		return nil, err
	}
	return relations.FromLanguage(src, node), nil
}
