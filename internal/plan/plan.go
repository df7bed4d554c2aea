// Package plan is the planning layer of the plan/execute split: it
// turns an ECRPQ into a reusable, concurrency-safe Plan that can be
// executed any number of times, against any graph, by any number of
// goroutines.
//
// Compile performs everything that depends only on the query — the
// component decomposition of the relation hypergraph, the joint
// relation automata (Section 5's convolution construction, compiled to
// dense-integer runners with persistent transition memos), and the join
// strategy (GYO acyclicity test backing the Yannakakis algorithm of
// Theorem 6.5). Execution then only pays for graph-dependent work.
//
// The executor lives in internal/ecrpq (Program); a Plan wraps it with
// environment validation and introspection. The public surface is
// pathquery.Prepare.
package plan

import (
	"context"
	"fmt"
	"iter"
	"strings"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/qcache"
	"repro/internal/qerr"
	"repro/internal/regex"
)

// Plan is a compiled query. It is immutable and safe for concurrent
// use; the underlying query must not be mutated while the plan is in
// use.
type Plan struct {
	// Query is the compiled query (treat as read-only).
	Query *ecrpq.Query

	prog *ecrpq.Program
}

// Compile compiles q against env into an executable Plan. The env's
// alphabet, when non-empty, is checked against the letters actually
// used by the query's relation automata, catching the common mistake of
// preparing a query against the wrong environment.
func Compile(q *ecrpq.Query, env ecrpq.Env) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(env.Sigma) > 0 {
		if err := checkAlphabet(q, env.Sigma); err != nil {
			return nil, err
		}
	}
	prog, err := ecrpq.CompileProgram(q, false)
	if err != nil {
		return nil, err
	}
	return &Plan{Query: q, prog: prog}, nil
}

// checkAlphabet verifies that every letter of every relation automaton
// belongs to sigma (⊥ aside).
func checkAlphabet(q *ecrpq.Query, sigma []rune) error {
	in := map[rune]bool{}
	for _, r := range sigma {
		in[r] = true
	}
	for _, ra := range q.RelAtoms {
		if ra.Rel == nil || ra.Rel.A == nil {
			continue
		}
		var bad error
		ra.Rel.A.EachSymbol(func(sym string) {
			for _, r := range sym {
				if bad == nil && r != regex.Bot && !in[r] {
					bad = fmt.Errorf("plan: relation %s uses letter %q outside the environment alphabet %q",
						ra.Rel.Name, r, string(sigma))
				}
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

// EvalSnapshot executes the plan against a pinned immutable snapshot:
// the whole execution reads s and never the live DB, so it is isolated
// from concurrent writers, and re-evaluations against the same
// snapshot (unchanged epoch) keep the per-epoch move-plan memos warm.
func (p *Plan) EvalSnapshot(ctx context.Context, s *graph.Snapshot, opts ecrpq.Options) (*ecrpq.Result, error) {
	return p.prog.Eval(ctx, s, opts)
}

// EvalSnapshotCached is EvalSnapshot through an epoch-keyed result
// cache: the cache key is the plan's compiled program (immutable, so
// pointer identity is a sound fingerprint), the snapshot's
// (Source, Epoch) content identity, and the canonicalized options.
// Concurrent identical calls are deduplicated to one evaluation by the
// cache's single-flight admission, and entries of epochs the store has
// moved past are dropped as newer snapshots are served.
//
// The bool reports whether the result was served from cached data —
// an exact-epoch hit, another caller's in-flight evaluation, a
// label-disjoint revalidation or a semi-naive delta pass — rather than
// a from-scratch evaluation of this call's own. Cached results are
// shared: callers must treat the Result as immutable. A nil cache
// degrades to a plain EvalSnapshot.
//
// On an epoch-stale lookup the leader first asks the program to
// Advance the freshest prior-epoch entry of the same (program, store,
// options) group: a delta provably disjoint from the program's live
// labels re-stamps the old result for free, and an edge-only delta on
// a memo-carrying entry re-runs the product BFS only for the affected
// start assignments. Either way the derived result is admitted at the
// new epoch under the same single-flight leadership a full evaluation
// would have, and qcache.Stats splits the serve kinds out.
func (p *Plan) EvalSnapshotCached(ctx context.Context, s *graph.Snapshot, opts ecrpq.Options, c *qcache.Cache) (*ecrpq.Result, bool, error) {
	if c == nil {
		res, err := p.prog.Eval(ctx, s, opts)
		return res, false, err
	}
	k := qcache.Key{Prog: p.prog, Source: s.Source(), Epoch: s.Epoch(), Opts: opts.CacheKey()}
	v, served, err := c.DoServe(ctx, k, func() (any, int64, qcache.Served, error) {
		if pv, _, ok := c.Prev(k); ok {
			if prev, isRes := pv.(*ecrpq.Result); isRes {
				res, kind, aerr := p.prog.Advance(ctx, prev, s, opts)
				if aerr != nil {
					return nil, 0, qcache.ServedCompute, aerr
				}
				switch kind {
				case ecrpq.AdvanceRevalidated:
					return res, res.SizeBytes(), qcache.ServedRevalidated, nil
				case ecrpq.AdvanceIncremental:
					return res, res.SizeBytes(), qcache.ServedIncremental, nil
				}
			}
		}
		res, err := p.prog.EvalSnapshotMemo(ctx, s, opts)
		if err != nil {
			return nil, 0, qcache.ServedCompute, err
		}
		return res, res.SizeBytes(), qcache.ServedCompute, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*ecrpq.Result), served != qcache.ServedCompute, nil
}

// CacheKeyFor returns the result-cache key this plan uses for an
// evaluation against s with opts — the hook for degraded lookups
// (Cache.Stale) and cache introspection outside the Do path.
func (p *Plan) CacheKeyFor(s *graph.Snapshot, opts ecrpq.Options) qcache.Key {
	return qcache.Key{Prog: p.prog, Source: s.Source(), Epoch: s.Epoch(), Opts: opts.CacheKey()}
}

// StaleSnapshot is the degraded serving path: it returns the freshest
// cached result for this plan's (options, store) at an epoch within
// maxLag of s's epoch, without evaluating anything — the bounded-lag
// answer an overloaded server prefers over a failure. The uint64 is
// the served result's epoch lag (0 = exact epoch). When the cache is
// nil or holds nothing within the window, the error is qerr.ErrStale.
// The cache must have a stale lag configured (Cache.SetStaleLag) for
// within-lag entries to survive epoch advances at all.
func (p *Plan) StaleSnapshot(s *graph.Snapshot, opts ecrpq.Options, c *qcache.Cache, maxLag uint64) (*ecrpq.Result, uint64, error) {
	if c == nil {
		return nil, 0, qerr.ErrStale
	}
	v, lag, err := c.Stale(p.CacheKeyFor(s, opts), maxLag)
	if err != nil {
		return nil, lag, err
	}
	return v.(*ecrpq.Result), lag, nil
}

// StreamSnapshot executes the plan against a pinned immutable
// snapshot, yielding answers incrementally; see ecrpq.Program.Stream
// for the exact semantics (unsorted, first witness per node tuple,
// Limit and ctx honored inside the product BFS).
func (p *Plan) StreamSnapshot(ctx context.Context, s *graph.Snapshot, opts ecrpq.StreamOptions) iter.Seq2[ecrpq.Answer, error] {
	return p.prog.Stream(ctx, s, opts)
}

// NumComponents returns the number of independently evaluated
// components of the relation hypergraph.
func (p *Plan) NumComponents() int { return p.prog.NumComponents() }

// Acyclic reports whether the component join hypergraph is α-acyclic,
// i.e. whether the default join strategy is Yannakakis semijoins.
func (p *Plan) Acyclic() bool { return p.prog.JoinAcyclic() }

// Explain renders a human-readable description of the compiled plan:
// the component decomposition, each component's start-state live labels
// (the selectivity the label-directed product BFS exploits), the static
// start-domain propagation rules that confine its start variables when
// an evaluation binds a variable upstream, how much of its relation the
// head and the joins make it enumerate (ComponentInfo.Rows), and the
// join strategy.
func (p *Plan) Explain() string {
	var b strings.Builder
	comps := p.prog.Components()
	fmt.Fprintf(&b, "plan: %d component(s)", len(comps))
	if len(comps) > 1 {
		b.WriteString(", evaluated concurrently")
	}
	b.WriteString("\n")
	for i, c := range comps {
		fmt.Fprintf(&b, "  component %d: paths(", i)
		for j, v := range c.PathVars {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(string(v))
		}
		b.WriteString(") nodes(")
		for j, v := range c.NodeVars {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(string(v))
		}
		b.WriteString(") live(")
		for j, v := range c.PathVars {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s:%s", v, c.LiveStart[j])
		}
		b.WriteString(")\n")
		for _, rule := range c.Propagation {
			fmt.Fprintf(&b, "    start domain: %s\n", rule)
		}
		fmt.Fprintf(&b, "    rows: %s\n", c.Rows)
	}
	if p.prog.JoinAcyclic() {
		b.WriteString("  join: acyclic hypergraph — Yannakakis semijoins (Theorem 6.5)\n")
	} else {
		b.WriteString("  join: cyclic hypergraph — backtracking with hash indexes\n")
	}
	return b.String()
}
