package ecrpq

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/qerr"
	"repro/internal/regex"
	"repro/internal/relations"
)

// Program is the compiled, executable form of a query — the "plan" half
// of the plan/execute split. Compilation performs everything that does
// not depend on a graph or on per-call options:
//
//   - the component decomposition of the relation hypergraph,
//   - the joint relation automaton of each component (relations.Joint)
//     and its minimal class table (relations.ClassDFA), which every
//     pruning execution reads without a lock,
//   - the GYO reduction of the component join hypergraph (acyclicity and
//     elimination order, backing the Yannakakis strategy of Theorem 6.5),
//   - a warm workspace (workspace.go): one engine per component, and the
//     scratch every execution reuses.
//
// A Program is immutable after compilation and safe for concurrent use:
// each execution borrows one workspace from an internal pool (building a
// fresh one when the pool is empty), so any number of goroutines may Eval
// or Stream the same Program against the same or different graphs. The
// tables, and the lazy runners' transition memos and flat rows an engine
// keeps for NoPrune executions, are over the component's label classes
// and therefore valid across graphs; everything graph- or bind-dependent
// is refreshed per execution by componentEngine.reset.
//
// A caller that asks one question repeatedly compiles it once and holds
// the Program; ecrpq.Eval compiles a fresh one per call.
type Program struct {
	q *Query

	// Copies of the query's relation atoms and head, taken at compile
	// time. Execution reads these copies, never q: the query was
	// validated once, by CompileProgram, and an evaluation validates
	// nothing again.
	relAtoms  []RelAtom
	headNodes []NodeVar
	headPaths []PathVar

	comps []*component
	jp    joinPlan

	// Live-label over-approximation of the whole program (union of the
	// component range sets; see componentLiveRanges) and whether the
	// query is eligible for the semi-naive delta pass: node-tuple
	// answers are monotone in the edge relation, but kept shortest
	// witnesses are not, so only queries without head path variables
	// capture rows; the others capture reached-node sets only.
	liveRanges    []regex.Range
	liveUniversal bool
	incCapable    bool

	pool idlePool[workspace]

	// prop lists the path atoms the start-domain pass can fire, in atom
	// order (see domains.go); their one-tape engines are built lazily.
	prop []*propAtom
}

// idlePool holds the idle workspaces of a Program (or the idle engines of
// one atom of the start-domain pass).
type idlePool[E any] struct {
	mu   sync.Mutex
	free []*E
}

// maxPooledIdle bounds the idle objects kept per pool; beyond it those
// returned from bursts of concurrency are dropped.
const maxPooledIdle = 8

// take pops an idle object, or returns nil when there is none.
func (pool *idlePool[E]) take() *E {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	n := len(pool.free)
	if n == 0 {
		return nil
	}
	e := pool.free[n-1]
	pool.free[n-1] = nil
	pool.free = pool.free[:n-1]
	return e
}

func (pool *idlePool[E]) put(e *E) {
	pool.mu.Lock()
	if len(pool.free) < maxPooledIdle {
		pool.free = append(pool.free, e)
	}
	pool.mu.Unlock()
}

// CompileProgram compiles q into an executable Program. With monolithic
// set the component decomposition is disabled and the paper's single
// m-tape product is compiled — the reference the decomposed program is
// tested against. Every component compiles
// against a label-space partition (the class-ID product BFS).
func CompileProgram(q *Query, monolithic bool) (*Program, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	comps, err := decompose(q, monolithic)
	if err != nil {
		return nil, err
	}
	p := &Program{
		q:         q,
		headNodes: append([]NodeVar(nil), q.HeadNodes...),
		headPaths: append([]PathVar(nil), q.HeadPaths...),
		comps:     comps,
		prop:      propagationAtoms(q.PathAtoms),
	}
	p.relAtoms = make([]RelAtom, len(q.RelAtoms))
	for i, ra := range q.RelAtoms {
		p.relAtoms[i] = RelAtom{Rel: ra.Rel, Args: append([]PathVar(nil), ra.Args...)}
	}
	// Mark each component's needed columns — head node variables and the
	// variables another component shares (component.needed) — and the
	// components that keep witnesses over several tapes, and record each
	// component's variable set for the compile-time join plan.
	varSets := make([][]NodeVar, len(comps))
	for i, c := range comps {
		c.witnessTapes = len(c.vars) > 1 && slices.ContainsFunc(c.vars, func(v PathVar) bool { return slices.Contains(q.HeadPaths, v) })
		varSets[i] = c.allVars
		c.needed = make([]bool, len(c.allVars))
		for k, v := range c.allVars {
			c.needed[k] = slices.Contains(q.HeadNodes, v)
			for _, o := range comps {
				if o != c && slices.Contains(o.allVars, v) {
					c.needed[k] = true
				}
			}
		}
	}
	// Warm one workspace, so the first execution pays no engine
	// construction; its buffers grow on first use.
	p.pool.put(newWorkspace(p))
	p.incCapable = len(q.HeadPaths) == 0
	if p.incCapable {
		p.jp = planJoin(varSets, p.headNodes...)
	} else {
		p.jp = planJoin(varSets)
	}
	for _, c := range comps {
		if c.liveUniversal {
			p.liveUniversal = true
		}
		p.liveRanges = regex.UnionRanges(p.liveRanges, c.liveRanges)
	}
	return p, nil
}

// emptyTable reports whether some component's minimal table has no live
// state: that component accepts nothing on any graph, and so neither does
// the query. It builds the tables, as a pruning execution does first.
func (p *Program) emptyTable() bool {
	return slices.ContainsFunc(p.comps, func(c *component) bool {
		d := c.table()
		return d != nil && d.Minimal == 0
	})
}

// NumComponents returns the number of connected components of the
// relation hypergraph the program evaluates (1 when monolithic).
func (p *Program) NumComponents() int { return len(p.comps) }

// JoinAcyclic reports whether the component join hypergraph is
// α-acyclic, i.e. whether the join runs Yannakakis semijoins rather than
// the backtracking enumeration.
func (p *Program) JoinAcyclic() bool { return p.jp.acyclic }

// ComponentInfo describes one compiled component for Explain-style
// introspection.
type ComponentInfo struct {
	PathVars []PathVar
	NodeVars []NodeVar
	// LiveStart renders, per path variable, the labels the
	// label-directed product BFS will consider at the joint start state:
	// "*" when the tape is unconstrained, otherwise the live labels,
	// with "|⊥" appended when the ⊥ stay-move is admissible there. It is
	// a compile-time picture of the query's selectivity.
	LiveStart []string
	// Propagation lists, in firing order, the start-domain rules that
	// confine this component's start variables: "z ⊆ post[a+](x) when x
	// is bound or confined" says an evaluation that binds x (or confines
	// it through an earlier rule) runs the component's product BFS from
	// the nodes x reaches under a+ only, not from every node. Empty when
	// no path atom ends at one of the component's start variables.
	Propagation []string
	// Needed lists the node columns something outside the component
	// reads: head variables and variables shared with another component.
	// The others are existential, and Rows renders what that buys: the
	// stop rule an evaluation without bindings arms ("all", "first per
	// start assignment", "decided by first row") and the rule a binding of
	// the free needed variables would arm instead.
	Needed []NodeVar
	Rows   string
	// Table sizes the component's minimal class table: the joint states
	// the exploration reached and the table's live states, and per path
	// variable the label classes before and after coarsening (the dead
	// class and the dead sink not counted). Nil when the exploration
	// passed its bound and the engines learn the joint lazily.
	Table *TableInfo
}

// TableInfo is ComponentInfo.Table: each pair is (before, after).
type TableInfo struct {
	JointStates [2]int
	Classes     [][2]int
}

// String renders the table for Explain: "joint states 2 → 1; classes
// 32 → 1", one classes pair per path variable; "lazy (exploration passed
// the bound)" for a nil table.
func (t *TableInfo) String() string {
	if t == nil {
		return "lazy (exploration passed the bound)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "joint states %d → %d; classes", t.JointStates[0], t.JointStates[1])
	for i, c := range t.Classes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " %d → %d", c[0], c[1])
	}
	return b.String()
}

func (c *component) tableInfo() *TableInfo {
	d := c.table()
	if d == nil {
		return nil
	}
	t := &TableInfo{JointStates: [2]int{d.Explored, d.Minimal}}
	for _, n := range d.Classes {
		t.Classes = append(t.Classes, [2]int{d.FineClasses, n})
	}
	return t
}

// explainRows renders the component's stop rule for ComponentInfo.Rows.
func (c *component) explainRows(keepsWitness bool) string {
	if keepsWitness {
		return "all, shortest witness each (a head path variable is kept)"
	}
	var needed, unread, ends, starts []string
	for i, v := range c.allVars {
		switch {
		case !c.needed[i]:
			unread = append(unread, string(v))
			continue
		case c.isStart[i]:
			starts = append(starts, string(v))
		default:
			ends = append(ends, string(v))
		}
		needed = append(needed, string(v))
	}
	cols := "needs " + strings.Join(needed, ", ")
	if len(unread) > 0 {
		cols += "; " + strings.Join(unread, ", ") + " unread"
	}
	switch c.stopRuleFor(nil) {
	case stopSweep:
		return "decided by first row"
	case stopRow:
		return fmt.Sprintf("first per start assignment (%s); decided by first row when %s bound", cols, strings.Join(starts, ", "))
	}
	return fmt.Sprintf("all (%s); first per start assignment when %s bound", cols, strings.Join(ends, ", "))
}

// Components describes the compiled component decomposition.
func (p *Program) Components() []ComponentInfo {
	out := make([]ComponentInfo, len(p.comps))
	ws := p.takeWorkspace()
	defer p.putWorkspace(ws)
	for i, c := range p.comps {
		var rules []string
		for _, pa := range p.prop {
			if slices.Contains(c.xvars, pa.atom.Y) {
				rules = append(rules, pa.explain(p.relAtoms))
			}
		}
		e := ws.engines[i]
		// The start state's live sets as the lazy runner over-approximates
		// them, over the partition's classes.
		r := relations.NewJointRunner(c.joint)
		live := r.Live(r.StartID())
		starts := make([]string, len(live))
		for t, ls := range live {
			starts[t] = renderLiveSet(ls, c.part)
		}
		info := ComponentInfo{
			PathVars:    append([]PathVar(nil), c.vars...),
			NodeVars:    append([]NodeVar(nil), c.allVars...),
			LiveStart:   starts,
			Propagation: rules,
			Rows:        c.explainRows(len(e.keptVars) > 0),
			Table:       c.tableInfo(),
		}
		for k, v := range c.allVars {
			if c.needed[k] {
				info.Needed = append(info.Needed, v)
			}
		}
		out[i] = info
	}
	return out
}

// renderLiveSet renders a live set for Explain output. The set's labels
// are class runes, so they are translated back to label ranges via the
// partition ("?" is the wild bucket — every label outside the
// partition's cells); a singleton cell renders as its label.
func renderLiveSet(ls relations.LiveSet, part *regex.Partition) string {
	if ls.All || len(ls.Labels) == 0 {
		return ls.String()
	}
	var b strings.Builder
	for _, c := range ls.Labels {
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		switch {
		case c == part.WildClass():
			b.WriteByte('?')
		case int(c) >= 1 && int(c) <= part.NumCells():
			b.WriteString(regex.FormatLabelRange(part.Cell(c)))
		default:
			b.WriteByte('?')
		}
	}
	if ls.Bot {
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		b.WriteRune('⊥')
	}
	return b.String()
}

// maxPooledScratch bounds the per-state scratch (in elements) a pooled
// workspace may retain in any one buffer; a BFS that ran to millions of
// product states, or a join that materialised millions of rows, must not
// pin its peak buffers for the process lifetime.
const maxPooledScratch = 1 << 16

// Eval runs the program to completion over the snapshot g yields and
// materializes the full answer set: component relations are joined per
// the compile-time join plan, head projections deduplicated keeping
// shortest witnesses, and answers sorted lexicographically (Definition
// 3.1). Cancellation of ctx aborts the product BFS and the joins
// promptly — the failure is classified against the typed taxonomy
// (qerr.ErrDeadline / qerr.ErrCanceled, still errors.Is-able against
// the underlying context error; budget exhaustion is
// qerr.ErrBudgetExceeded). The execution reads only that one snapshot,
// so it is fully isolated from concurrent writers, and repeated calls
// reuse the components' tables (or the lazy runners' memos and flat
// rows), on any snapshot.
func (p *Program) Eval(ctx context.Context, g graph.Snapshotter, opts Options) (*Result, error) {
	return p.evalFull(ctx, g.Snapshot(), opts, false)
}

// EvalSnapshotMemo is Eval on the snapshot s capturing the
// incremental-evaluation memo: the returned Result can seed
// Program.Advance at later epochs. A query without head path variables
// records each start assignment's reached nodes and rows, one with them
// the reached nodes only. The memo can double the result's retained
// footprint (SizeBytes accounts for it); plain Eval skips the capture
// entirely.
func (p *Program) EvalSnapshotMemo(ctx context.Context, s *graph.Snapshot, opts Options) (*Result, error) {
	return p.evalFull(ctx, s, opts, true)
}

func (p *Program) evalFull(ctx context.Context, s *graph.Snapshot, opts Options, capture bool) (*Result, error) {
	ws := p.takeWorkspace()
	defer p.putWorkspace(ws)
	_, memos, err := ws.evalComponents(ctx, s, opts, capture)
	if err != nil {
		return nil, qerr.Classify(err)
	}
	res, err := p.assemble(ctx, ws, s)
	if err != nil {
		return nil, err
	}
	if memos != nil {
		res.inc = &incMemo{optsKey: opts.CacheKey(), nodes: s.NumNodes(), comps: slices.Clone(memos)}
	}
	return res, nil
}

// assemble joins the component relations in ws.rels per the
// compile-time join plan, sorts on the head and projects it — the shared tail
// of full and incremental evaluation. Everything before the answers is
// the workspace's; the Result and its answer slabs are the only storage
// the evaluation allocates for its caller.
//
// The joined relation is already distinct on the head: its columns are
// exactly the distinct head variables (a Yannakakis root is projected
// onto them with a dedup whenever that drops a column, and is a
// duplicate-free component relation or fold otherwise; backtrackJoin
// dedups on them), and a head tuple lists every one of those columns at
// least once, so two rows never map to one answer and no dedup runs here;
// for the same reason the order of the head columns alone (headOrder, a
// radix sort over row indices) is the order of the answers.
// Every answer's Nodes (and Paths) is carved from one exactly-sized
// backing array.
func (p *Program) assemble(ctx context.Context, ws *workspace, s *graph.Snapshot) (*Result, error) {
	joined, err := ws.join.joinAll(ctx, ws.rels, p.jp, p.headNodes)
	if err != nil {
		return nil, qerr.Classify(err)
	}
	res := &Result{Query: p.q, Snap: s, fp: new(fpMemo)}
	if joined.n == 0 {
		return res, nil
	}
	headPos := ws.join.positions(p.headNodes, joined.vars)
	pathPos := carve(&ws.join.ints, len(p.headPaths))
	for i, chi := range p.headPaths {
		pathPos[i] = slices.Index(joined.pvars, chi)
	}
	nh, np := len(headPos), len(pathPos)
	res.Answers = make([]Answer, joined.n)
	// A head without node (path) variables leaves Nodes (Paths) nil.
	var nodes []graph.Node
	if nh > 0 {
		nodes = make([]graph.Node, joined.n*nh)
	}
	var paths []graph.Path
	if np > 0 {
		paths = make([]graph.Path, joined.n*np)
	}
	for i, row := range ws.join.headOrder(joined, headPos) {
		if nh > 0 {
			an := nodes[i*nh : i*nh+nh : i*nh+nh]
			gather(an, joined.row(int(row)), headPos)
			res.Answers[i].Nodes = an
		}
		if np > 0 {
			ap := paths[i*np : i*np+np : i*np+np]
			w := joined.witness(int(row))
			for k, pos := range pathPos {
				ap[k] = w[pos]
			}
			res.Answers[i].Paths = ap
		}
	}
	return res, nil
}
