package ecrpq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/qerr"
	"repro/internal/regex"
	"repro/internal/relations"
)

// Options tune evaluation.
type Options struct {
	// Bind fixes node variables to constants before evaluation; the
	// data-complexity decision problem ECRPQ-EVAL(Q) binds all head
	// variables this way.
	Bind map[NodeVar]graph.Node
	// MaxProductStates bounds the total number of product states explored
	// across all components; evaluation fails with ErrBudget beyond it.
	// Zero means the default of 4,000,000.
	MaxProductStates int
	// NoPrune disables the label-directed move planning of the product
	// BFS (the per-state intersection of the joint runner's live labels
	// with the graph's label runs), falling back to exhaustive
	// enumeration of every out-edge plus the ⊥ stay-move at every
	// coordinate; the runner's dead-subset elimination remains active.
	// It also disables the start-domain propagation pass (domains.go):
	// every unbound start variable sweeps every node again instead of
	// the nodes reachable from the bound variables upstream of it.
	// Answers and witnesses are identical either way; only the cost
	// changes. It is the oracle configuration: the reference the
	// benchmark and the pruned==unpruned property tests compare against.
	NoPrune bool
	// BFSWorkers caps the workers of the start-assignment fan-out: how
	// many start assignments of one component may run their product BFS
	// at once, each on an engine of its own. Zero uses GOMAXPROCS; 1 runs
	// every assignment on the calling goroutine. A single BFS run always
	// runs on one goroutine. Answers, witness paths and
	// Result.Fingerprint are byte-identical at every worker count — only
	// the cost changes.
	BFSWorkers int
}

// CacheKey renders the result-relevant options in a canonical string:
// Bind as sorted (var, node) pairs, then the state budget and the pruning
// switch. Two Options values with equal CacheKeys request the
// same result, so the epoch-keyed result cache uses it as the options
// component of its key (map iteration order and semantically identical
// Bind maps built in different orders hash the same). BFSWorkers is not
// part of it: the result is byte-identical at every worker count.
func (o Options) CacheKey() string {
	vars := make([]string, 0, len(o.Bind))
	for v := range o.Bind {
		vars = append(vars, string(v))
	}
	sort.Strings(vars)
	var b strings.Builder
	b.WriteString("bind:")
	for _, v := range vars {
		fmt.Fprintf(&b, "%s=%d,", v, o.Bind[NodeVar(v)])
	}
	fmt.Fprintf(&b, ";max=%d;noprune=%t", o.MaxProductStates, o.NoPrune)
	return b.String()
}

// ErrBudget is returned when evaluation exceeds MaxProductStates. It
// is the taxonomy sentinel qerr.ErrBudgetExceeded — callers anywhere in
// the stack (plan, qcache, the serving daemon) can errors.Is against
// either name.
var ErrBudget = qerr.ErrBudgetExceeded

// errStopStream is the internal sentinel used by the streaming executor
// to unwind the product BFS and join enumeration when the consumer stops
// early (limit reached or range loop broken). It never escapes to users.
var errStopStream = errors.New("ecrpq: stream stopped")

// stateBudget is the shared product-state budget of one execution,
// decremented atomically so concurrently evaluated components draw from
// the same pool, exactly like the sequential accounting did.
type stateBudget struct{ left atomic.Int64 }

func newStateBudget(max int) *stateBudget {
	b := &stateBudget{}
	b.reset(max)
	return b
}

// reset refills the budget to max states (zero: the default) for a new
// execution.
func (b *stateBudget) reset(max int) {
	if max == 0 {
		max = defaultMaxProductStates
	}
	b.left.Store(int64(max))
}

// spend consumes one product state; false means the budget is exhausted.
func (b *stateBudget) spend() bool { return b.left.Add(-1) >= 0 }

// refund returns n states to the pool: the start-domain pass gives back
// every state it borrowed before the components start (startDomains).
func (b *stateBudget) refund(n int) {
	if n > 0 {
		b.left.Add(int64(n))
	}
}

const defaultMaxProductStates = 4_000_000

// Answer is one tuple in the query output: values for the head node
// variables (in HeadNodes order) and witness paths for the head path
// variables (in HeadPaths order). When the query can return infinitely
// many paths for the same node tuple, Paths holds one shortest witness;
// use Result.PathAutomaton for the full regular set (Proposition 5.2).
//
// Nodes and Paths are read-only views: the answers of one Result share
// one backing array each. The views are capacity-limited, so an append
// copies instead of overwriting the next answer, but writing an element
// in place changes the Result every holder sees (a cached one included).
type Answer struct {
	Nodes []graph.Node
	Paths []graph.Path
}

// Key returns a hashable encoding of the node part of the answer.
func (a Answer) Key() string {
	b := make([]byte, 0, 4*len(a.Nodes))
	for _, v := range a.Nodes {
		b = fmt.Appendf(b, "%d,", v)
	}
	return string(b)
}

// Result is the output of Eval.
type Result struct {
	Query *Query
	// Snap is the immutable graph snapshot the query was evaluated
	// against; Result.PathAutomaton builds over the same snapshot, so
	// the answer automaton is consistent with the answers even when the
	// underlying DB has been mutated since.
	Snap    *graph.Snapshot
	Answers []Answer

	// inc is the incremental-evaluation memo captured by
	// EvalSnapshotMemo (per-component reached-node sets and accepted
	// rows, per start assignment); Program.Advance consumes it to
	// re-evaluate only the assignments a delta can affect. Nil when the
	// evaluation did not capture (head paths, streaming, overflow).
	inc *incMemo

	// fp memoizes Fingerprint for evaluator-built results (nil otherwise).
	fp *fpMemo
}

// Bool reports the boolean result (nonempty output).
func (r *Result) Bool() bool { return len(r.Answers) > 0 }

// Fingerprint returns a stable 64-bit hash of the full answer set —
// every node tuple and every witness path, in order. Two Results with
// equal Fingerprints carry byte-identical answers (modulo hash
// collisions), which is how the cache tests prove that a cache hit
// returns exactly what the underlying evaluation would have.
//
// A Result produced by the evaluator hashes its answers on the first
// call only and remembers the value: results are immutable once
// returned, and a cached one is fingerprinted on every response that
// serves it. Concurrent callers are safe. A Result built as a struct
// literal carries no memo and hashes on every call.
func (r *Result) Fingerprint() uint64 {
	m := r.fp
	if !m.describes(r.Answers) {
		return fingerprintAnswers(r.Answers)
	}
	if !m.hashed.Load() {
		m.sum.Store(fingerprintAnswers(r.Answers))
		m.hashed.Store(true)
	}
	return m.sum.Load()
}

// fpMemo is the memo cell of one answer set: the answers' part of
// SizeBytes, taken when the first Result to ask binds the cell to its
// Answers, and the fingerprint, hashed on first use (callers racing on
// the first use may each hash; they store the same value). It sits
// behind a pointer so that Results sharing Answers (restamp, by-value
// copies) share the memo, and so that copying a Result copies no lock.
// The fields pack into 48 bytes, the allocation class the memo had when
// it held the fingerprint alone.
type fpMemo struct {
	once   sync.Once
	hashed atomic.Bool
	n      int // len and first element of the Answers the memo describes
	first  *Answer
	size   int64
	sum    atomic.Uint64
}

// describes reports whether the memo describes answers. A by-value copy
// whose Answers were re-sliced or replaced shares the memo cell but not
// the answers it describes. A nil memo describes nothing.
func (m *fpMemo) describes(answers []Answer) bool {
	if m == nil {
		return false
	}
	m.once.Do(func() { m.n, m.first, m.size = len(answers), firstAnswer(answers), answersBytes(answers) })
	return m.n == len(answers) && m.first == firstAnswer(answers)
}

func firstAnswer(a []Answer) *Answer {
	if len(a) == 0 {
		return nil
	}
	return &a[0]
}

// fingerprintAnswers is 64-bit FNV-1a over the little-endian bytes of
// the answer set's words (counts, nodes, labels), one word at a time:
// the value hash/fnv yields for the same byte stream, without the
// hash.Hash interface call per word.
func fingerprintAnswers(answers []Answer) uint64 {
	h := fnvHash(fnvOffset)
	h.word(uint64(len(answers)))
	for _, a := range answers {
		h.word(uint64(len(a.Nodes)))
		for _, v := range a.Nodes {
			h.word(uint64(v))
		}
		h.word(uint64(len(a.Paths)))
		for _, p := range a.Paths {
			h.word(uint64(len(p.Nodes)))
			for _, v := range p.Nodes {
				h.word(uint64(v))
			}
			for _, l := range p.Labels {
				h.word(uint64(l))
			}
		}
	}
	return uint64(h)
}

// fnvHash is a 64-bit FNV-1a state.
type fnvHash uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime^k (mod 2⁶⁴).
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// word hashes the 8 little-endian bytes of x. A zero byte only
// multiplies the state by the prime (h ^ 0 = h), so once the bytes left
// are all zero — the high bytes of a small id, count or label — they
// fold into one multiply by the prime's power.
func (h *fnvHash) word(x uint64) {
	v, k := uint64(*h), 8
	for ; x != 0; k-- {
		v = (v ^ x&0xff) * fnvPrime
		x >>= 8
	}
	*h = fnvHash(v * fnvPrimePow[k])
}

// answerOverhead approximates the fixed per-answer footprint (the
// Answer struct and its two slice headers) for SizeBytes.
const answerOverhead = 64

// SizeBytes estimates the retained heap footprint of the answer set:
// the accounting unit of the result cache's byte budget. It counts the
// answers' node tuples and witness paths (the data each entry uniquely
// retains); the Query and Snapshot pointers are shared across the many
// entries of one program and epoch, and dead-epoch dropping bounds how
// many distinct snapshots cached results keep alive. An evaluator-built
// Result walks its answers once: the memo cell it shares with its
// re-stamps keeps their part.
func (r *Result) SizeBytes() int64 {
	size := int64(answerOverhead) + r.inc.sizeBytes() // the Result struct and its incremental memo
	if r.fp.describes(r.Answers) {
		return size + r.fp.size
	}
	return size + answersBytes(r.Answers)
}

// answersBytes is the answers' part of SizeBytes.
func answersBytes(answers []Answer) int64 {
	var size int64
	for _, a := range answers {
		size += answerOverhead
		size += int64(len(a.Nodes)) * 8
		for _, p := range a.Paths {
			size += answerOverhead // Path struct + slice headers
			size += int64(len(p.Nodes))*8 + int64(len(p.Labels))*4
		}
	}
	return size
}

// Eval evaluates the query over the snapshot g yields, per the semantics
// of Definition 3.1.
//
// Eval is a compile-per-call convenience over the plan/execute split: it
// compiles the query into a fresh Program (see CompileProgram) and runs
// it to completion with a background context. A caller that evaluates
// one query repeatedly compiles it once (CompileProgram, internal/plan,
// pathquery.Prepare) and holds the result, which also adds context
// cancellation, streaming and concurrent reuse.
func Eval(q *Query, g graph.Snapshotter, opts Options) (*Result, error) {
	prog, err := CompileProgram(q, false)
	if err != nil {
		return nil, err
	}
	return prog.Eval(context.Background(), g, opts)
}

// component groups the path variables connected by relation atoms of
// arity ≥ 2; unary atoms attach to their variable's component.
type component struct {
	vars   []PathVar
	varIdx map[PathVar]int
	// atomsOf[i] lists the path atoms binding vars[i] (several under
	// AllowRepeatedPathVars).
	atomsOf [][]PathAtom
	joint   *relations.Joint

	// dfa is the joint's minimal class table, which every pruning
	// execution reads without a lock, built once by the first execution
	// that asks for it (table); nil when the exploration passed
	// tableCells, and the engines then learn the joint lazily.
	// witnessTapes, set at compile time, says the evaluation keeps
	// witnesses over two or more tapes (see table).
	tableOnce    sync.Once
	dfa          *relations.ClassDFA
	witnessTapes bool

	// part is the component's label-space partition: the joint's atoms
	// transition on class runes and the product BFS translates label runs
	// to classes (see moveKernel). Without character classes its cells are
	// the singletons of the atoms' own alphabet.
	part *regex.Partition

	// liveRanges over-approximates the edge labels any product BFS of
	// this component can ever traverse, as sorted disjoint rune ranges:
	// per tape, the intersection over the covering relation atoms of the
	// labels they admit at the tape's coordinate, unioned across tapes.
	// A tape no atom constrains (or a cofinite class constraint) makes
	// the component liveUniversal — every label is potentially relevant.
	// Program.Advance proves a cached result unaffected when a delta's
	// labels miss these ranges entirely.
	liveRanges    []regex.Range
	liveUniversal bool

	// Node-variable layout, fixed at compile time. allVars are the distinct
	// node variables in first-occurrence order — the columns of the
	// component's relation — and xvars those in X position, the start
	// variables; isStart[i] says whether allVars[i] is one. needed[i]
	// (CompileProgram's, nil for a start-domain relaxation) marks the
	// columns something outside the component reads: head node variables
	// and variables another component shares, the join columns. Every other
	// column is existential — the head and the joins cannot tell two rows
	// apart by it — which is what the stop rules (stopRule) decide on.
	allVars, xvars  []NodeVar
	isStart, needed []bool
}

// decompose splits q's path variables into the connected components of
// the relation hypergraph; monolithic puts them all in one component,
// the paper's single m-tape product.
func decompose(q *Query, monolithic bool) ([]*component, error) {
	pathVars := []PathVar{}
	seen := map[PathVar]bool{}
	for _, a := range q.PathAtoms {
		if !seen[a.Pi] {
			seen[a.Pi] = true
			pathVars = append(pathVars, a.Pi)
		}
	}
	// Union-find over path variables.
	parent := map[PathVar]PathVar{}
	var find func(v PathVar) PathVar
	find = func(v PathVar) PathVar {
		if parent[v] == "" || parent[v] == v {
			parent[v] = v
			return v
		}
		r := find(parent[v])
		parent[v] = r
		return r
	}
	union := func(a, b PathVar) { parent[find(a)] = find(b) }
	if monolithic {
		for i := 1; i < len(pathVars); i++ {
			union(pathVars[0], pathVars[i])
		}
	}
	for _, ra := range q.RelAtoms {
		for i := 1; i < len(ra.Args); i++ {
			union(ra.Args[0], ra.Args[i])
		}
	}
	groups := map[PathVar][]PathVar{}
	for _, v := range pathVars {
		r := find(v)
		groups[r] = append(groups[r], v)
	}
	var comps []*component
	var roots []PathVar
	for _, v := range pathVars { // deterministic order
		if find(v) == v {
			roots = append(roots, v)
		}
	}
	for _, root := range roots {
		c, err := newComponent(q.PathAtoms, q.RelAtoms, groups[root])
		if err != nil {
			return nil, err
		}
		comps = append(comps, c)
	}
	return comps, nil
}

// newComponent compiles the component over the path variables vars: the
// path atoms binding them and the relation atoms whose arguments all lie
// among them, joined into one relation automaton. decompose calls it
// with a connected component of the relation hypergraph (closed under
// relation atoms by construction); the start-domain pass calls it with a
// single path variable, which keeps that variable's own language atoms
// and drops every relation it shares with another tape.
func newComponent(pathAtoms []PathAtom, relAtoms []RelAtom, vars []PathVar) (*component, error) {
	c := &component{vars: vars, varIdx: map[PathVar]int{}, atomsOf: make([][]PathAtom, len(vars))}
	for i, v := range vars {
		c.varIdx[v] = i
	}
	for _, a := range pathAtoms {
		if i, ok := c.varIdx[a.Pi]; ok {
			c.atomsOf[i] = append(c.atomsOf[i], a)
		}
	}
	c.layoutNodeVars()
	var atoms []relations.Atom
	for _, ra := range relAtoms {
		if slices.ContainsFunc(ra.Args, func(v PathVar) bool { _, ok := c.varIdx[v]; return !ok }) {
			continue
		}
		pos := make([]int, len(ra.Args))
		for i, v := range ra.Args {
			pos[i] = c.varIdx[v]
		}
		atoms = append(atoms, relations.Atom{Rel: ra.Rel, Pos: pos})
	}
	// Live-label analysis runs over the ORIGINAL atoms (class-bearing
	// ASTs included, via their label ranges) — the class-compiled
	// atoms below transition on class runes, not labels.
	c.liveRanges, c.liveUniversal = componentLiveRanges(atoms, len(vars))
	part, atoms, err := relations.CompileClassAtoms(atoms)
	if err != nil {
		return nil, err
	}
	c.part = part
	j, err := relations.NewJoint(len(vars), atoms)
	if err != nil {
		return nil, err
	}
	c.joint = j
	return c, nil
}

// tableCells bounds the exploration behind a component's minimal table
// and the table itself, in row cells: past it the component keeps no
// table. A var, not a const, so tests can force every component lazy (0).
var tableCells = maxPooledScratch

// table returns the component's minimal class table, building it on the
// first call; nil past tableCells (see relations.BuildClassDFA). It is
// built on first use, not at compile time, so that a program only ever
// evaluated under NoPrune — the reference every differential check
// compiles — pays nothing for it. The table merges no states when the
// evaluation keeps witnesses over several tapes: two equivalent joint
// states can carry witnesses whose per-tape lengths differ (a tape that
// finished earlier on one of them), and the shortest-witness refinement
// between duplicates of a row must see both, as it does on the lazy
// runner. A single tape never finishes before its path does, so on one
// tape the first member of a Nerode class carries the witness its
// equivalent states would.
func (c *component) table() *relations.ClassDFA {
	c.tableOnce.Do(func() {
		c.dfa = relations.BuildClassDFA(c.joint, c.part.NumClasses(), tableCells, !c.witnessTapes)
	})
	return c.dfa
}

// layoutNodeVars fixes allVars, xvars and isStart from the component's
// path atoms, tape by tape.
func (c *component) layoutNodeVars() {
	for _, atoms := range c.atomsOf {
		for _, a := range atoms {
			if !slices.Contains(c.allVars, a.X) {
				c.allVars = append(c.allVars, a.X)
			}
			if !slices.Contains(c.xvars, a.X) {
				c.xvars = append(c.xvars, a.X)
			}
			if !slices.Contains(c.allVars, a.Y) {
				c.allVars = append(c.allVars, a.Y)
			}
		}
	}
	c.isStart = make([]bool, len(c.allVars))
	for i, v := range c.allVars {
		c.isStart[i] = slices.Contains(c.xvars, v)
	}
}

// acceptCheck is one Y-endpoint consistency obligation: the path on
// coordinate coord must end at the node bound to variable slot yi.
type acceptCheck struct {
	coord int
	yi    int
}

// stopRule is how much of a component's relation one execution has to
// enumerate before the head and the joins can no longer tell a further
// row from the rows it already holds. Definition 3.1 answers are
// projections onto the head and components meet only on shared
// variables, so two rows that agree on the needed columns are one row to
// every reader. reset derives the rule from the needed columns, the
// bindings, X position and the kept witnesses; Options.NoPrune switches
// it off, which keeps NoPrune the exhaustive reference.
type stopRule uint8

const (
	// stopNone: some needed column is a free end variable, or a witness is
	// kept (a later duplicate may carry a shorter one) — every row counts.
	stopNone stopRule = iota
	// stopRow: every needed column is a start variable or bound, so the
	// rows of one start assignment agree on every column anyone reads and
	// the assignment's BFS ends at its first accepted row.
	stopRow
	// stopSweep: moreover every needed column is bound, or none is needed —
	// the relation matters only as empty or non-empty, and the sweep over
	// the start space ends at its first row.
	stopSweep
)

// stopRuleFor derives the rule under the external bindings bindVal
// (aligned with allVars, -1 unbound; nil binds nothing). It does not look
// at kept witnesses or NoPrune — reset does.
func (c *component) stopRuleFor(bindVal []graph.Node) stopRule {
	rule := stopSweep
	for i, need := range c.needed {
		switch {
		case !need || bindVal != nil && bindVal[i] >= 0:
		case c.isStart[i]:
			rule = stopRow
		default:
			return stopNone
		}
	}
	return rule
}

// errDecided is applyRow's report that the armed stop rule has the row it
// was waiting for. bfs, runAssign and evalComponent unwind it like
// errStopStream; it never leaves evalComponent.
var errDecided = errors.New("ecrpq: decided")

// componentEngine holds everything the dense product BFS needs for one
// component: the shared product core (adjacency snapshot, joint
// automaton, flat transition rows) plus row collection and the reusable
// per-state buffers. Nothing in the BFS hot loop allocates beyond
// amortized slice growth.
type componentEngine struct {
	prodCore

	// The engine's scratch set (see workspace), held from draw to release:
	// its product-state storage, relation store and dedup sets.
	*scratch

	// rel is the relation under construction (columns allVars, witness
	// columns keptVars), the scratch set's store. Two start assignments
	// differ on an X variable and every X variable is a column, so a
	// duplicate row can only come from the assignment being run: rows
	// appended wholesale — a fan-out chunk's, a replayed memo segment's —
	// are never entered in a dedup set. A pruning run without witnesses
	// dedups on the columns its assignment leaves open, in runRows, while
	// their key space fits a bitset; every other run on the node tuple, in
	// rows, whose ids mergeShorter needs.
	rel *varRelation

	// sink, when set, receives each fresh deduplicated row (witnesses in
	// keptVars order) and rel keeps node tuples only, as the dedup's store
	// — the hook the streaming executor uses for single-component
	// queries. Both slices are only valid for the duration of the call;
	// sinks must copy. Returning errStopStream aborts the BFS cleanly.
	sink func(nodes []graph.Node, paths []graph.Path) error

	// Accept plan, fixed per component; var slots are positions in
	// c.allVars.
	bindVal []graph.Node // external binding per var slot; -1 if unbound
	plan    []acceptCheck
	// stop is the execution's stop rule, set by reset (startCapture demotes
	// stopSweep: a memo holds a segment per start assignment).
	stop stopRule
	// keptCoords lists the (coordinate, variable) pairs of the path
	// variables whose witnesses the query outputs; witness paths are only
	// reconstructed for these.
	keptCoords []int
	keptVars   []PathVar

	// The run in progress, read by the visit-now emitter: the state
	// being expanded and the budget the run charges.
	head int
	bud  *stateBudget

	// Scratch buffers.
	nodesBuf []graph.Node
	pathBuf  []graph.Path
	chainBuf []int32
	tmpl     []graph.Node // accept template for the current start assignment

	// memoCap, when non-nil, collects the incremental-evaluation memo
	// of the execution: per start assignment, the nodes of every reached
	// product state and, unless the program keeps witnesses, the accepted
	// rows (each once: the rows a run adds to rel are exactly its
	// assignment's). endCapAssign seals one assignment; past
	// memoMaxEntries the capture is abandoned (memoFailed) so a huge
	// result never pins a second copy of itself.
	memoCap    *compMemo
	memoFailed bool

	// Parallel execution state (see parallel.go). workers and opts are
	// set by reset from the per-call options. The kernel's moves count
	// the execution's work — reset zeroes them, fan-out siblings add
	// theirs — and stay readable until the next reset, which is what the
	// next execution's concurrency decision reads. space is the
	// execution's start-assignment space, set by reset from the bindings,
	// the start-domain lists in doms and allNodes, the shared
	// 0..NumNodes-1 candidate slice of an unconfined variable. ws and comp
	// name the workspace and component the engine belongs to; fan is the
	// assignment fan-out's state — its sibling engines among it — built on
	// the first fan-out and kept with the engine.
	workers  int
	opts     Options
	doms     map[NodeVar][]graph.Node
	space    startSpace
	allNodes []graph.Node
	ws       *workspace
	comp     int
	fan      *fanOut
}

// newComponentEngine builds an engine for component comp of the
// workspace's program. The graph is not needed at construction time —
// reset supplies it before each execution — so engines can be compiled
// into a Program ahead of any graph.
func newComponentEngine(ws *workspace, comp int) *componentEngine {
	p := ws.prog
	c := p.comps[comp]
	e := &componentEngine{
		prodCore: newProdCore(nil, c),
		ws:       ws,
		comp:     comp,

		nodesBuf: make([]graph.Node, len(c.allVars)),
		tmpl:     make([]graph.Node, len(c.allVars)),
		bindVal:  make([]graph.Node, len(c.allVars)),
	}
	e.emit = e
	for i, atoms := range c.atomsOf {
		for _, a := range atoms {
			e.plan = append(e.plan, acceptCheck{coord: i, yi: slices.Index(c.allVars, a.Y)})
		}
	}
	for i, v := range c.vars {
		if slices.Contains(p.headPaths, v) {
			e.keptCoords = append(e.keptCoords, i)
			e.keptVars = append(e.keptVars, v)
		}
	}
	return e
}

// reset prepares a (possibly pooled) engine for one execution: the
// pinned graph snapshot, external bindings, pruning mode and result
// accumulators are per-call. A pruning execution reads the component's
// minimal table when it has one; a NoPrune one reads the engine's lazy
// runner, whose live-label memos, symbol table and flat rows persist
// across executions and snapshots alike.
//
// doms carries the candidate lists of the start-domain pass (nil when
// nothing propagated); with the bindings they fix the execution's start
// space: a bound start variable has its one node, a confined one its
// list, any other every node of the snapshot.
func (e *componentEngine) reset(s *graph.Snapshot, opts Options, doms map[NodeVar][]graph.Node) {
	e.snap = s
	e.noPrune = opts.NoPrune
	e.bindJoint(!opts.NoPrune)
	e.opts = opts
	e.doms = doms
	e.workers = effectiveBFSWorkers(opts.BFSWorkers)
	e.moves = 0
	e.rel.reset(e.c.allVars, e.keptVars)
	e.rows.reset()
	for i, v := range e.c.allVars {
		if n, ok := opts.Bind[v]; ok {
			e.bindVal[i] = n
		} else {
			e.bindVal[i] = -1
		}
	}
	e.runRows.on = false
	if !opts.NoPrune && len(e.keptVars) == 0 {
		e.runRows.plan(e.c.isStart, e.bindVal, s.NumNodes())
	}
	e.stop = stopNone
	if !opts.NoPrune && len(e.keptVars) == 0 {
		e.stop = e.c.stopRuleFor(e.bindVal)
	}
	e.space.vars, e.space.lists = e.c.xvars, e.space.lists[:0]
	for _, v := range e.c.xvars {
		var list []graph.Node
		if i := slices.Index(e.c.allVars, v); e.bindVal[i] >= 0 {
			list = e.bindVal[i : i+1 : i+1]
		} else if dom, ok := doms[v]; ok {
			list = dom
		} else {
			list = e.allNodesSlice()
		}
		e.space.lists = append(e.space.lists, list)
	}
}

// allNodesSlice returns the engine's shared 0..NumNodes-1 slice, the
// candidate list of every unbound start variable (rebuilt only when the
// snapshot's node count changes).
func (e *componentEngine) allNodesSlice() []graph.Node {
	e.allNodes = nodeRange(e.allNodes, e.snap.NumNodes())
	return e.allNodes
}

// draw gives the engine a scratch set from the process-wide pool unless
// it holds one.
func (e *componentEngine) draw() {
	if e.scratch == nil {
		e.scratch = takeScratch()
		e.rel = &e.store
	}
}

// release readies the engine for an idle workspace and gives its scratch
// set back; its fan-out siblings are released apart (putWorkspace). It
// must not pin a possibly huge graph snapshot — the snapshot half of the
// rule is moveKernel.release's — nor anything of the last execution past
// the pooled-scratch budget.
func (e *componentEngine) release() {
	e.prodCore.release()
	e.bud, e.sink, e.memoCap, e.memoFailed = nil, nil, nil, false
	e.opts, e.doms = Options{}, nil
	clear(e.space.lists)
	if cap(e.allNodes) > maxPooledScratch {
		e.allNodes = nil
	}
	if e.scratch != nil {
		e.scratch.release()
		e.scratch, e.rel = nil, nil
	}
}

// evalComponent runs the product BFS for one component, for every
// assignment of its start space (see reset), drawing on the shared state
// budget. It returns the component's relation (under a sink, which has
// consumed the rows, only the node tuples the dedup kept): the engine's
// own, valid until the engine's next execution.
//
// The enumeration starts inline, in assignment order on the caller's
// goroutine. After every finished assignment the cost model weighs the
// ones left against the moves the finished ones took (fanWorkers); once
// fanning them out pays, evalAssignFanout runs them over the worker pool
// behind the inline prefix. Under stopSweep it never does, and the
// enumeration ends at the first row.
func evalComponent(ctx context.Context, e *componentEngine, bud *stateBudget) (*varRelation, error) {
	total := e.space.size()
	var done uint64
	fan := 1
	err := e.space.forRange(0, math.MaxUint64, func(idx uint64, assign map[NodeVar]graph.Node) error {
		if err := e.runAssign(ctx, assign, bud); err != nil {
			return err
		}
		done = idx + 1
		if fan = e.fanWorkers(done, total); fan > 1 {
			return errFanOut
		}
		return nil
	})
	if err == errFanOut {
		err = e.evalAssignFanout(ctx, bud, done, total, fan)
	}
	if err != nil && err != errDecided {
		return nil, err
	}
	return e.rel, nil
}

// errFanOut is evalComponent's signal that the cost model wants the rest
// of the start space fanned out; it never leaves evalComponent.
var errFanOut = errors.New("ecrpq: fan out")

// runAssignRange runs the product BFS for the start assignments with
// dense indices [lo, hi), sealing one memo segment per assignment when
// the engine captures.
func (e *componentEngine) runAssignRange(ctx context.Context, lo, hi uint64, bud *stateBudget) error {
	return e.space.forRange(lo, hi, func(_ uint64, assign map[NodeVar]graph.Node) error {
		return e.runAssign(ctx, assign, bud)
	})
}

// runAssign is one start assignment: its product BFS and, when the
// engine captures, its memo segment. A BFS the stop rule ended is a
// finished assignment; errDecided travels on only under stopSweep, where
// it ends the enumeration too.
func (e *componentEngine) runAssign(ctx context.Context, assign map[NodeVar]graph.Node, bud *stateBudget) error {
	e.runRows.row0 = e.rel.n
	err := e.bfs(ctx, assign, bud)
	if e.runRows.on {
		e.runRows.end(e.rel)
	}
	if err != nil && err != errDecided {
		return err
	}
	e.endCapAssign(err == errDecided)
	if e.stop == stopSweep {
		return err
	}
	return nil
}

// beginRun prepares one product-BFS run from the start tuple given by
// assign: empty state arrays and membership set under the run's key
// layout, the accept template, and the start state as id 0. It returns
// false — with the state arrays left empty, which the memo capture reads
// after bfs returns — when a repeated path variable's atoms disagree on
// the start node.
func (e *componentEngine) beginRun(assign map[NodeVar]graph.Node) bool {
	e.beginVisit(&e.states, e.joints, e.curs)
	e.curs = e.curs[:0]
	e.joints = e.joints[:0]
	e.parentState = e.parentState[:0]
	e.parentLabs = e.parentLabs[:0]

	start, ok := e.startTuple(assign)
	if !ok {
		return false
	}
	// Accept template: X variables fixed by assign, the rest open (-1).
	for i := range e.tmpl {
		e.tmpl[i] = -1
	}
	for v, n := range assign {
		e.tmpl[slices.Index(e.c.allVars, v)] = n
	}
	// No move discovered the start state: its recorded labels are ⊥.
	for i := range e.symLabs {
		e.symLabs[i] = regex.Bot
	}
	e.visit(&e.states, e.src.StartID(), start)
	e.pushState(e.src.StartID(), start, -1)
	return true
}

// pushState appends a newly visited product state to the state
// arrays, with its parent and the raw labels of the discovering move (in
// e.symLabs) when the query outputs witnesses.
func (e *componentEngine) pushState(jointID int, nodes []graph.Node, parent int32) {
	e.curs = append(e.curs, nodes...)
	e.joints = append(e.joints, int32(jointID))
	if len(e.keptCoords) > 0 {
		e.parentState = append(e.parentState, parent)
		e.parentLabs = append(e.parentLabs, e.symLabs[:e.cnt]...)
	}
}

// bfs explores the product of G⊥^c with the component's joint relation
// automaton from the start tuple given by assign, level by level,
// collecting accepting bindings into e.rel (or handing them to e.sink).
// It is the one driver of every evaluation and runs on the caller's
// goroutine: a head cursor in discovery order, accepts interleaved,
// successors interned at once by emitMove. Cancellation of ctx is
// checked every 256 states of the run, not of the level, so a run of
// narrow levels pays one check per 256 states like a single scan would.
//
// With a stop rule armed the driver applies a level's accepts first
// (acceptLevel), before any state of the level is expanded, and the
// expansion skips them: the run ends — errDecided — having charged
// exactly the states of the levels up to the deciding one.
func (e *componentEngine) bfs(ctx context.Context, assign map[NodeVar]graph.Node, bud *stateBudget) error {
	if !e.beginRun(assign) {
		return nil // inconsistent start for repeated path var
	}
	e.bud = bud
	cnt := e.cnt
	for lo, hi := 0, 1; lo < hi; lo, hi = hi, len(e.joints) {
		if e.stop != stopNone {
			if err := e.acceptLevel(lo, hi); err != nil {
				return err
			}
		}
		for head := lo; head < hi; head++ {
			if head&255 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				// Fault point: mid-BFS cancellation/crash injection (free
				// when no harness is installed).
				if err := faultinject.Inject(faultinject.BFSStep); err != nil {
					return err
				}
			}
			cur := e.curs[head*cnt : head*cnt+cnt]
			joint := int(e.joints[head])
			if e.stop == stopNone && e.src.Accepting(joint) {
				if err := e.accept(head, cur); err != nil {
					return err
				}
			}
			// Label-directed expansion: per coordinate, only the moves in
			// the intersection of the joint's live classes with the CSR
			// label runs at the coordinate's node (⊥-stay included only
			// when the joint admits it there); a coordinate with no move
			// at all skips the state entirely.
			if !e.prepareMoves(joint, cur) {
				continue
			}
			e.head = head
			if err := e.forEachMove(joint, cur); err != nil {
				return err
			}
		}
	}
	return nil
}

// acceptLevel applies the accepts of the frontier [lo, hi) in state
// order — the accept phase of a level when a stop rule is armed (see
// bfs).
func (e *componentEngine) acceptLevel(lo, hi int) error {
	cnt := e.cnt
	for id := lo; id < hi; id++ {
		if e.src.Accepting(int(e.joints[id])) {
			if err := e.accept(id, e.curs[id*cnt:id*cnt+cnt]); err != nil {
				return err
			}
		}
	}
	return nil
}

// emitMove is the evaluator's emitter, visit-now: add the enumerated
// move's successor (joint state js, nodes e.next) to the run's state set
// and, when it is new, append it and charge the budget.
func (e *componentEngine) emitMove(js int) error {
	if !e.visit(&e.states, js, e.next) {
		return nil
	}
	e.pushState(js, e.next, int32(e.head))
	if !e.bud.spend() {
		return ErrBudget
	}
	return nil
}

// accept checks Y-consistency of an accepting product state against the
// template and external bindings, then records the row (deduplicated on
// the node tuple, keeping shortest witnesses) — or streams it to the
// engine's sink when one is installed.
func (e *componentEngine) accept(state int, cur []graph.Node) error {
	nodes, ok := e.checkAccept(cur)
	if !ok {
		return nil
	}
	e.pathBuf = e.reconstruct(state, e.pathBuf[:0])
	return e.applyRow(nodes, e.pathBuf)
}

// checkAccept validates an accepting product state's node tuple against
// the template and external bindings, filling e.nodesBuf. ok=false means
// the state binds no consistent row.
func (e *componentEngine) checkAccept(cur []graph.Node) ([]graph.Node, bool) {
	buf := e.nodesBuf
	copy(buf, e.tmpl)
	for _, ck := range e.plan {
		val := cur[ck.coord]
		if got := buf[ck.yi]; got >= 0 {
			if got != val {
				return nil, false
			}
			continue
		}
		if b := e.bindVal[ck.yi]; b >= 0 && b != val {
			return nil, false
		}
		buf[ck.yi] = val
	}
	return buf, true
}

// applyRow records one checked row: dedup (first discovery wins; under
// rowSet later duplicates refine witnesses to the shortest), memo capture
// of a fresh row, sink or relation append. paths are the row's witnesses
// in keptVars order.
//
// It is also where the stop rules live: with one armed, any row is the
// last row the run (stopRow) or the sweep (stopSweep) can contribute that
// a reader could tell from this one, and applyRow reports errDecided —
// after the sink, whose own stop takes precedence.
func (e *componentEngine) applyRow(nodes []graph.Node, paths []graph.Path) error {
	var id int
	var added bool
	if e.runRows.on {
		added = e.runRows.add(e.rel, nodes)
	} else {
		id, added = e.rows.intern(e.rel, nodes)
	}
	if added && e.memoCap != nil && e.ws.prog.incCapable {
		e.memoCap.rows = append(e.memoCap.rows, nodes...)
	}
	switch {
	case e.sink != nil:
		// Streaming keeps the first witness per row; duplicates carry no
		// new node tuple and are dropped.
		if added {
			if err := e.sink(nodes, paths); err != nil {
				return err
			}
		}
	case added:
		e.rel.paths = append(e.rel.paths, paths...)
	default:
		e.rel.mergeShorter(id, paths)
	}
	if e.stop != stopNone {
		return errDecided
	}
	return nil
}

// reconstruct walks the BFS tree back to the start and appends to dst the
// witness paths of the kept path variables (in keptVars order), stripping
// ⊥ stay-moves (the stripping operation ρ̄s(j) of Section 5). Components
// whose witnesses the query never outputs skip the walk entirely.
func (e *componentEngine) reconstruct(state int, dst []graph.Path) []graph.Path {
	if len(e.keptCoords) == 0 {
		return dst
	}
	chain := e.chainBuf[:0]
	for cur := int32(state); cur >= 0; cur = e.parentState[cur] {
		chain = append(chain, cur)
	}
	e.chainBuf = chain
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	cnt := e.cnt
	for _, i := range e.keptCoords {
		p := graph.Path{Nodes: []graph.Node{e.curs[int(chain[0])*cnt+i]}}
		for step := 1; step < len(chain); step++ {
			id := int(chain[step])
			a := e.parentLabs[id*cnt+i]
			if a == regex.Bot {
				continue
			}
			p.Nodes = append(p.Nodes, e.curs[id*cnt+i])
			p.Labels = append(p.Labels, a)
		}
		dst = append(dst, p)
	}
	return dst
}
