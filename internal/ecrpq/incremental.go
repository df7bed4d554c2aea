package ecrpq

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/qerr"
	"repro/internal/regex"
	"repro/internal/relations"
)

// This file is the incremental re-evaluation layer: given a Result
// computed at an older epoch of the same store, Program.Advance derives
// the Result at a newer snapshot without a full product BFS whenever it
// can prove the derivation sound. Two mechanisms, tried in order:
//
//  1. Free revalidation — ECRPQ answers only depend on edges whose
//     labels the compiled program can ever traverse (the per-component
//     live-label over-approximation below). When every edge written
//     since the cached epoch carries a label outside that set, the
//     cached answers are provably identical at the new epoch and are
//     re-stamped wholesale.
//
//  2. The delta pass — node-tuple answers are reachability in the
//     product of the graph with the joint automaton (Theorem 6.3), so an
//     epoch advance that only added edges can only add product states
//     and rows. The memo captured by EvalSnapshotMemo records, per start
//     assignment, the product states its run reached and its accepted
//     rows. A new state can only be reached over a move that takes a
//     since-edge from a state the run already reached, and only when the
//     edge is a live move there: its source is the state's node on some
//     tape, and the joint state's live set at that tape admits its class
//     (moveKernel.admitsLabel, the admission the move plan applies). An
//     assignment with no such state replays its recorded rows; one with
//     some resumes its run through componentEngine.bfs, its state set
//     seeded with the recorded states and its first level the frontier
//     of those a live since-edge leaves, so it charges only the states
//     it adds, and its row dedup seeded with its recorded rows. An
//     advance that adds no row keeps the previous answers and
//     fingerprint and carries the new memo. A memo captured on a lazy
//     runner, whose joint ids belong to one engine, records only the
//     nodes its states hold and keeps the node grain: any relevant
//     since-edge from one of them reruns the assignment from scratch.
//
// Witness paths break monotonicity (a new edge can shorten the kept
// shortest witness without changing the node tuple), so resuming and
// replaying are restricted to queries without head path variables. A
// query with them captures the states only, no rows, and Advance
// re-stamps it when no since-edge is a live move from a recorded state
// and no start list grew: then every state plans the same moves over the
// same edges in the same order, so answers and witnesses are
// byte-identical; otherwise it falls back. Revalidation is sound either
// way. Node additions can create answers with no new edge at all
// (ε-accepting relations range over every node), so any change in node
// count forces the full fallback.
//
// Witness ties are broken by discovery order, which is the order a
// snapshot lists a node's edges in: label, then target, in every layout.
// A compaction between the two epochs moves edges between segments but
// reorders none, so it changes no witness and needs no check of its own.

// componentLiveRanges computes the live-label over-approximation of one
// component as sorted disjoint rune ranges: per tape, the intersection
// over the covering (atom, coordinate) pairs of the labels they admit
// at that coordinate (any transition consuming a graph edge on the tape
// must fall in them); the component set is the union across tapes. It
// runs over the ORIGINAL atoms (relations.Relation.LabelRanges):
// automaton-backed atoms contribute their alphabet's coordinate
// projections joined into ranges where they are consecutive, and
// class-bearing language atoms and relations in class form the ranges
// of their classes, so a [ia-iz]-style constraint or an el over a huge
// label space stays a few ints instead of one rune per label. A tape no
// atom constrains — or one constrained only by a cofinite
// (negated/wild) class — makes the component universal. ⊥ is kept in
// the sets: it never appears as a stored edge label, so it costs nothing
// and keeps the approximation conservative.
func componentLiveRanges(atoms []relations.Atom, cnt int) (live []regex.Range, universal bool) {
	for t := 0; t < cnt; t++ {
		var inter []regex.Range
		constrained := false
		for _, at := range atoms {
			if at.Rel == nil {
				continue
			}
			for i, p := range at.Pos {
				if p != t {
					continue
				}
				rs, uni := at.Rel.LabelRanges(i)
				if uni {
					continue // cofinite class: does not constrain the tape
				}
				if !constrained {
					inter = append(inter[:0], rs...)
					constrained = true
				} else {
					inter = regex.IntersectRanges(inter, rs)
				}
			}
		}
		if !constrained {
			return nil, true
		}
		live = regex.UnionRanges(live, inter)
	}
	return live, false
}

// runeInSorted reports whether r is in the sorted slice rs.
func runeInSorted(rs []rune, r rune) bool {
	_, ok := slices.BinarySearch(rs, r)
	return ok
}

// incMemo is the incremental-evaluation memo attached to a Result by a
// capturing evaluation: one compMemo per program component, valid for
// the node count and canonicalized options it was captured under.
type incMemo struct {
	optsKey string
	nodes   int
	comps   []*compMemo
}

// compMemo records one component's execution per start assignment, in
// the enumeration order of the start space it ran over: one segment per
// assignment. lists are that space's candidate lists, one per X
// variable, nil standing for every node of the graph (incMemo.nodes of
// them): the delta pass finds an assignment's segment by its node tuple,
// because a confined variable's list can grow between epochs.
//
// On a memo with a table — tab, the minimal table the runs read — a
// segment's states are the product states its run reached, as keys in
// discovery order: cnt node fields of nodeBits each below the joint id,
// packed into one word (width 1), or one word per field, joint first
// (width 1+cnt), when they do not fit packedKeyBits. A memo captured on a
// lazy runner, whose joint ids belong to one engine, has no tab, and a
// segment's states are the distinct nodes its run's states hold, sorted,
// one per word: the delta pass reads only its nodes. The layout is a
// function of the component and the node count alone (setLayout), so
// every memo an advance derives from a memo keeps its layout. Segments
// are immutable once sealed and sized exactly; a later generation shares
// those its advance left alone.
type compMemo struct {
	stride   int
	lists    [][]graph.Node
	tab      *relations.ClassDFA
	cnt      int
	width    int
	nodeBits uint
	segs     []memoSeg
	// words counts the state words and row values of the segments, nRows
	// their rows.
	words, nRows int
}

// memoSeg is one start assignment's record: the product states its run
// reached, or on a lazy memo their nodes (compMemo), none when a stop rule decided it or its start was
// inconsistent, and, unless the program keeps witnesses, its accepted
// rows, flat with the memo's stride.
type memoSeg struct {
	states []uint64
	rows   []graph.Node
}

// nAssign is the number of sealed segments; a nil memo holds none.
func (m *compMemo) nAssign() int {
	if m == nil {
		return 0
	}
	return len(m.segs)
}

// entries counts the state words, row values and segments m holds, the
// unit of memoMaxEntries.
func (m *compMemo) entries() int { return m.words + len(m.segs) }

// add appends a sealed segment.
func (m *compMemo) add(seg memoSeg) {
	m.segs = append(m.segs, seg)
	m.words += len(seg.states) + len(seg.rows)
	m.nRows += len(seg.rows) / m.stride
}

// setLayout fixes m's key layout (see compMemo) for a snapshot of
// numNodes nodes: node fields as wide as planStates makes them, packed
// when they leave room for the table's joint ids (and minJointBits at
// least). It reads nothing a run learns, unlike the layout of a run's
// own state set, which a lazy runner's growth can change between runs.
func (m *compMemo) setLayout(numNodes int) {
	m.nodeBits = uint(bits.Len(uint(max(numNodes-1, 1))))
	m.width = 1
	if m.tab != nil && m.cnt*int(m.nodeBits)+max(minJointBits, bits.Len(uint(m.tab.NumStates()))) > packedKeyBits {
		m.width = 1 + m.cnt
	}
}

// appendStates appends the keys of the product states (joints[i],
// nodes[i*cnt:(i+1)*cnt]) to dst under m's layout; m has a table.
func (m *compMemo) appendStates(dst []uint64, joints []int32, nodes []graph.Node) []uint64 {
	for i, j := range joints {
		cur := nodes[i*m.cnt : i*m.cnt+m.cnt]
		if m.width == 1 {
			key := uint64(j)
			for _, n := range cur {
				key = key<<m.nodeBits | uint64(n)
			}
			dst = append(dst, key)
			continue
		}
		dst = append(dst, uint64(j))
		for _, n := range cur {
			dst = append(dst, uint64(n))
		}
	}
	return dst
}

// state decodes state i of a segment's states, on a memo with a table,
// into nodes (cnt of them) and returns its joint id.
func (m *compMemo) state(states []uint64, i int, nodes []graph.Node) int {
	if m.width == 1 {
		key, mask := states[i], uint64(1)<<m.nodeBits-1
		for c := m.cnt - 1; c >= 0; c-- {
			nodes[c] = graph.Node(key & mask)
			key >>= m.nodeBits
		}
		return int(key)
	}
	w := states[i*m.width : (i+1)*m.width]
	for c := range m.cnt {
		nodes[c] = graph.Node(w[1+c])
	}
	return int(w[0])
}

// sealStates returns the states of a run that reached the product states
// (joints, nodes), exactly sized: a resumed run's first len(prior.states)
// of them are prior's (in another order, frontier last; beginResume), so
// they keep prior's keys — and its slice, when the run found no state
// besides them — and append the new ones. A lazy memo seals the states'
// distinct nodes, sorted; its runs never resume.
func (m *compMemo) sealStates(prior *memoSeg, joints []int32, nodes []graph.Node) []uint64 {
	if m.tab == nil {
		held := slices.Clone(nodes[:len(joints)*m.cnt])
		slices.Sort(held)
		held = slices.Compact(held)
		states := make([]uint64, len(held))
		for i, n := range held {
			states[i] = uint64(n)
		}
		return states
	}
	var old []uint64
	if prior != nil {
		old = prior.states
	}
	n := len(old) / m.width
	if len(joints) == n {
		return old
	}
	states := make([]uint64, len(old), len(old)+(len(joints)-n)*m.width)
	copy(states, old)
	return m.appendStates(states, joints[n:], nodes[n*m.cnt:])
}

// memoMaxEntries bounds the total entries one component memo may hold
// (~32 MB); beyond it capture is abandoned and the result simply carries
// no memo. A var, not a const, so tests can pass it on small inputs.
var memoMaxEntries = 4 << 20

func (m *incMemo) sizeBytes() int64 {
	if m == nil {
		return 0
	}
	size := int64(answerOverhead)
	for _, cm := range m.comps {
		if cm == nil {
			continue
		}
		size += answerOverhead
		for _, l := range cm.lists {
			size += 24 + int64(len(l))*8
		}
		size += int64(len(cm.segs))*int64(unsafe.Sizeof(memoSeg{})) + int64(cm.words)*8
	}
	return size
}

// startCapture arms the engine's memo capture for one execution. A memo
// holds one segment per start assignment (memoSpace checks it), so a
// capturing execution finishes the sweep: stopSweep stands down to
// stopRow, which it implies. The memo outlives the execution, so the
// candidate lists it records are copies: the start-domain lists belong to
// the workspace. Its key layout is setLayout's for the engine's snapshot.
func (e *componentEngine) startCapture() {
	if e.stop == stopSweep {
		e.stop = stopRow
	}
	lists := make([][]graph.Node, len(e.c.xvars))
	for i, v := range e.c.xvars {
		// An unconfined variable keeps nil: every node.
		if n, bound := e.opts.Bind[v]; bound {
			lists[i] = []graph.Node{n}
		} else if dom, ok := e.doms[v]; ok {
			lists[i] = append(make([]graph.Node, 0, len(dom)), dom...)
		}
	}
	m := &compMemo{stride: len(e.c.allVars), lists: lists, tab: e.tab, cnt: e.cnt}
	m.setLayout(e.snap.NumNodes())
	e.memoCap, e.memoFailed = m, false
}

// captureChunks arms a fan-out sibling's capture for one execution, into
// m, storage the fan-out keeps for the sibling, under the layout of like,
// the caller's memo: the segments of every chunk it runs, one after the
// other, which the merge appends to the caller's memo.
func (e *componentEngine) captureChunks(m, like *compMemo) {
	segs := m.segs[:0]
	*m = *like
	m.lists, m.segs, m.words, m.nRows = nil, segs, 0, 0
	e.memoCap, e.memoFailed = m, false
}

// checkCapture abandons the capture once the memo holds more than
// memoMaxEntries entries, so a huge result never pins a second copy of
// itself.
func (e *componentEngine) checkCapture() {
	if e.memoCap.entries() > memoMaxEntries {
		e.abandonCapture()
	}
}

func (e *componentEngine) abandonCapture() { e.memoCap, e.memoFailed = nil, true }

// endCapAssign seals the current assignment's memo segment after its
// BFS completed: the states it reached (sealStates; from.seg is the
// segment a resumed run started from) and, unless the program keeps
// witnesses, the rows it holds in the relation, from runRows.row0 on —
// the resumed segment's own slice when the run added none.
//
// An assignment the stop rule decided seals its one row and no state.
// Positive queries are monotone under AddEdge: the row can never be
// lost, and under the rule no later row of the assignment can be told
// from it, so no delta ever needs to run it again.
func (e *componentEngine) endCapAssign(decided bool, from resumePoint) {
	m := e.memoCap
	if m == nil {
		return
	}
	var seg memoSeg
	if !decided {
		seg.states = m.sealStates(from.seg, e.joints, e.curs)
	}
	if e.ws.prog.incCapable {
		rows := e.rel.nodes[e.runRows.row0*m.stride:]
		switch {
		case from.seg != nil && len(rows) == len(from.seg.rows):
			seg.rows = from.seg.rows
		case len(rows) > 0:
			seg.rows = slices.Clone(rows)
		}
	}
	m.add(seg)
	e.checkCapture()
}

// replayAssign re-emits an unaffected assignment from the old memo: its
// rows (distinct, and no other assignment's) append to the relation in
// one copy, and the memo segment carries forward, shared. Only programs
// without head path variables capture rows and run the delta pass, so
// the rows carry no witnesses.
func (e *componentEngine) replayAssign(old *compMemo, idx int) {
	seg := old.segs[idx]
	e.rel.nodes = append(e.rel.nodes, seg.rows...)
	e.rel.n += len(seg.rows) / old.stride
	if e.memoCap != nil {
		e.memoCap.add(seg)
		e.checkCapture()
	}
}

// errMemoStale signals that a memo does not line up with the current
// enumeration (defensive — the node-count and options guards in Advance
// should make it unreachable); the caller falls back to full eval.
var errMemoStale = errors.New("ecrpq: incremental memo out of step")

// memoSpace rebuilds the start space old was enumerated over, or false
// when the memo does not fit this component: its lists, its table or the
// key layout the advance's memo would take (whose segments would mix with
// old's) differ.
func (e *componentEngine) memoSpace(old *compMemo) (*startSpace, bool) {
	like := compMemo{tab: e.tab, cnt: e.cnt}
	like.setLayout(e.snap.NumNodes())
	if len(old.lists) != len(e.c.xvars) || old.cnt != e.cnt || old.tab != like.tab ||
		old.width != like.width || old.nodeBits != like.nodeBits {
		return nil, false
	}
	sp := &startSpace{vars: e.c.xvars, lists: make([][]graph.Node, len(old.lists))}
	for i, l := range old.lists {
		if l == nil {
			l = e.allNodesSlice()
		}
		sp.lists[i] = l
	}
	return sp, sp.size() == uint64(old.nAssign())
}

// sortedSubset reports whether every element of the sorted slice a
// occurs in the sorted slice b.
func sortedSubset(a, b []graph.Node) bool {
	for _, x := range a {
		i, ok := slices.BinarySearch(b, x)
		if !ok {
			return false
		}
		b = b[i+1:]
	}
	return true
}

// deltaIndex holds the since-edges one component could traverse (labels
// in its live ranges), sorted by source. A workspace keeps one per
// component.
type deltaIndex struct {
	edges []graph.DeltaEdge
}

// build indexes the since-edges relevant to c and reports whether there
// is any.
func (d *deltaIndex) build(since []graph.DeltaEdge, c *component) bool {
	d.edges = d.edges[:0]
	for _, de := range since {
		if c.liveUniversal || regex.RangesContain(c.liveRanges, de.Label) {
			d.edges = append(d.edges, de)
		}
	}
	slices.SortFunc(d.edges, func(a, b graph.DeltaEdge) int { return cmp.Compare(a.From, b.From) })
	return len(d.edges) > 0
}

// from returns the indexed edges that leave n.
func (d *deltaIndex) from(n graph.Node) []graph.DeltaEdge {
	i, _ := slices.BinarySearchFunc(d.edges, n, func(de graph.DeltaEdge, n graph.Node) int { return cmp.Compare(de.From, n) })
	j := i
	for j < len(d.edges) && d.edges[j].From == n {
		j++
	}
	return d.edges[i:j]
}

// release drops an edge buffer past the pooled-scratch budget.
func (d *deltaIndex) release() {
	if cap(d.edges) > maxPooledScratch {
		d.edges = nil
	}
}

// leaves reports whether a since-edge of d leaves the product state
// (joint, nodes) as a live move: one prepareMoves would plan there
// (admitsLabel). A state no since-edge leaves has exactly the moves it
// had: whatever the run reached from it, it reaches again and nothing
// more.
func (e *componentEngine) leaves(joint int, nodes []graph.Node, d *deltaIndex) bool {
	for i, n := range nodes {
		for _, de := range d.from(n) {
			if e.admitsLabel(joint, i, de.Label) {
				return true
			}
		}
	}
	return false
}

// affectedAssignments computes which of the memo's start assignments the
// since-edges in d can affect: those with a recorded state one of them
// leaves (see leaves), or on a lazy memo, whose joint ids the engine
// cannot read, those with a recorded node one of them leaves at all. A
// new product state can only be reached over a move that takes a
// since-edge, from a state the run already reached, so an unaffected
// assignment reaches exactly its recorded states, and its rows — and
// witnesses — are reproduced by replay.
func (e *componentEngine) affectedAssignments(old *compMemo, d *deltaIndex) ([]uint64, int) {
	words := make([]uint64, (len(old.segs)+63)/64)
	count := 0
	nodes := e.next[:e.cnt]
	for idx, seg := range old.segs {
		hit := false
		if old.tab == nil {
			for _, n := range seg.states {
				if hit = len(d.from(graph.Node(n))) > 0; hit {
					break
				}
			}
		} else {
			for i := range len(seg.states) / old.width {
				if hit = e.leaves(old.state(seg.states, i, nodes), nodes, d); hit {
					break
				}
			}
		}
		if hit {
			words[idx>>6] |= 1 << (uint(idx) & 63)
			count++
		}
	}
	return words, count
}

// resumePoint is where a resumed run starts: segment seg of memo m, and
// the since-edges d that may leave its states. The zero value starts a
// run afresh.
type resumePoint struct {
	m   *compMemo
	seg *memoSeg
	d   *deltaIndex
}

// beginResume prepares a run that resumes from.seg from the start tuple
// given by assign: the accept template, and the recorded states visited
// into the state set and appended to the state arrays — first those no
// since-edge leaves, in one pass that sets the others, the frontier,
// aside in frontBuf, then the frontier. It returns the frontier's range,
// the first level bfs expands: every move a recorded state has beyond the
// ones its run took leaves from there.
func (e *componentEngine) beginResume(assign map[NodeVar]graph.Node, from resumePoint) (lo, hi int) {
	e.beginVisit(&e.states, e.joints, e.curs)
	e.curs, e.joints = e.curs[:0], e.joints[:0]
	e.setTemplate(assign)
	m, states := from.m, from.seg.states
	nodes := e.next[:e.cnt]
	front := e.frontBuf[:0]
	for i := range len(states) / m.width {
		joint := m.state(states, i, nodes)
		if e.leaves(joint, nodes, from.d) {
			front = append(front, int32(i))
			continue
		}
		e.visit(&e.states, joint, nodes)
		e.pushState(joint, nodes, -1)
	}
	lo = len(e.joints)
	for _, i := range front {
		joint := m.state(states, int(i), nodes)
		e.visit(&e.states, joint, nodes)
		e.pushState(joint, nodes, -1)
	}
	e.frontBuf = front
	return lo, len(e.joints)
}

// seedRows enters a resumed segment's recorded rows into the relation
// through the run's dedup, so the run adds only rows it did not have.
func (e *componentEngine) seedRows(rows []graph.Node) {
	stride := len(e.c.allVars)
	for r := 0; r < len(rows); r += stride {
		row := rows[r : r+stride]
		if e.runRows.on {
			e.runRows.add(e.rel, row)
		} else {
			e.rows.intern(e.rel, row)
		}
	}
}

// advanceComponent rebuilds one component's relation at the new
// snapshot by walking the new start space: an assignment the memo holds
// (found by node tuple in oldSpace) and the delta leaves alone replays
// its recorded rows; one the delta affects resumes its run from its
// recorded states on a memo of the engine's table, and runs afresh
// otherwise; one a grown candidate list introduces runs afresh. Each
// captures a segment. A nil affected bitmap means no since-edge is
// relevant to the component. grew reports whether the relation is not
// the memo's rows: then it holds a row the memo does not.
func advanceComponent(ctx context.Context, e *componentEngine, old *compMemo, oldSpace *startSpace, aff []uint64, d *deltaIndex, bud *stateBudget) (rel *varRelation, grew bool, err error) {
	resume := old.tab != nil
	held := 0
	err = e.space.forRange(0, math.MaxUint64, func(_ uint64, assign map[NodeVar]graph.Node) error {
		idx, ok := oldSpace.indexOf(assign)
		if !ok {
			return e.runAssign(ctx, assign, resumePoint{}, bud)
		}
		held++
		switch {
		case aff == nil || aff[idx>>6]&(1<<(idx&63)) == 0:
			e.replayAssign(old, int(idx))
			return nil
		case resume:
			return e.runAssign(ctx, assign, resumePoint{old, &old.segs[idx], d}, bud)
		}
		return e.runAssign(ctx, assign, resumePoint{}, bud)
	})
	if err != nil {
		return nil, false, err
	}
	return e.rel, held != old.nAssign() || e.rel.n != old.nRows, nil
}

// AdvanceKind classifies how Program.Advance derived (or declined to
// derive) a result from a cached predecessor.
type AdvanceKind int

const (
	// AdvanceNone: no sound derivation — the caller must evaluate from
	// scratch.
	AdvanceNone AdvanceKind = iota
	// AdvanceRevalidated: the delta provably cannot affect the program
	// (label-disjoint, or empty, or the program has an empty table and
	// accepts nothing); the cached answers were re-stamped to the new
	// snapshot without touching the graph.
	AdvanceRevalidated
	// AdvanceIncremental: the delta pass read the memo. Either no
	// since-edge is a live move from a recorded state and no start list
	// grew, and the cached result was re-stamped (the only kind of
	// incremental advance a query with witnesses gets); or the affected
	// start assignments resumed their runs (or ran, new ones and those of
	// a lazy memo) and the rest replayed, and the result carries a new
	// memo — with the cached answers and fingerprint when no row was
	// added.
	AdvanceIncremental
)

// String names the kind for logs and stats.
func (k AdvanceKind) String() string {
	switch k {
	case AdvanceRevalidated:
		return "revalidated"
	case AdvanceIncremental:
		return "incremental"
	}
	return "none"
}

// incMaxDeltaDen is the delta-ratio fallback threshold: past
// NumEdges/incMaxDeltaDen since-edges the affected fraction is large
// enough that a full evaluation is usually cheaper than the bookkeeping.
const incMaxDeltaDen = 8

// advanceStatesCtr counts the product states the delta passes of the
// process charged (AdvanceStates).
var advanceStatesCtr atomic.Uint64

// AdvanceStates reports how many product states Program.Advance has
// charged to its state budgets since the process started: the states
// its resumed and rerun start assignments discovered (a resumed run
// charges only the states its recorded ones did not include, a re-stamp
// none). It is a deterministic count of the write path's work.
func AdvanceStates() uint64 { return advanceStatesCtr.Load() }

// Advance derives the result of evaluating the program against s from
// prev, a result for an older epoch of the same store, when it can do
// so soundly and cheaply; the kind reports the mechanism (see
// AdvanceKind). AdvanceNone with a nil error means "no sound shortcut —
// evaluate from scratch"; it is returned when the stores differ, the
// delta history has been trimmed past prev's epoch, the node count
// changed, prev carries no memo, the delta is too large a fraction of
// the graph, the query outputs witness paths and a since-edge is a live
// move from a state some run reached (or leaves a node one reached, on a
// memo of a lazy runner) or a start list grew, or an injected DeltaBFS
// fault aborts the attempt. Errors are the usual evaluation taxonomy
// (cancellation, deadline, budget) and mean the caller should fail the
// same way a full evaluation would.
//
// The returned Result shares prev's answer and memo storage whenever
// the content is unchanged; callers must treat both as immutable —
// exactly the contract cached results already have.
func (p *Program) Advance(ctx context.Context, prev *Result, s *graph.Snapshot, opts Options) (*Result, AdvanceKind, error) {
	if prev == nil || prev.Snap == nil || s == nil {
		return nil, AdvanceNone, nil
	}
	ps := prev.Snap
	if ps.Source() != s.Source() || ps.Epoch() > s.Epoch() {
		return nil, AdvanceNone, nil
	}
	if ps.Epoch() == s.Epoch() || !opts.NoPrune && len(prev.Answers) == 0 && p.emptyTable() {
		// A component that accepts nothing keeps the answer empty on any
		// graph.
		return restamp(prev, s), AdvanceRevalidated, nil
	}
	if ps.NumNodes() != s.NumNodes() {
		return nil, AdvanceNone, nil
	}
	since, ok := s.EdgesSince(ps.Epoch())
	if !ok {
		return nil, AdvanceNone, nil
	}
	if !p.liveUniversal {
		// Range-over-range disjointness: the delta's distinct labels
		// coalesce into a few ranges (adjacent interned labels usually
		// merge), so one merge-scan against the program's live ranges
		// settles revalidation even for label-rich write storms.
		if lr, lok := s.LabelRangesSince(ps.Epoch()); lok && !labelRangesIntersectLive(lr, p.liveRanges) {
			return restamp(prev, s), AdvanceRevalidated, nil
		}
	}
	m := prev.inc
	if m == nil || m.optsKey != opts.CacheKey() ||
		m.nodes != s.NumNodes() || len(m.comps) != len(p.comps) {
		return nil, AdvanceNone, nil
	}
	for _, cm := range m.comps {
		if cm == nil {
			return nil, AdvanceNone, nil
		}
	}
	if len(since)*incMaxDeltaDen > s.NumEdges() {
		return nil, AdvanceNone, nil
	}
	if err := faultinject.Inject(faultinject.DeltaBFS); err != nil {
		// A faulted delta pass degrades to the full fallback: the caller
		// recomputes from scratch with an identical answer set.
		return nil, AdvanceNone, nil
	}
	res, err := p.advanceIncremental(ctx, prev, s, opts, since)
	if err != nil {
		if errors.Is(err, errMemoStale) {
			return nil, AdvanceNone, nil
		}
		return nil, AdvanceNone, qerr.Classify(err)
	}
	if res == nil {
		return nil, AdvanceNone, nil
	}
	return res, AdvanceIncremental, nil
}

// restamp shallow-copies prev onto the new snapshot: answers, memo and
// fingerprint cell are shared (all describe the immutable answers), only
// the snapshot pointer moves.
func restamp(prev *Result, s *graph.Snapshot) *Result {
	return &Result{Query: prev.Query, Snap: s, Answers: prev.Answers, inc: prev.inc, fp: prev.fp}
}

// labelRangesIntersectLive merge-scans the delta's label ranges against
// the program's live ranges; both are sorted and disjoint, so one pass
// decides overlap.
func labelRangesIntersectLive(lr []graph.LabelRange, live []regex.Range) bool {
	i, j := 0, 0
	for i < len(lr) && j < len(live) {
		switch {
		case lr[i].Hi < live[j].Lo:
			i++
		case live[j].Hi < lr[i].Lo:
			j++
		default:
			return true
		}
	}
	return false
}

// advanceIncremental runs the delta pass. The start-domain pass runs
// again at the new snapshot — edges are only ever added, so a confined
// variable's list can only have grown — and then, per component, the
// start assignments with a recorded state that a relevant since-edge
// leaves (affectedAssignments) resume, those a grown list introduces
// run, and the rest replay; then the usual re-join and re-projection,
// unless no component gained a row: then the previous answers and
// fingerprint are re-stamped with the new memo. When no list grew and no
// assignment anywhere is affected the previous result is re-stamped
// outright — every relevant edge is a dead move from, or misses, every
// state an evaluation reaches. A query with witnesses gets that re-stamp
// or nothing: otherwise the result is nil.
func (p *Program) advanceIncremental(ctx context.Context, prev *Result, s *graph.Snapshot, opts Options, since []graph.DeltaEdge) (*Result, error) {
	m := prev.inc
	n := len(p.comps)
	ws := p.takeWorkspace()
	defer p.putWorkspace(ws)
	doms, err := ws.begin(ctx, s, opts)
	if err != nil {
		return nil, err
	}
	defer func() { advanceStatesCtr.Add(uint64(max(ws.bud.charged(), 0))) }()
	aff := make([][]uint64, n)
	olds := make([]*startSpace, n)
	if ws.delta == nil {
		ws.delta = make([]deltaIndex, n)
	}
	changed := false
	for i, c := range p.comps {
		e := ws.engines[i]
		e.reset(s, opts, doms)
		old, ok := e.memoSpace(m.comps[i])
		if !ok {
			return nil, errMemoStale
		}
		olds[i] = old
		for j, l := range m.comps[i].lists {
			if l != nil && !sortedSubset(e.space.lists[j], l) {
				changed = true // a list grew: new assignments to run
			}
		}
		if !ws.delta[i].build(since, c) {
			continue // no relevant since-edge: every held assignment replays
		}
		words, cnt := e.affectedAssignments(m.comps[i], &ws.delta[i])
		aff[i] = words
		changed = changed || cnt > 0
	}
	if !changed {
		return restamp(prev, s), nil
	}
	if !p.incCapable {
		return nil, nil
	}
	memos := make([]*compMemo, n)
	memoOK, grew := true, false
	for i, e := range ws.engines {
		e.startCapture()
		vr, g, err := advanceComponent(ctx, e, m.comps[i], olds[i], aff[i], &ws.delta[i], &ws.bud)
		if err != nil {
			return nil, err
		}
		memos[i] = e.memoCap
		memoOK = memoOK && !e.memoFailed
		ws.rels[i] = vr
		grew = grew || g
	}
	res := restamp(prev, s)
	if grew {
		if res, err = p.assemble(ctx, ws, s); err != nil {
			return nil, err
		}
	}
	res.inc = nil
	if memoOK {
		res.inc = &incMemo{optsKey: m.optsKey, nodes: m.nodes, comps: memos}
	}
	return res, nil
}
