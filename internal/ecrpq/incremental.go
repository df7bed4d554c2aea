package ecrpq

import (
	"context"
	"errors"
	"math"
	"slices"

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
//  2. Semi-naive delta BFS — node-tuple answers are monotone in the
//     edge relation, so an epoch advance that only added edges can only
//     add rows, and it can only do so for start assignments whose
//     closure reaches the source endpoint of a new edge. The memo
//     captured by EvalSnapshotMemo records, per start assignment, the
//     reached-node set and the accepted rows; Advance re-runs the BFS
//     for affected assignments only and replays the rest.
//
// Witness paths break monotonicity (a new edge can shorten the kept
// shortest witness without changing the node tuple), so the delta pass
// is restricted to queries without head path variables. A query with
// them captures the reached-node sets only, no rows, and Advance
// re-stamps it when no relevant since-edge leaves a reached node (or a
// start tuple) and no start list grew: then every run reads the same
// edges in the same order, so answers and witnesses are byte-identical;
// otherwise it falls back. Revalidation is sound either way. Node
// additions can create answers with no new edge at all (ε-accepting
// relations range over every node), so any change in node count forces
// the full fallback.
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
// the enumeration order of the start space it ran over: the sorted
// distinct nodes of every reached product state (empty for assignments
// whose BFS never left the start state — the start tuple is re-derived
// from the assignment instead) and the accepted rows, flat with stride
// stride. lists are that space's candidate lists, one per X variable,
// nil standing for every node of the graph (incMemo.nodes of them): the
// delta pass finds an assignment's segment by its node tuple, because a
// confined variable's list can grow between epochs. Everything is
// immutable once sealed; replay shares the backing storage across
// generations.
type compMemo struct {
	stride   int
	lists    [][]graph.Node
	touchOff []int32
	touched  []graph.Node
	rowOff   []int32
	rows     []graph.Node
}

// nAssign is the number of sealed segments; a nil memo holds none.
func (m *compMemo) nAssign() int {
	if m == nil {
		return 0
	}
	return len(m.touchOff) - 1
}

// entries counts the graph.Node and offset entries m holds, the unit of
// memoMaxEntries.
func (m *compMemo) entries() int { return len(m.touched) + len(m.rows) + len(m.touchOff) }

// appendSegments appends segments [lo, hi) of o to m, rebasing their
// offsets: the replay of an unaffected assignment and the merge of a
// fan-out chunk both copy segments this way.
func (m *compMemo) appendSegments(o *compMemo, lo, hi int) {
	tBase, rBase := int32(len(m.touched))-o.touchOff[lo], int32(len(m.rows))-o.rowOff[lo]
	m.touched = append(m.touched, o.touched[o.touchOff[lo]:o.touchOff[hi]]...)
	m.rows = append(m.rows, o.rows[o.rowOff[lo]:o.rowOff[hi]]...)
	for _, off := range o.touchOff[lo+1 : hi+1] {
		m.touchOff = append(m.touchOff, tBase+off)
	}
	for _, off := range o.rowOff[lo+1 : hi+1] {
		m.rowOff = append(m.rowOff, rBase+off)
	}
}

// memoMaxEntries bounds the total graph.Node/offset entries one
// component memo may hold (~32 MB); beyond it capture is abandoned and
// the result simply carries no memo.
const memoMaxEntries = 4 << 20

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
		size += int64(len(cm.touched)+len(cm.rows)) * 8
		size += int64(len(cm.touchOff)+len(cm.rowOff)) * 4
	}
	return size
}

// startCapture arms the engine's memo capture for one execution. A memo
// holds one segment per start assignment (memoSpace checks it), so a
// capturing execution finishes the sweep: stopSweep stands down to
// stopRow, which it implies. The memo outlives the execution, so the
// candidate lists it records are copies: the start-domain lists belong to
// the workspace.
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
	e.memoCap = &compMemo{
		stride:   len(e.c.allVars),
		lists:    lists,
		touchOff: make([]int32, 1, 64),
		rowOff:   make([]int32, 1, 64),
	}
	e.memoFailed = false
}

// captureChunks arms a fan-out sibling's capture for one execution, into
// m, storage the fan-out keeps for the sibling: the segments of every
// chunk it runs, one after the other, which the merge copies into the
// caller's memo.
func (e *componentEngine) captureChunks(m *compMemo) {
	m.stride = len(e.c.allVars)
	m.touched, m.rows = m.touched[:0], m.rows[:0]
	m.touchOff, m.rowOff = append(m.touchOff[:0], 0), append(m.rowOff[:0], 0)
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
// BFS completed: the reached-node set (sorted, distinct; skipped when
// the BFS never left the start state) and the row/touch offsets.
//
// An assignment the stop rule decided seals its one row and an empty
// reached set. Positive queries are monotone under AddEdge: the row can
// never be lost, and under the rule no later row of the assignment can be
// told from it, so no delta ever needs to re-run it for its closure — at
// worst a delta at its start tuple re-runs it to the same one row.
func (e *componentEngine) endCapAssign(decided bool) {
	m := e.memoCap
	if m == nil {
		return
	}
	if len(e.joints) > 1 && !decided {
		base := len(m.touched)
		m.touched = append(m.touched, e.curs[:len(e.joints)*e.cnt]...)
		seg := m.touched[base:]
		slices.Sort(seg)
		m.touched = m.touched[:base+len(slices.Compact(seg))]
	}
	m.touchOff = append(m.touchOff, int32(len(m.touched)))
	m.rowOff = append(m.rowOff, int32(len(m.rows)))
	e.checkCapture()
}

// replayAssign re-emits an unaffected assignment from the old memo: its
// rows (distinct, and no other assignment's) append to the relation in
// one copy, and the memo segment copies forward. Only programs without
// head path variables capture rows and run the delta pass, so the rows
// carry no witnesses.
func (e *componentEngine) replayAssign(old *compMemo, idx int) {
	seg := old.rows[old.rowOff[idx]:old.rowOff[idx+1]]
	e.rel.nodes = append(e.rel.nodes, seg...)
	e.rel.n += len(seg) / old.stride
	if e.memoCap != nil {
		e.memoCap.appendSegments(old, idx, idx+1)
		e.checkCapture()
	}
}

// errMemoStale signals that a memo does not line up with the current
// enumeration (defensive — the node-count and options guards in Advance
// should make it unreachable); the caller falls back to full eval.
var errMemoStale = errors.New("ecrpq: incremental memo out of step")

// memoSpace rebuilds the start space old was enumerated over, or false
// when the memo does not fit this component.
func (e *componentEngine) memoSpace(old *compMemo) (*startSpace, bool) {
	if len(old.lists) != len(e.c.xvars) {
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

// deltaSources returns the bitmap of source endpoints of the since-
// edges the component could traverse (labels in its live set), or nil
// when no since-edge is relevant to it at all.
func deltaSources(since []graph.DeltaEdge, c *component, numNodes int) []uint64 {
	var bits []uint64
	for _, de := range since {
		if !c.liveUniversal && !regex.RangesContain(c.liveRanges, de.Label) {
			continue
		}
		if bits == nil {
			bits = make([]uint64, (numNodes+63)/64)
		}
		if int(de.From) < numNodes {
			bits[de.From>>6] |= 1 << (uint64(de.From) & 63)
		}
	}
	return bits
}

// affectedAssignments computes which of the memo's start assignments a
// relevant delta can affect: those whose recorded reached-node set — or,
// for start-only assignments, whose start tuple — contains a delta
// source. An unaffected assignment's closure cannot see any new edge, so
// its rows are exactly reproduced by replay. oldSpace is the space the
// memo was enumerated over (memoSpace).
func (e *componentEngine) affectedAssignments(old *compMemo, oldSpace *startSpace, src []uint64) ([]uint64, int) {
	nA := old.nAssign()
	bits := make([]uint64, (nA+63)/64)
	count := 0
	hit := func(nd graph.Node) bool { return src[nd>>6]&(1<<(uint64(nd)&63)) != 0 }
	for idx := 0; idx < nA; idx++ {
		for _, nd := range old.touched[old.touchOff[idx]:old.touchOff[idx+1]] {
			if hit(nd) {
				bits[idx>>6] |= 1 << (uint(idx) & 63)
				count++
				break
			}
		}
	}
	// forRange only fails when its callback does.
	_ = oldSpace.forRange(0, uint64(nA), func(idx uint64, assign map[NodeVar]graph.Node) error {
		if old.touchOff[idx] != old.touchOff[idx+1] {
			return nil // reached set recorded and already checked
		}
		if start, ok := e.startTuple(assign); ok && slices.ContainsFunc(start, hit) {
			bits[idx>>6] |= 1 << (idx & 63)
			count++
		}
		return nil
	})
	return bits, count
}

// advanceComponent rebuilds one component's relation at the new
// snapshot by walking the new start space: an assignment the memo holds
// (found by node tuple in oldSpace) and the delta leaves alone replays
// its recorded rows; one the delta affects, or one a grown candidate
// list introduces, runs the product BFS and captures a fresh segment. A
// nil affected bitmap means no since-edge is relevant to the component.
func advanceComponent(ctx context.Context, e *componentEngine, old *compMemo, oldSpace *startSpace, aff []uint64, bud *stateBudget) (*varRelation, error) {
	err := e.space.forRange(0, math.MaxUint64, func(_ uint64, assign map[NodeVar]graph.Node) error {
		idx, held := oldSpace.indexOf(assign)
		if held && (aff == nil || aff[idx>>6]&(1<<(idx&63)) == 0) {
			e.replayAssign(old, int(idx))
			return nil
		}
		return e.runAssign(ctx, assign, bud)
	})
	if err != nil {
		return nil, err
	}
	return e.rel, nil
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
	// AdvanceIncremental: the semi-naive delta pass re-ran the product
	// BFS for affected start assignments only and replayed the rest, or
	// found none affected and re-stamped the cached answers (the only
	// kind of incremental advance a query with witnesses gets).
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

// Advance derives the result of evaluating the program against s from
// prev, a result for an older epoch of the same store, when it can do
// so soundly and cheaply; the kind reports the mechanism (see
// AdvanceKind). AdvanceNone with a nil error means "no sound shortcut —
// evaluate from scratch"; it is returned when the stores differ, the
// delta history has been trimmed past prev's epoch, the node count
// changed, prev carries no memo, the delta is too large a fraction of
// the graph, the query outputs witness paths and the delta reaches a
// node some run reached, or an injected DeltaBFS fault aborts the
// attempt. Errors are the usual evaluation taxonomy (cancellation,
// deadline, budget) and mean the caller should fail the same way a full
// evaluation would.
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

// advanceIncremental runs the semi-naive delta pass. The start-domain
// pass runs again at the new snapshot — edges are only ever added, so a
// confined variable's list can only have grown — and then, per
// component, the start assignments whose recorded closure (or start
// tuple) contains the source of a relevant since-edge, and those a grown
// list introduces, re-run; the rest replay; then the usual re-join and
// re-projection. When no list grew and no assignment anywhere is
// affected the previous result is re-stamped outright — the relevant
// edges landed at nodes no evaluation reaches. A query with witnesses
// gets that re-stamp or nothing: otherwise the result is nil.
func (p *Program) advanceIncremental(ctx context.Context, prev *Result, s *graph.Snapshot, opts Options, since []graph.DeltaEdge) (*Result, error) {
	m := prev.inc
	n := len(p.comps)
	ws := p.takeWorkspace()
	defer p.putWorkspace(ws)
	doms, err := ws.begin(ctx, s, opts)
	if err != nil {
		return nil, err
	}
	aff := make([][]uint64, n)
	olds := make([]*startSpace, n)
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
		src := deltaSources(since, c, s.NumNodes())
		if src == nil {
			continue // no relevant since-edge: every held assignment replays
		}
		bits, cnt := e.affectedAssignments(m.comps[i], old, src)
		aff[i] = bits
		changed = changed || cnt > 0
	}
	if !changed {
		return restamp(prev, s), nil
	}
	if !p.incCapable {
		return nil, nil
	}
	memos := make([]*compMemo, n)
	memoOK := true
	for i, e := range ws.engines {
		e.startCapture()
		vr, err := advanceComponent(ctx, e, m.comps[i], olds[i], aff[i], &ws.bud)
		if err != nil {
			return nil, err
		}
		memos[i] = e.memoCap
		memoOK = memoOK && !e.memoFailed
		ws.rels[i] = vr
	}
	res, err := p.assemble(ctx, ws, s)
	if err != nil {
		return nil, err
	}
	if memoOK {
		res.inc = &incMemo{optsKey: m.optsKey, nodes: m.nodes, comps: memos}
	}
	return res, nil
}
