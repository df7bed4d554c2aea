package ecrpq

import (
	"cmp"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/regex"
	"repro/internal/relations"
)

// prodCore is the machinery shared by every dense product-BFS driver
// (the evaluator's componentEngine and the explicit-automaton
// productBuilder): the component, the pinned graph snapshot (base CSR
// plus delta overlay), the joint runner, the tuple-symbol interning
// whose dense ids must stay aligned with the runner's, and the
// label-directed move plan — keeping those invariants in one place.
//
// Everything graph-dependent reads the immutable *graph.Snapshot, never
// a live *graph.DB, so an execution is isolated from concurrent writers
// for its whole lifetime and memos keyed on the snapshot stay valid
// exactly as long as the epoch does.
type prodCore struct {
	moveKernel

	c *component

	runner *relations.JointRunner
	syms   tupleSet // label tuples → dense symbol ids (== runner ids)

	// Packed product-state key layout of the current BFS run, chosen by
	// planStates: the joint id in the top jointBits, then cnt node fields
	// of nodeBits each. statesPacked is false when the run's states do
	// not fit one word and its membership sets start on the generic table.
	nodeBits, jointBits uint
	statesPacked        bool

	symRunes []rune // symID's scratch for runner.AddSym
}

// liveSource is where a kernel reads the live label sets of a joint
// state: the driver's JointRunner, or a test's fixed table.
type liveSource interface {
	Live(jointID int) []relations.LiveSet
}

// moveKernel is the one move planner and enumerator of the product BFS:
// for a product state it plans the admissible moves per coordinate
// (prepareMoves) and enumerates their combinations in the contract order
// (forEachMove), handing each to emit. Every driver embeds one through
// prodCore — the evaluator, the automaton builders and the start-domain
// pass — and differs only in the emit function it binds (once, at
// construction).
type moveKernel struct {
	snap *graph.Snapshot
	cnt  int

	// part is the component's label-space partition when its atoms carry
	// character classes (nil otherwise — the legacy per-label mode). In
	// class mode the runner transitions on class runes and the move plan
	// translates the snapshot's label runs to classes; witnesses still
	// record raw labels (symLabs).
	part *regex.Partition

	// noPrune disables the label-directed move planning: prepareMoves
	// then plans the exhaustive enumeration (every out-edge plus ⊥ at
	// every coordinate). The joint runner's dead-subset elimination
	// stays active either way, so the ablation isolates move
	// enumeration, not the whole analysis. Answers are identical.
	noPrune bool

	live liveSource

	// Move plan for the product state currently being expanded, filled
	// by prepareMoves: per coordinate, (start, end, sym) triples — a
	// virtual edge range into the snapshot's segments (resolved by
	// Snapshot.EdgeRange) plus the runner symbol of the whole run: -1
	// means "read each edge's own label" (legacy mode), a non-negative
	// value is the fixed class rune every edge of the run steps by
	// (class mode) — plus whether the ⊥ stay-move is live.
	moveRuns [][]int32
	botOK    []bool

	// effLive memoizes, per joint state id, the graph-effective live
	// sets: the source's live labels intersected with the snapshot's
	// alphabet, collapsed to the All fast path when they cover it — so a
	// permissive (full-alphabet) regex pays nothing per state. Valid for
	// effSnap only (one epoch of one DB); liveFor clears it when the
	// snapshot changes.
	effLive [][]relations.LiveSet
	effSnap *graph.Snapshot

	// The move being enumerated, filled coordinate by coordinate: runner
	// symbol, raw graph labels (class mode: ≠ symInts) and target nodes.
	// moveCur holds the enumeration's input so the recursion is a method,
	// not a per-state closure; emit takes each complete move.
	symInts []int
	symLabs []rune
	next    []graph.Node
	moveCur []graph.Node
	emit    func() error

	// moves counts the moves handed to emit: the measured work every
	// parallel decision of the evaluator estimates from (see parallel.go).
	// Its owner resets it.
	moves int
}

func newMoveKernel(snap *graph.Snapshot, cnt int, part *regex.Partition, live liveSource) moveKernel {
	return moveKernel{
		snap:     snap,
		cnt:      cnt,
		part:     part,
		live:     live,
		moveRuns: make([][]int32, cnt),
		botOK:    make([]bool, cnt),
		symInts:  make([]int, cnt),
		symLabs:  make([]rune, cnt),
		next:     make([]graph.Node, cnt),
	}
}

// newProdCore builds the shared product machinery. snap may be nil when
// the core is compiled ahead of any graph (componentEngine.reset
// installs the snapshot before each execution).
func newProdCore(snap *graph.Snapshot, c *component) prodCore {
	cnt := len(c.vars)
	runner := relations.NewJointRunner(c.joint)
	return prodCore{
		moveKernel: newMoveKernel(snap, cnt, c.part, runner),
		c:          c,
		runner:     runner,
		syms:       newSymSet(cnt),
		symRunes:   make([]rune, cnt),
	}
}

// release unpins the snapshot of a kernel going back to a pool. The
// graph-effective live memo (effLive, keyed on effSnap) is retained for
// the unchanged-epoch serving case — the next execution against the same
// snapshot reuses it wholesale — but only while the snapshot is small:
// past maxPooledScratch edges a stale memo would pin an O(m) snapshot in
// an idle pooled engine, so it is dropped (recomputing liveFor is
// negligible next to any BFS at that scale).
func (k *moveKernel) release() {
	k.snap = nil
	if k.effSnap != nil && k.effSnap.NumEdges() > maxPooledScratch {
		k.effSnap = nil
		k.effLive = k.effLive[:0]
	}
}

// tupleSet is one dense-id membership structure of the product BFS — the
// product states of a run, or the tuple symbols of a driver. It holds
// exactly one representation at a time: the single-word intern.Packed
// while every tuple fits the key layout, the generic intern.Table from
// the first tuple that does not (spill moves the members over in id
// order, so ids survive the switch). All access goes through
// prodCore.internState and prodCore.internSym, which own the two key
// layouts.
type tupleSet struct {
	packed *intern.Packed
	table  *intern.Table
	buf    []int // generic-path tuple scratch of internState
}

// reset empties the set for reuse on the given representation, dropping
// the other one so a pooled engine never retains both.
func (s *tupleSet) reset(packed bool) {
	switch {
	case packed && s.packed != nil:
		s.packed.Reset()
	case packed:
		s.packed, s.table = intern.NewPacked(0), nil
	case s.table != nil:
		s.table.Reset()
	default:
		s.packed, s.table = nil, intern.NewTable(0)
	}
}

// oversized reports whether the set's retained storage exceeds
// maxPooledScratch elements, a packed slot counting two. A set is kept
// from one execution to the next and reset for reuse; the owner going
// idle drops it once it is oversized — componentEngine.release (run by
// putWorkspace) for a run's state set, propAtom.put for a
// domain engine's — so an idle workspace never pins a peak-sized table.
func (s *tupleSet) oversized() bool {
	if s.packed != nil {
		return 2*s.packed.Cap() > maxPooledScratch
	}
	return s.table != nil && s.table.Cap() > maxPooledScratch
}

// spill moves a packed set onto the generic table, decoding each key
// back into its tuple — an optional head field above n fields of width
// bits — and re-interning in id order, which reproduces the ids.
func (s *tupleSet) spill(n int, width uint, head bool) {
	keys := s.packed.AppendKeys(nil)
	s.packed, s.table = nil, intern.NewTable(len(keys))
	size := n
	if head {
		size++
	}
	tup := make([]int, size)
	fields := tup[size-n:]
	for _, k := range keys {
		for i := n - 1; i >= 0; i-- {
			fields[i] = int(k & (1<<width - 1))
			k >>= width
		}
		if head {
			tup[0] = int(k)
		}
		s.table.Intern(tup)
	}
}

// symBits is the width of one component of a packed tuple symbol: a
// Unicode label, a class rune or ⊥ fits 21 bits, so components of up to
// three tapes pack into one word.
const symBits = 21

// packedKeyBits is the width of a packed key, and minJointBits the least
// room a product-state key keeps for the joint id: graphs too large to
// leave it start on the generic table instead of spilling a few states
// into every run. Vars, not consts, so tests can force the generic
// representation and mid-run spills on small inputs.
var (
	packedKeyBits = 64
	minJointBits  = 8
)

// newSymSet returns an empty symbol set for cnt-tape symbols. Symbol
// sets live as long as their engine (ids stay aligned with the runner),
// so the representation is picked once, from the tape count.
func newSymSet(cnt int) tupleSet {
	var s tupleSet
	s.reset(cnt*symBits <= packedKeyBits)
	return s
}

// internSym interns a cnt-tuple symbol into set, packing it into one word
// while every component fits symBits.
func (pc *prodCore) internSym(set *tupleSet, tup []int) (id int, added bool) {
	if set.packed != nil {
		var key, over uint64
		for _, x := range tup {
			key = key<<symBits | uint64(x)
			over |= uint64(x) >> symBits
		}
		if over == 0 {
			return set.packed.Intern(key)
		}
		set.spill(pc.cnt, symBits, false)
	}
	return set.table.Intern(tup)
}

// planStates fixes the product-state key layout for one BFS run from
// what the input shows: node fields as wide as the snapshot's node count
// needs, the joint id in whatever remains — packed only when that leaves
// room for the joint states the runner already has (and minJointBits at
// least). Joint states discovered mid-run that outgrow the field spill
// the affected set; later runs then start generic.
func (pc *prodCore) planStates() {
	pc.nodeBits = uint(bits.Len(uint(max(pc.snap.NumNodes()-1, 1))))
	need := max(minJointBits, bits.Len(uint(pc.runner.NumStates())))
	pc.statesPacked = pc.cnt*int(pc.nodeBits)+need <= packedKeyBits
	if pc.statesPacked {
		pc.jointBits = uint(packedKeyBits) - uint(pc.cnt)*pc.nodeBits
	}
}

// internState interns the product state (joint, nodes…) into set — the
// run's state table, reset with pc.statesPacked — under the layout
// planStates chose.
func (pc *prodCore) internState(set *tupleSet, joint int, nodes []graph.Node) (id int, added bool) {
	if set.packed != nil {
		key, over := uint64(joint), uint64(joint)>>pc.jointBits
		for _, n := range nodes {
			key = key<<pc.nodeBits | uint64(n)
			over |= uint64(n) >> pc.nodeBits
		}
		if over == 0 {
			return set.packed.Intern(key)
		}
		set.spill(pc.cnt, pc.nodeBits, true)
	}
	tup := append(set.buf[:0], joint)
	for _, n := range nodes {
		tup = append(tup, int(n))
	}
	set.buf = tup
	return set.table.Intern(tup)
}

// symID interns the tuple symbol currently in symInts, registering it
// with the joint runner on first sight. The symbol set and the runner
// assign dense ids in the same insertion order, so the returned id is
// valid for runner.Step/SymRunes/SymString.
func (pc *prodCore) symID() int {
	id, fresh := pc.internSym(&pc.syms, pc.symInts)
	if fresh {
		for k, x := range pc.symInts {
			pc.symRunes[k] = rune(x)
		}
		pc.runner.AddSym(pc.symRunes)
	}
	return id
}

// startTuple computes the start node tuple for assign into pc.next
// (valid until the next move enumeration), or ok=false when a repeated
// path variable's atoms disagree on the start node.
func (pc *prodCore) startTuple(assign map[NodeVar]graph.Node) ([]graph.Node, bool) {
	start := pc.next[:pc.cnt]
	for i, atoms := range pc.c.atomsOf {
		s := assign[atoms[0].X]
		for _, a := range atoms[1:] {
			if assign[a.X] != s {
				return nil, false
			}
		}
		start[i] = s
	}
	return start, true
}

// liveFor returns the graph-effective live sets of jointID, memoized
// per joint state for the lifetime of the pinned snapshot (i.e. one
// epoch): an unchanged-epoch re-evaluation reuses the memo wholesale.
func (k *moveKernel) liveFor(jointID int) []relations.LiveSet {
	if k.snap != k.effSnap {
		k.effLive = k.effLive[:0]
		k.effSnap = k.snap
	}
	for len(k.effLive) <= jointID {
		k.effLive = append(k.effLive, nil)
	}
	if eff := k.effLive[jointID]; eff != nil {
		return eff
	}
	eff := k.live.Live(jointID)
	if k.part == nil {
		// Legacy mode only: in class mode the live labels are class
		// runes, not graph labels, so the snapshot-alphabet intersection
		// does not apply — the move plan translates runs to classes.
		eff = effectiveLive(eff, k.snap.Alphabet())
	}
	k.effLive[jointID] = eff
	return eff
}

// effectiveLive intersects the runner's live sets with the snapshot's
// alphabet, collapsing to the All fast path when a set covers it — the
// transform behind liveFor.
func effectiveLive(src []relations.LiveSet, alpha []rune) []relations.LiveSet {
	eff := make([]relations.LiveSet, len(src))
	for i, ls := range src {
		if ls.All || len(ls.Labels) == 0 {
			eff[i] = ls
			continue
		}
		inter := intersectSorted(ls.Labels, alpha)
		eff[i] = relations.LiveSet{All: len(inter) == len(alpha), Bot: ls.Bot, Labels: inter}
	}
	return eff
}

// intersectSorted intersects two sorted slices into a fresh one.
func intersectSorted[T cmp.Ordered](a, b []T) []T {
	return appendIntersection(make([]T, 0, min(len(a), len(b))), a, b)
}

// appendIntersection appends the intersection of two sorted slices to out.
func appendIntersection[T cmp.Ordered](out, a, b []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// appendLiveRuns appends to rr the (start, end, -1) triples of the
// runs in runs whose label belongs to the sorted live set lab. For
// each run (few — one per distinct label of the segment) it
// binary-searches the shrinking tail of lab: O(runs·log|live|),
// cheaper than a linear merge when the live set is broad. Adjacent
// selected runs coalesce into one contiguous range (they abut in the
// segment's edge array) — but never across calls: coalescing stops at
// the rr prefix that was already present, so base and delta segments
// stay separate triples.
func appendLiveRuns(rr []int32, runs []graph.LabelRun, lab []rune) []int32 {
	floor := len(rr)
	li := 0
	for _, run := range runs {
		lo, hi := li, len(lab)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if lab[mid] < run.Label {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		li = lo
		if li == len(lab) {
			break
		}
		if lab[li] == run.Label {
			if n := len(rr); n > floor && rr[n-2] == run.Start {
				rr[n-2] = run.End
			} else {
				rr = append(rr, run.Start, run.End, -1)
			}
			li++
			if li == len(lab) {
				break
			}
		}
	}
	return rr
}

// prepareMoves computes the per-coordinate admissible moves for the
// product state with joint state jointID and node tuple cur: the
// intersection of the runner's live labels with the snapshot's label
// runs at each coordinate's node — base segment and delta overlay both
// consulted — plus the ⊥ stay-move where the runner admits it. It
// returns false when some coordinate has no move at all — the state is
// dead and the caller skips its expansion entirely.
func (k *moveKernel) prepareMoves(jointID int, cur []graph.Node) bool {
	if k.noPrune {
		for i, v := range cur {
			if k.part != nil {
				k.moveRuns[i] = appendClassRuns(k.snap, k.part, v, nil, k.moveRuns[i][:0])
			} else {
				k.moveRuns[i] = appendAllRuns(k.snap, v, k.moveRuns[i][:0])
			}
			k.botOK[i] = true
		}
		return true
	}
	live := k.liveFor(jointID)
	for i, v := range cur {
		ls := live[i]
		var rr []int32
		if k.part != nil {
			rr = planClassCoordMoves(k.snap, k.part, ls, v, k.moveRuns[i][:0])
		} else {
			rr = planCoordMoves(k.snap, ls, v, k.moveRuns[i][:0])
		}
		k.moveRuns[i] = rr
		k.botOK[i] = ls.Bot
		if len(rr) == 0 && !ls.Bot {
			return false
		}
	}
	return true
}

// appendAllRuns appends the node's whole out-edge ranges — at most one
// per segment — as (start, end, -1) triples: the legacy exhaustive and
// All-live move plan.
func appendAllRuns(snap *graph.Snapshot, v graph.Node, rr []int32) []int32 {
	var tmp [4]int32
	for t := snap.AppendOutRanges(v, tmp[:0]); len(t) >= 2; t = t[2:] {
		rr = append(rr, t[0], t[1], -1)
	}
	return rr
}

// planClassCoordMoves is planCoordMoves for a class-compiled component:
// the live set carries class runes, so the plan walks the node's label
// runs in both segments, translating each run's label to its class and
// keeping the runs whose class is live. Each kept run becomes a
// (start, end, class) triple — the class is constant across the run, so
// the enumeration steps the runner without touching per-edge labels.
func planClassCoordMoves(snap *graph.Snapshot, part *regex.Partition, ls relations.LiveSet, v graph.Node, rr []int32) []int32 {
	switch {
	case ls.All:
		rr = appendClassRuns(snap, part, v, nil, rr)
	case len(ls.Labels) > 0:
		rr = appendClassRuns(snap, part, v, ls.Labels, rr)
	}
	return rr
}

// appendClassRuns appends (start, end, class) triples for the node's
// label runs across both segments, mapping each run's label to its
// partition class. live (sorted class runes) filters the runs; nil
// keeps every run, including dead-class ones — the runner then rejects
// those symbols itself, matching the legacy exhaustive semantics.
// Adjacent same-class runs coalesce within a segment, never across the
// base/delta boundary (a triple must not span segments).
func appendClassRuns(snap *graph.Snapshot, part *regex.Partition, v graph.Node, live []rune, rr []int32) []int32 {
	for _, runs := range [2][]graph.LabelRun{snap.BaseRuns(v), snap.DeltaRuns(v)} {
		floor := len(rr)
		for _, run := range runs {
			c := part.ClassOf(run.Label)
			if live != nil && !runeInSorted(live, c) {
				continue
			}
			if n := len(rr); n > floor && rr[n-1] == int32(c) && rr[n-2] == run.Start {
				rr[n-2] = run.End
			} else {
				rr = append(rr, run.Start, run.End, int32(c))
			}
		}
	}
	return rr
}

// planCoordMoves selects one coordinate's admissible edge runs: the
// node's label runs intersected with the live set ls, appended to rr as
// (start, end, -1) triples, base segment before delta. Pure over the
// snapshot; rr is the caller's scratch.
func planCoordMoves(snap *graph.Snapshot, ls relations.LiveSet, v graph.Node, rr []int32) []int32 {
	switch {
	case ls.All:
		rr = appendAllRuns(snap, v, rr)
	case len(ls.Labels) > 0:
		rr = appendLiveRuns(rr, snap.BaseRuns(v), ls.Labels)
		if dr := snap.DeltaRuns(v); len(dr) != 0 {
			rr = appendLiveRuns(rr, dr, ls.Labels)
		}
	}
	return rr
}

// forEachMove enumerates the move combinations planned by the last
// prepareMoves, leaving each combination in symInts/symLabs/next and
// calling emit; a non-nil error from emit stops the enumeration. cur
// must be the node tuple passed to prepareMoves (the ⊥ stay-move keeps
// the coordinate's node). The order is the determinism contract of every
// driver: per coordinate ⊥ first, then the planned runs in order (base
// segment before delta), coordinates nested first-outermost.
func (k *moveKernel) forEachMove(cur []graph.Node) error {
	k.moveCur = cur
	err := k.enumMoves(0)
	k.moveCur = nil
	return err
}

func (k *moveKernel) enumMoves(i int) error {
	if i == k.cnt {
		k.moves++
		return k.emit()
	}
	if k.botOK[i] {
		k.symInts[i] = int(regex.Bot)
		k.symLabs[i] = regex.Bot
		k.next[i] = k.moveCur[i]
		if err := k.enumMoves(i + 1); err != nil {
			return err
		}
	}
	// Each (start, end, sym) triple resolves to one contiguous base or
	// delta slice; sym ≥ 0 is the run's fixed class rune, -1 means step
	// by each edge's own label.
	rr := k.moveRuns[i]
	for j := 0; j+2 < len(rr); j += 3 {
		fixed := rr[j+2]
		for _, ed := range k.snap.EdgeRange(rr[j], rr[j+1]) {
			if fixed >= 0 {
				k.symInts[i] = int(fixed)
			} else {
				k.symInts[i] = int(ed.Label)
			}
			k.symLabs[i] = ed.Label
			k.next[i] = ed.To
			if err := k.enumMoves(i + 1); err != nil {
				return err
			}
		}
	}
	return nil
}
