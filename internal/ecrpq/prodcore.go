package ecrpq

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/regex"
	"repro/internal/relations"
)

// prodCore is the machinery shared by every dense product-BFS driver
// (the evaluator's componentEngine, the explicit-automaton productBuilder
// and the start-domain pass's domainEngine): the component, the move
// kernel with its pinned graph snapshot (base CSR plus delta overlay),
// joint automaton (the component's minimal table or a lazy runner) and
// transition rows, and the product-state key layout — keeping those
// invariants in one place.
//
// Everything graph-dependent reads the immutable *graph.Snapshot, never
// a live *graph.DB, so an execution is isolated from concurrent writers
// for its whole lifetime. Nothing the kernel memoizes depends on the
// snapshot: live sets and transitions are over the component's classes.
type prodCore struct {
	moveKernel

	c *component

	// Product-state key layout of the current BFS run, chosen by
	// planStates: cnt node fields of nodeBits each below the joint id —
	// the bitset's index, and a packed table's key with the joint id in
	// the top jointBits. statesPacked is false when the run's states do
	// not fit one word and a table-backed set starts generic.
	nodeBits, jointBits uint
	statesPacked        bool
}

// jointSource is what the kernel and its owners read of the joint
// automaton: the start state, the states known so far, acceptance, the
// live class sets of a state and its successor by a symbol. It is the
// component's minimal table (relations.ClassDFA, whose symbols are row
// indices and which the kernel never has to step), the engine's lazy
// JointRunner (whose symbols are registered tuple ids), or a kernel
// test's stub.
type jointSource interface {
	StartID() int
	NumStates() int
	Accepting(state int) bool
	Live(state int) []relations.LiveSet
	Step(state, sym int) (int, bool)
}

// emitter is the owner's side of the kernel: emitMove takes each live move
// the kernel enumerates, left in the kernel's scratch (symLabs, next),
// with its successor joint state. An interface, not a func value, so a
// move costs one indirect call, not two.
type emitter interface {
	emitMove(succ int) error
}

// maxRowWidth bounds a lazy flat transition row. A lazy kernel whose
// symbol space k^cnt is wider keeps no rows and resolves every run
// through the symbol table and the runner (moveKernel.miss).
const maxRowWidth = 4096

// moveKernel is the one move planner, enumerator and joint stepper of the
// product BFS: for a product state it plans the admissible label runs per
// coordinate (prepareMoves), enumerates their combinations in the
// contract order (forEachMove), resolves the successor joint state once
// per innermost run, and hands each live move to emit with that
// successor. Every BFS owner embeds one through prodCore — the evaluator,
// the automaton builders and the start-domain pass — and differs only in
// the emitter it binds (itself, at construction).
//
// Every component is class-compiled, so each run of one label carries one
// class and every edge of a run steps the joint automaton alike: the
// successor depends on the (state, run), not on the edge. The kernel reads
// successors from flat rows, one per joint state, indexed Σ classᵢ·pow[i];
// an entry is −1 dead, otherwise next+1. bindJoint picks the automaton:
//
//   - the component's minimal table (component.table, built once per
//     program and shared, lock-free, by every engine of every workspace): its
//     rows are over the table's coarse classes, which appendRuns maps each
//     run's class to, and complete, so the kernel never misses;
//   - the lazy runner (lazyJoint), under NoPrune, for the explicit
//     automaton builders, and for a component whose table exploration
//     passed its bound: rows over the partition's classes (k =
//     NumClasses()+2 per coordinate, ⊥ class 0, the dead class k−1), each
//     filled entry by entry, 0 meaning unknown, through the symbol table
//     and the runner (miss).
type moveKernel struct {
	snap *graph.Snapshot
	cnt  int

	// part is the component's label-space partition: the move plan maps
	// the snapshot's label runs to its classes, which the runner
	// transitions on; witnesses still record raw labels (symLabs).
	part *regex.Partition

	// noPrune disables the label-directed move planning: prepareMoves
	// then plans the exhaustive enumeration (every out-edge plus ⊥ at
	// every coordinate). The joint runner's dead-subset elimination
	// stays active either way, so the ablation isolates move
	// enumeration, not the whole analysis. Answers are identical.
	noPrune bool

	// src is the joint automaton the kernel reads, tab the component's
	// minimal table when src is that table (nil in lazy mode), and pow the
	// place values of the rows src has.
	src jointSource
	tab *relations.ClassDFA
	pow []int

	lazyJoint

	// Move plan for the product state currently being expanded, filled
	// by prepareMoves: per coordinate, (start, end, class) triples — a
	// virtual edge range into the snapshot's segments (resolved by
	// Snapshot.EdgeRange) whose edges all map to one class — plus whether
	// the ⊥ stay-move is live.
	moveRuns [][]int32
	botOK    []bool

	// The move being enumerated, filled coordinate by coordinate: class
	// runes (set once per run), raw graph labels and target nodes. joint,
	// row and moveCur hold the enumeration's input so the recursion is a
	// method, not a per-state closure; emit takes each complete live move
	// with its successor joint state.
	symInts []int
	symLabs []rune
	next    []graph.Node
	joint   int
	row     []int32
	moveCur []graph.Node
	emit    emitter

	// moves counts the move combinations enumerated, dead ones included:
	// the measured work every parallel decision of the evaluator estimates
	// from (see parallel.go). Its owner resets it.
	moves int
}

// lazyJoint is the kernel's lazy half: the joint runner, learning the
// joint DFA state by state, with the symbol set that interns class tuples
// to the runner's dense symbol ids (symID) and the flat rows filled as
// the runner steps. An engine builds it on its first lazy execution.
type lazyJoint struct {
	runner   *relations.JointRunner
	syms     tupleSet
	symRunes []rune // symID's scratch for runner.AddSym

	// Flat transition rows: lazyPow[i] = kⁱ (all zero when rowWidth is 0,
	// the component's symbol space being wider than maxRowWidth), flat[j]
	// the row of joint state j (nil until j is first expanded) and
	// flatCells their total size, which release holds to maxPooledScratch.
	lazyPow   []int
	rowWidth  int
	flat      [][]int32
	flatCells int
}

// newProdCore builds the shared product machinery. snap may be nil when
// the core is compiled ahead of any graph (componentEngine.reset
// installs the snapshot before each execution). Its owner binds the
// joint automaton (bindJoint) before the first run.
func newProdCore(snap *graph.Snapshot, c *component) prodCore {
	cnt := len(c.vars)
	return prodCore{
		moveKernel: moveKernel{
			snap:     snap,
			cnt:      cnt,
			part:     c.part,
			moveRuns: make([][]int32, cnt),
			botOK:    make([]bool, cnt),
			symInts:  make([]int, cnt),
			symLabs:  make([]rune, cnt),
			next:     make([]graph.Node, cnt),
		},
		c: c,
	}
}

// bindJoint points the kernel at the component's minimal table when it
// has one and table is set — an execution that prunes — and at the lazy
// runner otherwise, which it builds on first use. Both stay with the
// engine: a pooled engine switches between them from one execution to
// the next.
func (pc *prodCore) bindJoint(table bool) {
	if table {
		if d := pc.c.table(); d != nil {
			pc.tab, pc.src, pc.pow = d, d, d.Pow
			return
		}
	}
	if pc.runner == nil {
		pc.runner = relations.NewJointRunner(pc.c.joint)
		pc.syms = newSymSet(pc.cnt)
		pc.symRunes = make([]rune, pc.cnt)
		pc.lazyPow, pc.rowWidth = rowLayout(pc.part.NumClasses()+2, pc.cnt)
	}
	pc.tab, pc.src, pc.pow = nil, pc.runner, pc.lazyPow
}

// rowLayout returns the place values kⁱ of a cnt-coordinate symbol index
// over k classes per coordinate and the row width k^cnt, or all-zero
// place values and width 0 when the width would exceed maxRowWidth.
func rowLayout(k, cnt int) (pow []int, width int) {
	pow = make([]int, cnt)
	width = 1
	for i := range pow {
		if width > maxRowWidth/k {
			return make([]int, cnt), 0
		}
		pow[i] = width
		width *= k
	}
	return pow, width
}

// release unpins the snapshot of a kernel going back to a pool. The lazy
// rows do not depend on the snapshot and stay for the next execution,
// unless together they exceed maxPooledScratch entries; the table is the
// component's.
func (k *moveKernel) release() {
	k.snap = nil
	if k.flatCells > maxPooledScratch {
		k.flat, k.flatCells = nil, 0
	}
}

// tupleSet is one membership structure of the product BFS — the product
// states of a run, or the tuple symbols of a driver — in one of three
// representations, picked per run from the input:
//
//   - bits, a direct-indexed bitset over the packed product-state key, for
//     the owners that only test membership (componentEngine and
//     domainEngine, through beginVisit and visit) while the blocks of the
//     run's joint states fit bitsetWords;
//   - the single-word intern.Packed while every tuple fits the key layout;
//   - the generic intern.Table from the first tuple that does not.
//
// The two tables assign dense ids; a set holds at most one of them, and a
// spill moves the members over in id order, so ids survive the switch.
// The bitset assigns none: a run that outgrows it spills its members to a
// table in key order, which its owners cannot tell. All access goes
// through prodCore.visit, prodCore.internState and moveKernel.internSym,
// which own the two key layouts.
type tupleSet struct {
	packed *intern.Packed
	table  *intern.Table
	buf    []int // generic-path tuple scratch of internState

	// bits holds bit k iff the state with packed key k — joint<<shift |
	// node fields of nodeBits each — is a member: one block of 2^shift bits
	// per joint state, grown a block at a time. Words that hold no member
	// are zero over the whole capacity. onBits says the states of the last
	// run readied by beginVisit are in bits (a spill clears it and the
	// bitset); its nodeBits and shift are that run's layout, which the next
	// beginVisit clears its states under.
	bits            []uint64
	nodeBits, shift uint
	onBits          bool
}

// reset empties the set for reuse on the given table representation,
// dropping the other one so a pooled engine never retains both. It does
// not touch bits: beginVisit owns the bitset.
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
// idle drops it once it is oversized — scratch.release (run by
// putWorkspace) for a run's state set, propAtom.put for a
// domain engine's — so an idle set never pins a peak-sized table.
// A bitset is never planned or grown past bitsetWords.
func (s *tupleSet) oversized() bool {
	if s.packed != nil {
		return 2*s.packed.Cap() > maxPooledScratch
	}
	return s.table != nil && s.table.Cap() > maxPooledScratch
}

// bytes is the set's retained storage: the bitset's words, a packed
// table's 16-byte slots, a generic table's arrays, and the scratch tuple.
func (s *tupleSet) bytes() int {
	n := 8 * (cap(s.bits) + cap(s.buf))
	if s.packed != nil {
		n += 16 * s.packed.Cap()
	}
	if s.table != nil {
		n += s.table.Bytes()
	}
	return n
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
// into every run. bitsetWords bounds a run's state bitset, in words (0
// turns the bitset off). Vars, not consts, so tests can force each
// representation and mid-run spills on small inputs.
var (
	packedKeyBits = 64
	minJointBits  = 8
	bitsetWords   = maxPooledScratch
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
func (k *moveKernel) internSym(set *tupleSet, tup []int) (id int, added bool) {
	if set.packed != nil {
		var key, over uint64
		for _, x := range tup {
			key = key<<symBits | uint64(x)
			over |= uint64(x) >> symBits
		}
		if over == 0 {
			return set.packed.Intern(key)
		}
		set.spill(k.cnt, symBits, false)
	}
	return set.table.Intern(tup)
}

// planStates fixes the product-state key layout for one BFS run from
// what the input shows: node fields as wide as the snapshot's node count
// needs, the joint id above them. A run on a hashed table packs its keys
// only when that leaves room for the joint states src already has (and
// minJointBits at least); joint states a lazy runner discovers mid-run
// that outgrow the field spill the affected set, and later runs then
// start generic.
// beginVisit puts a membership-only run on the bitset instead when the
// blocks of those joint states fit bitsetWords.
func (pc *prodCore) planStates() {
	pc.nodeBits = uint(bits.Len(uint(max(pc.snap.NumNodes()-1, 1))))
	need := max(minJointBits, bits.Len(uint(pc.src.NumStates())))
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

// beginVisit readies set for one run of an owner that reads no state ids
// (the evaluator, the start-domain pass). It first clears the bits of
// the set's previous run — whose states are joints[i] at
// nodes[i*cnt:(i+1)*cnt], cnt that run's tape count — under the layout
// the set recorded for it, not the snapshot's or the owner's current
// one; then it plans this run and puts it on the bitset when the blocks
// of the joint states known so far fit bitsetWords, on a table otherwise.
// The owner must not drop or truncate its state arrays while the set is
// on bits without dropping the set too.
func (pc *prodCore) beginVisit(set *tupleSet, joints []int32, nodes []graph.Node) {
	if set.onBits {
		set.clearStates(joints, nodes)
	}
	pc.planStates()
	shift := uint(pc.cnt) * pc.nodeBits
	if n, ok := bitsetLen(pc.src.NumStates(), shift); ok {
		set.packed, set.table = nil, nil
		set.bits = slices.Grow(set.bits[:0], n)[:n]
		set.nodeBits, set.shift, set.onBits = pc.nodeBits, shift, true
		return
	}
	set.bits, set.onBits = nil, false
	set.reset(pc.statesPacked)
}

// bitsetLen returns the words that blocks blocks of 2^shift bits take,
// or ok=false past bitsetWords.
func bitsetLen(blocks int, shift uint) (n int, ok bool) {
	if shift >= 64 || uint64(blocks) > uint64(bitsetWords)*64>>shift {
		return 0, false
	}
	return int((uint64(blocks)<<shift + 63) >> 6), true
}

// visit adds the product state (joint, nodes…) to set, readied by
// beginVisit, and reports whether it is new: internState for owners that
// read no ids, and on the bitset a single word test. A joint state past
// the bitset's blocks grows it; one that would grow it past bitsetWords,
// or a node outside the run's node field, spills it to a table.
func (pc *prodCore) visit(set *tupleSet, joint int, nodes []graph.Node) bool {
	if set.onBits {
		key, over := uint64(joint), uint64(0)
		for _, n := range nodes {
			key = key<<pc.nodeBits | uint64(n)
			over |= uint64(n) >> pc.nodeBits
		}
		if w := key >> 6; over == 0 && (w < uint64(len(set.bits)) || set.growBits(joint)) {
			m := uint64(1) << (key & 63)
			old := set.bits[w]
			set.bits[w] = old | m
			return old&m == 0
		}
		pc.spillBits(set)
	}
	_, added := pc.internState(set, joint, nodes)
	return added
}

// growBits extends the bitset to cover joint's block, reporting false
// when that would pass bitsetWords. The words it adds are zero: the
// capacity past len holds no member.
func (s *tupleSet) growBits(joint int) bool {
	n, ok := bitsetLen(joint+1, s.shift)
	if ok && n > len(s.bits) {
		s.bits = slices.Grow(s.bits, n-len(s.bits))[:n]
	}
	return ok
}

// spillBits moves the run's states from the bitset onto the table its
// layout allows, decoding each member's key into (joint, nodes…), and
// leaves the bitset clear. Bitset owners read no ids, so the key order
// the members arrive in is as good as discovery order.
func (pc *prodCore) spillBits(set *tupleSet) {
	set.onBits = false
	set.reset(pc.statesPacked)
	nodes := make([]graph.Node, pc.cnt)
	mask := uint64(1)<<set.nodeBits - 1
	for w, word := range set.bits {
		for ; word != 0; word &= word - 1 {
			key := uint64(w)<<6 | uint64(bits.TrailingZeros64(word))
			for i := pc.cnt - 1; i >= 0; i-- {
				nodes[i] = graph.Node(key & mask)
				key >>= set.nodeBits
			}
			pc.internState(set, int(key), nodes)
		}
	}
	clear(set.bits)
}

// clearStates zeroes the words of the given states under the set's
// recorded layout, whose shift is the run's cnt node fields (the stride
// in nodes): the next run starts on a clean bitset for the cost of the
// last run's states, not of the bitset, whichever engine ran them.
func (s *tupleSet) clearStates(joints []int32, nodes []graph.Node) {
	cnt := int(s.shift / s.nodeBits)
	for i, j := range joints {
		key := uint64(j)
		for _, n := range nodes[i*cnt : i*cnt+cnt] {
			key = key<<s.nodeBits | uint64(n)
		}
		s.bits[key>>6] = 0
	}
}

// symID interns the class tuple currently in symInts, registering it
// with the joint runner on first sight. The symbol set and the runner
// assign dense ids in the same insertion order, so the returned id is
// valid for runner.Step/SymRunes. Only successor's miss path
// reaches it.
func (k *moveKernel) symID() int {
	id, fresh := k.internSym(&k.syms, k.symInts)
	if fresh {
		for i, x := range k.symInts {
			k.symRunes[i] = rune(x)
		}
		k.runner.AddSym(k.symRunes)
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

// prepareMoves computes the per-coordinate admissible moves for the
// product state with joint state jointID and node tuple cur: the
// snapshot's label runs at each coordinate's node whose class the
// joint's live set admits, plus the ⊥ stay-move where the joint admits
// it. It returns false when some coordinate has no move at all — the
// state is dead and the caller skips its expansion entirely.
func (k *moveKernel) prepareMoves(jointID int, cur []graph.Node) bool {
	var live []relations.LiveSet
	if !k.noPrune {
		live = k.src.Live(jointID)
	}
	for i, v := range cur {
		rr, bot := k.moveRuns[i][:0], true
		switch {
		case live == nil || live[i].All:
			rr = k.appendRuns(i, v, nil, rr)
		case len(live[i].Labels) > 0:
			rr = k.appendRuns(i, v, live[i].Labels, rr)
		}
		if live != nil {
			bot = live[i].Bot
		}
		k.moveRuns[i], k.botOK[i] = rr, bot
		if len(rr) == 0 && !bot {
			return false
		}
	}
	return true
}

// appendRuns appends (start, end, class) triples for coordinate i's
// label runs at v, in label order, mapping each run's label to the class
// the rows index: its partition class, and on the table that class's
// coarse class. live (sorted classes) filters the runs; nil keeps every
// run, dead-class ones included — the runner then rejects those symbols
// itself, matching the exhaustive semantics.
func (k *moveKernel) appendRuns(i int, v graph.Node, live []rune, rr []int32) []int32 {
	var cmap []rune
	n := k.part.NumClasses()
	if k.tab != nil {
		cmap, n = k.tab.ClassMap[i], k.tab.Classes[i]
	}
	// A live set naming every class admits every run but the dead class's.
	full := len(live) == n
	return appendClassRuns(k.part, cmap, rune(n+1), k.snap.Runs(v), live, full, rr)
}

// appendClassRuns appends the triples of a node's runs (see
// appendRuns): cmap, when set, maps each partition class to the class
// the triples carry, dead is that class space's dead class and full says
// live names every other class. Adjacent same-class runs coalesce — on
// the table, runs of partition classes it cannot tell apart — when their
// edges are contiguous (one's End is the next one's Start); runs never
// coalesce across classes. Snapshot offsets keep base and overlay runs
// apart, so a coalesced triple always resolves within one segment.
func appendClassRuns(part *regex.Partition, cmap []rune, dead rune, runs []graph.LabelRun, live []rune, full bool, rr []int32) []int32 {
	for _, run := range runs {
		c := part.ClassOf(run.Label)
		if cmap != nil {
			c = cmap[c]
		}
		if live != nil && (c == dead || !full && !runeInSorted(live, c)) {
			continue
		}
		if n := len(rr); n > 0 && rr[n-1] == int32(c) && rr[n-2] == run.Start {
			rr[n-2] = run.End
		} else {
			rr = append(rr, run.Start, run.End, int32(c))
		}
	}
	return rr
}

// forEachMove enumerates the move combinations planned by the last
// prepareMoves for the product state (joint, cur), leaving each live one
// in symInts/symLabs/next and handing it to emit with its successor joint
// state; a non-nil error from emit stops the enumeration. cur must be the
// node tuple passed to prepareMoves (the ⊥ stay-move keeps the
// coordinate's node). The order is the determinism contract of every
// driver: per coordinate ⊥ first, then the planned runs in order (label,
// then target, in every snapshot layout), coordinates nested
// first-outermost.
func (k *moveKernel) forEachMove(joint int, cur []graph.Node) error {
	k.joint, k.moveCur, k.row = joint, cur, k.rowOf(joint)
	err := k.enumMoves(0, 0)
	k.moveCur, k.row = nil, nil
	return err
}

// rowOf returns joint state j's flat row: the table's, or the lazy one,
// allocated on j's first expansion; nil when a lazy kernel keeps no rows.
func (k *moveKernel) rowOf(j int) []int32 {
	if k.tab != nil {
		return k.tab.Row(j)
	}
	if k.rowWidth == 0 {
		return nil
	}
	for len(k.flat) <= j {
		k.flat = append(k.flat, nil)
	}
	if k.flat[j] == nil {
		k.flat[j] = make([]int32, k.rowWidth)
		k.flatCells += k.rowWidth
	}
	return k.flat[j]
}

// successor returns the row entry of the state being expanded for the
// tuple symbol whose classes symInts holds and whose row index is idx:
// -1 when the symbol is dead, otherwise the successor joint state + 1.
// It reads the state's flat row when it has one, and goes to miss when
// it has none or the entry is still unknown — never on the table, whose
// rows are complete.
func (k *moveKernel) successor(idx int) int32 {
	if k.row != nil {
		if v := k.row[idx]; v != 0 {
			return v
		}
	}
	return k.miss(idx)
}

// miss is successor's slow path and the one joint-step call site of the
// product BFS: the symbol table names the class tuple, the lazy runner
// steps by it, and the state's row (if any) keeps the outcome.
func (k *moveKernel) miss(idx int) int32 {
	v := int32(-1)
	if next, ok := k.src.Step(k.joint, k.symID()); ok {
		v = int32(next + 1)
	}
	if k.row != nil {
		k.row[idx] = v
	}
	return v
}

// enumMoves enumerates coordinate i and the ones after it; idx is the row
// index of the classes fixed at coordinates before i. At the innermost
// coordinate the successor is resolved once per run (and once for ⊥): a
// dead run is counted and skipped without reading its edges.
func (k *moveKernel) enumMoves(i, idx int) error {
	last := i == k.cnt-1
	if k.botOK[i] {
		k.symInts[i] = int(regex.Bot) // class 0: idx is unchanged
		k.symLabs[i] = regex.Bot
		k.next[i] = k.moveCur[i]
		var err error
		if last {
			k.moves++
			if v := k.successor(idx); v > 0 {
				err = k.emit.emitMove(int(v - 1))
			}
		} else {
			err = k.enumMoves(i+1, idx)
		}
		if err != nil {
			return err
		}
	}
	// Each (start, end, class) triple resolves to one contiguous base or
	// delta slice whose edges all step by the run's class.
	rr := k.moveRuns[i]
	for j := 0; j+2 < len(rr); j += 3 {
		c := int(rr[j+2])
		k.symInts[i] = c
		at := idx + c*k.pow[i]
		succ := 0
		if last {
			v := k.successor(at)
			if v < 0 {
				k.moves += int(rr[j+1] - rr[j])
				continue
			}
			succ = int(v - 1)
		}
		for _, ed := range k.snap.EdgeRange(rr[j], rr[j+1]) {
			k.symLabs[i] = ed.Label
			k.next[i] = ed.To
			var err error
			if last {
				k.moves++
				err = k.emit.emitMove(succ)
			} else {
				err = k.enumMoves(i+1, at)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
