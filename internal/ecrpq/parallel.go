package ecrpq

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/relations"
)

// This file is the multi-lane half of the product BFS: the levels of
// componentEngine.bfs (eval.go) that are wide enough to be sharded
// across W workers, with results byte-identical to running them inline.
//
// Layout. The global state arrays (curs, joints, parentState,
// parentSym) are the driver's — dense global ids in discovery order,
// which is what witness reconstruction and the memo capture read. What
// shards is the membership test: parShards intern tables, one per hash
// class of the (joint, nodes...) tuple, so dedup of a level's candidates
// runs without a global lock. Workers never consult membership during
// expansion at all — each lane runs the one move kernel (prodcore.go)
// over its own scratch with the lane-outbox emitter, which files every
// candidate into per-(worker, shard) outboxes; membership is decided at
// the barrier.
//
// A multi-lane level runs in four phases:
//
//  1. Expand (parallel): each lane scans a contiguous slice of the
//     frontier [lo, hi), records accept candidates (checked tuple +
//     reconstructed witnesses) and emits successor candidates to its
//     outboxes, tagging each with its emission order. (With a stop rule
//     armed the driver has applied the level's accepts already — see
//     componentEngine.bfs — and the lanes record none.)
//  2. Accepts (sequential): lane-order application of the accept
//     records. Lane k's slice precedes lane k+1's, and within a lane
//     records are in scan order, so rows apply in exactly the order an
//     inline head cursor would have produced.
//  3. Dedup (parallel over shards): shard s interns its candidates —
//     lanes in order, within a lane in emission order, which is exactly
//     ascending global sequence order restricted to the shard — and
//     marks the first occurrence of each tuple fresh.
//  4. Merge (sequential): lanes in order, candidates in emission order;
//     fresh ones append to the global arrays and spend budget. This is
//     the same first-discovery order the inline level's immediate
//     interning produces, so state ids, parent pointers and budget
//     charges are identical.
//
// Determinism. Answers, witness paths and Result.Fingerprint are
// byte-identical at any worker count: level order preserves BFS level
// structure, phase 4 reproduces inline discovery order exactly, and
// phase 2 reproduces inline accept order exactly (all accepts of level L
// precede all of level L+1 either way). The one scheduling-dependent
// quantity is which worker first forces a master memo in the shared
// joint runner — that can permute *internal* joint-state ids across
// runs, which nothing observable depends on (see relations.RunnerGroup).
//
// Narrow work skips the machinery: the cost model below keeps a level
// inline (interning into the same membership tables) unless the work the
// kernel measured says lanes win, so a product that never grows a level
// worth splitting builds none of this file's state, and at one worker
// none of it is ever built.
//
// When to go wide. Every parallel decision of the package is one cost
// model over work the move kernel measures: the moves it emits
// (moveKernel.moves, counted inline and per lane). Run inline, W moves
// cost W — the unit is one inline move. Split over L workers they cost
//
//	max(U, m·W/min(L, GOMAXPROCS)) + laneBarrierMoves·L
//
// where m is what one move costs a worker, in inline moves, U the work of
// the largest piece (no worker finishes before it does), and the last
// term the fixed cost of each worker (its goroutine, its share of the
// barrier, its part of the merge). Workers beyond GOMAXPROCS divide
// nothing and only add their fixed cost. A BFS lane pays m =
// laneMoveCost: it files each move in an outbox, and the shard dedup and
// the merge then redo what interning at once does. Every other split runs
// the inline code on each worker, so m = 1. wideLanes picks the worker
// count that minimises the estimate and returns 1, inline, unless it
// beats W. The four decisions differ only in what W, U, m, the pieces and
// the cap are:
//
//   - a BFS level (componentEngine.bfs): the frontier times the moves per
//     state the level before it emitted; 0; laneMoveCost; frontier states;
//     the run's lanes;
//   - its dedup goroutines (levelParallel): the candidates the level
//     actually emitted; 0; 1; shards; the level's lanes;
//   - the start-assignment fan-out (fanWorkers): the moves per finished
//     assignment times the assignments left; 0; 1; assignments;
//     BFSWorkers;
//   - concurrent components (workspace.evalComponents): the moves the
//     engines emitted in their previous execution; the largest engine's;
//     1; components; GOMAXPROCS.
//
// Output never depends on the verdict, so the model only has to be right
// about cost. Its two constants are calibrated once, not measured at run
// time; docs/PERF.md ("Go wide only when the work pays") derives them
// from per-level timings of the same levels run inline and on two lanes.
const (
	laneMoveCost     = 3.5
	laneBarrierMoves = 150
)

// forceWide, set only by tests, sends every decision wide: as many
// workers as there are pieces to split, up to the cap, whatever the work —
// except that the fan-out waits until half the start space has run
// inline, so one evaluation exercises both the multi-lane levels of the
// prefix and the fan-out of the rest. It is what lets the
// schedule-invariance suites run lanes, parallel dedup, fan-outs after an
// inline prefix and concurrent components on graphs small enough to check
// against an oracle.
var forceWide bool

// wideLanes is the cost model's verdict on splitting work moves, in
// pieces no worker can divide further (the largest holding largest
// moves), over at most cap workers that pay moveCost inline moves a move:
// the worker count with the smallest estimated cost, 1 when nothing beats
// running it inline. Past GOMAXPROCS workers the estimate only grows, and
// below it it is convex in the worker count, so the scan stops at
// GOMAXPROCS or at its first rise.
func wideLanes(work, largest, moveCost float64, pieces, cap int) int {
	cap = min(cap, pieces)
	if forceWide {
		return max(cap, 1)
	}
	if cap < 2 {
		return 1
	}
	cap = min(cap, runtime.GOMAXPROCS(0))
	best, cost := 1, work
	for l := 2; l <= cap; l++ {
		c := max(largest, moveCost*work/float64(l)) + laneBarrierMoves*float64(l)
		if c >= cost {
			break
		}
		best, cost = l, c
	}
	return best
}

// maxBFSWorkers caps Options.BFSWorkers.
const maxBFSWorkers = 64

// parShards is the number of membership shards (power of two). Sized
// above any realistic worker count so dedup scales with workers.
const parShards = 32

const parShardMask = parShards - 1

// fanoutChunks×workers chunks keep the fan-out's dynamic schedule
// balanced.
const fanoutChunks = 4

// Package counters for /statz: how often the parallel machinery
// actually engaged.
var (
	parRunsCtr      atomic.Uint64 // BFS runs that ran ≥1 multi-lane level
	parLevelsCtr    atomic.Uint64 // multi-lane levels processed
	parFallbacksCtr atomic.Uint64 // fault-degraded runs (ParallelBFS point)
	parFanoutsCtr   atomic.Uint64 // assignment fan-outs engaged
)

// BFSParallelStats reports cumulative parallel-BFS activity: runs that
// used multi-lane expansion, multi-lane levels processed, runs degraded
// to one lane by an injected worker fault, and component
// evaluations that fanned start assignments over the worker pool.
func BFSParallelStats() (runs, levels, fallbacks, fanouts uint64) {
	return parRunsCtr.Load(), parLevelsCtr.Load(), parFallbacksCtr.Load(), parFanoutsCtr.Load()
}

// effectiveBFSWorkers resolves Options.BFSWorkers: 0 means GOMAXPROCS,
// anything below 1 clamps to one lane, and the cap bounds per-engine
// lane state.
func effectiveBFSWorkers(w int) int {
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > maxBFSWorkers {
		w = maxBFSWorkers
	}
	return w
}

// parFaultError wraps an error injected at the ParallelBFS fault point;
// the driver recognizes it and degrades to one lane instead of failing
// the evaluation.
type parFaultError struct{ err error }

func (e parFaultError) Error() string { return "ecrpq: parallel worker fault: " + e.err.Error() }
func (e parFaultError) Unwrap() error { return e.err }

// shardOf hashes a product-state tuple (joint id + node tuple) to its
// membership shard. FNV-1a over the components; the exact function is
// irrelevant to results (any deterministic map works) — it only spreads
// dedup load.
func shardOf(joint int32, nodes []graph.Node) uint32 {
	h := uint64(14695981039346656037)
	h ^= uint64(uint32(joint))
	h *= 1099511628211
	for _, n := range nodes {
		h ^= uint64(uint32(n))
		h *= 1099511628211
	}
	h ^= h >> 32
	return uint32(h) & parShardMask
}

// parState is the reusable parallel machinery of one engine: the shared
// runner group, per-shard membership tables, lanes (one per worker)
// and dedup scratch. Built on the first level the cost model sends wide,
// it stays with the engine in its pooled workspace from one execution to
// the next; componentEngine.release, which putWorkspace runs on every
// engine, unpins the lanes' snapshots and drops the whole state once any
// shard table or lane buffer holds more than maxPooledScratch elements.
type parState struct {
	group  *relations.RunnerGroup
	shards []tupleSet
	lanes  []*bfsLane
	wg     sync.WaitGroup // the goroutines of the level's current phase
}

func (e *componentEngine) ensurePar() *parState {
	if e.par == nil {
		e.par = &parState{
			group:  relations.NewRunnerGroup(e.runner),
			shards: make([]tupleSet, parShards),
		}
	}
	return e.par
}

// oversized reports whether any shard table, lane locator or outbox
// holds more than maxPooledScratch elements: componentEngine.release
// then drops the parallel state rather than keep it in an idle workspace.
func (p *parState) oversized() bool {
	for i := range p.shards {
		if p.shards[i].oversized() {
			return true
		}
	}
	for _, ln := range p.lanes {
		if cap(ln.where) > maxPooledScratch {
			return true
		}
		for i := range ln.out {
			if cap(ln.out[i].joints) > maxPooledScratch {
				return true
			}
		}
	}
	return false
}

// ensureLanes grows the lane set to n workers, each with its own runner
// view and move kernel.
func (p *parState) ensureLanes(e *componentEngine, n int) {
	for len(p.lanes) < n {
		view := p.group.View()
		ln := &bfsLane{
			moveKernel: newMoveKernel(nil, e.cnt, e.part, view),
			e:          e,
			view:       view,
			syms:       newSymSet(e.cnt),
			nodesBuf:   make([]graph.Node, len(e.c.allVars)),
			out:        make([]laneBox, parShards),
		}
		ln.emit = ln.emitOutbox
		p.lanes = append(p.lanes, ln)
	}
}

// laneBox is one (lane, shard) outbox: the candidate successor states a
// lane emitted whose tuples hash to the shard, in emission order.
// fresh is filled by the dedup phase.
type laneBox struct {
	nodes   []graph.Node // flat, stride cnt
	joints  []int32
	parents []int32 // global id of the generating state
	syms    []int32 // shared symbol id of the generating move
	labs    []rune  // raw label tuple of the generating move (stride cnt; only when witnesses kept)
	fresh   []bool
}

// bfsLane is one worker of a multi-lane level: its own move kernel
// reading live sets through a private runner view, a private symbol
// intern table mapped to shared ids, and the level outputs.
type bfsLane struct {
	moveKernel
	e    *componentEngine
	view *relations.RunnerView
	head int // global id of the state being expanded

	// Local symbol interning: lane-local dense ids via syms, mapped to
	// the shared (master) ids via symMap. The master table and runner
	// stay the single authority so inline and multi-lane levels of the
	// same engine agree on every id.
	syms   tupleSet
	symMap []int32

	// Accept scratch.
	nodesBuf []graph.Node
	chainBuf []int32

	// Level outputs: per-shard outboxes, the per-candidate (shard, idx)
	// locator in emission order, the accept candidates in scan order —
	// checked node tuples (stride len(allVars)) beside the witnesses the
	// lane reconstructed (stride len(keptVars)) — and the lane error.
	out      []laneBox
	where    []int64
	accNodes []graph.Node
	accPaths []graph.Path
	err      error
}

// beginLevel pins the level's snapshot and pruning mode on the lane's
// kernel and resets the lane's level outputs and move count.
func (ln *bfsLane) beginLevel() {
	ln.snap, ln.noPrune, ln.moves = ln.e.snap, ln.e.noPrune, 0
	for i := range ln.out {
		b := &ln.out[i]
		b.nodes = b.nodes[:0]
		b.joints = b.joints[:0]
		b.parents = b.parents[:0]
		b.syms = b.syms[:0]
		b.labs = b.labs[:0]
		b.fresh = b.fresh[:0]
	}
	ln.where = ln.where[:0]
	ln.accNodes = ln.accNodes[:0]
	ln.accPaths = ln.accPaths[:0]
	ln.err = nil
}

// symID interns the tuple symbol currently in ln.symInts, returning its
// shared id. The hot path is the lane-local table; first sight of a
// symbol registers it with the master under the group lock.
func (ln *bfsLane) symID() int {
	id, fresh := ln.e.internSym(&ln.syms, ln.symInts)
	if fresh {
		var shared int
		ln.view.Do(func(*relations.JointRunner) {
			shared = ln.e.symIDOf(ln.symInts)
		})
		ln.symMap = append(ln.symMap, int32(shared))
	}
	return int(ln.symMap[id])
}

// expand scans the frontier slice [lo, hi): accept records for
// accepting states, successor candidates into the outboxes. Runs
// concurrently with the other lanes; everything it reads from the
// engine (state arrays, template, plan) is frozen for the level, and
// everything it writes is lane-private.
func (ln *bfsLane) expand(ctx context.Context, lo, hi int) {
	e := ln.e
	cnt := e.cnt
	for gid := lo; gid < hi; gid++ {
		if (gid-lo)&255 == 0 {
			if err := ctx.Err(); err != nil {
				ln.err = err
				return
			}
			if err := faultinject.Inject(faultinject.BFSStep); err != nil {
				ln.err = err
				return
			}
			if err := faultinject.Inject(faultinject.ParallelBFS); err != nil {
				ln.err = parFaultError{err}
				return
			}
		}
		cur := e.curs[gid*cnt : gid*cnt+cnt]
		joint := int(e.joints[gid])
		if e.stop == stopNone && ln.view.Accepting(joint) {
			if nodes, ok := e.checkAccept(cur, ln.nodesBuf); ok {
				ln.accNodes = append(ln.accNodes, nodes...)
				ln.accPaths = e.reconstruct(gid, &ln.chainBuf, ln.accPaths)
			}
		}
		if !ln.prepareMoves(joint, cur) {
			continue
		}
		ln.head = gid
		ln.forEachMove(cur) // emitOutbox never fails
	}
}

// emitOutbox is a lane's emit function: step the lane's view by the
// enumerated move and file the successor candidate in its shard's
// outbox; membership is decided later, at the barrier.
func (ln *bfsLane) emitOutbox() error {
	symID := ln.symID()
	js, ok := ln.view.Step(int(ln.e.joints[ln.head]), symID)
	if !ok {
		return nil
	}
	s := shardOf(int32(js), ln.next)
	box := &ln.out[s]
	box.nodes = append(box.nodes, ln.next...)
	box.joints = append(box.joints, int32(js))
	box.parents = append(box.parents, int32(ln.head))
	box.syms = append(box.syms, int32(symID))
	if len(ln.e.keptCoords) > 0 {
		box.labs = append(box.labs, ln.symLabs...)
	}
	box.fresh = append(box.fresh, false)
	ln.where = append(ln.where, int64(s)<<32|int64(len(box.joints)-1))
	return nil
}

// degradeToSeq abandons a faulted multi-lane traversal: refund the
// budget it charged and rerun the driver from scratch at one lane. Rows
// already applied re-apply idempotently (dedup first-wins plus monotone
// witness refinement over identical accept sequences), the
// per-assignment capture table keeps its entries so memo rows do not
// duplicate, and the memo's reached-node segment is sealed only after
// the rerun.
func (e *componentEngine) degradeToSeq(ctx context.Context, assign map[NodeVar]graph.Node) error {
	parFallbacksCtr.Add(1)
	e.bud.refund(e.spent)
	return e.bfs(ctx, assign, e.bud, 1)
}

// activateShards switches this run's membership from e.states to the
// shard tables, re-interning every state discovered so far. Runs once
// per BFS run, and only for runs that actually grow a large frontier —
// small products never touch the shard tables at all.
func (e *componentEngine) activateShards() {
	par := e.ensurePar()
	for i := range par.shards {
		par.shards[i].reset(e.statesPacked)
	}
	cnt := e.cnt
	for gid, joint := range e.joints {
		nodes := e.curs[gid*cnt : gid*cnt+cnt]
		e.internState(&par.shards[shardOf(joint, nodes)], int(joint), nodes)
	}
	e.sharded = true
}

// levelParallel processes the frontier [lo, hi) on L lanes with the
// four-phase parallel pipeline described in the file comment. The lanes'
// moves add to the engine's count, as an inline level's do.
func (e *componentEngine) levelParallel(ctx context.Context, lo, hi, L int) error {
	par := e.par
	n := hi - lo
	par.ensureLanes(e, L)
	lanes := par.lanes[:L]
	for _, ln := range lanes {
		ln.beginLevel()
	}
	parLevelsCtr.Add(1)

	// Phase 1: expand, one contiguous slice per lane.
	chunk := (n + L - 1) / L
	for k := 0; k < L; k++ {
		a := lo + k*chunk
		b := min(a+chunk, hi)
		if a >= b {
			break
		}
		par.wg.Add(1)
		go func(ln *bfsLane) {
			defer par.wg.Done()
			ln.expand(ctx, a, b)
		}(lanes[k])
	}
	par.wg.Wait()
	var fault error
	for _, ln := range lanes {
		e.moves += ln.moves
		if ln.err == nil {
			continue
		}
		if _, ok := ln.err.(parFaultError); ok {
			if fault == nil {
				fault = ln.err
			}
			continue
		}
		return ln.err // first real error in lane order
	}
	if fault != nil {
		return fault
	}

	// Phase 2: apply accepts in lane order — identical to the order an
	// inline head cursor visits the same states.
	nv, np := len(e.c.allVars), len(e.keptVars)
	for _, ln := range lanes {
		for i := 0; i*nv < len(ln.accNodes); i++ {
			if err := e.applyRow(ln.accNodes[i*nv:i*nv+nv], ln.accPaths[i*np:i*np+np]); err != nil {
				return err
			}
		}
	}

	// Phase 3: dedup, independently per shard. Lanes in order, within a
	// lane in emission order = ascending global sequence order within
	// the shard, so the first occurrence marked fresh is the same
	// candidate inline immediate-interning would have admitted.
	total := 0
	for _, ln := range lanes {
		total += len(ln.where)
	}
	if G := wideLanes(float64(total), 0, 1, parShards, L); G > 1 {
		for g := 0; g < G; g++ {
			par.wg.Add(1)
			go func() {
				defer par.wg.Done()
				for s := g; s < parShards; s += G {
					e.dedupShard(s, lanes)
				}
			}()
		}
		par.wg.Wait()
	} else {
		for s := 0; s < parShards; s++ {
			e.dedupShard(s, lanes)
		}
	}

	// Phase 4: merge fresh states into the global arrays in emission
	// (= inline discovery) order, charging the budget per state exactly
	// as an inline level does.
	cnt := e.cnt
	for _, ln := range lanes {
		for _, w := range ln.where {
			s, i := int(w>>32), int(uint32(w))
			box := &ln.out[s]
			if !box.fresh[i] {
				continue
			}
			e.curs = append(e.curs, box.nodes[i*cnt:i*cnt+cnt]...)
			e.joints = append(e.joints, box.joints[i])
			e.parentState = append(e.parentState, box.parents[i])
			e.parentSym = append(e.parentSym, box.syms[i])
			if len(e.keptCoords) > 0 {
				e.parentLabs = append(e.parentLabs, box.labs[i*cnt:i*cnt+cnt]...)
			}
			if !e.bud.spend() {
				return ErrBudget
			}
			e.spent++
		}
	}
	return nil
}

// dedupShard interns shard s's candidates of the level into the shard's
// membership table — lanes in order, within a lane in emission order —
// and marks the first occurrence of each tuple fresh.
func (e *componentEngine) dedupShard(s int, lanes []*bfsLane) {
	set, cnt := &e.par.shards[s], e.cnt
	for _, ln := range lanes {
		box := &ln.out[s]
		for i, joint := range box.joints {
			_, box.fresh[i] = e.internState(set, int(joint), box.nodes[i*cnt:i*cnt+cnt])
		}
	}
}

// fanOut is an engine's assignment fan-out, kept with it from one
// fan-out to the next: the sibling engines that run chunks beside the
// engine itself, the memo each worker captures into, the relation the
// chunks merge into, the assignments the chunks cover ([from, from+left)),
// the chunk table, the claim counter, the stop flag and the wait group of
// the goroutines.
type fanOut struct {
	sibs       []*componentEngine
	memos      []compMemo
	out        *varRelation
	from, left uint64
	chunks     []fanChunk
	next       atomic.Int64
	stop       atomic.Bool
	wg         sync.WaitGroup
}

// fanChunk is one chunk's outcome: the engine that ran it (nil while
// none has), the rows [rowLo, rowHi) it appended to that engine's
// relation, the memo segments [segLo, segHi) it sealed in memo (nil when
// the worker does not capture, or its capture overflowed), and its error.
type fanChunk struct {
	eng          *componentEngine
	memo         *compMemo
	rowLo, rowHi int
	segLo, segHi int
	err          error
}

// release readies the fan-out for an idle engine: siblings released, no
// chunk referenced, nothing past the pooled-scratch budget kept.
func (f *fanOut) release() {
	for _, sib := range f.sibs {
		sib.release()
	}
	for k := range f.memos {
		if f.memos[k].entries() > maxPooledScratch {
			f.memos[k] = compMemo{}
		}
	}
	if f.out.oversized() {
		*f.out = varRelation{}
	}
	f.out.reset(nil, nil)
	clear(f.chunks)
}

// fanWorkers is the cost model's verdict on a component's start
// assignments after done of the space's total have run inline: how many
// workers the rest is worth, estimated from the moves the finished ones
// emitted. 1 keeps enumerating inline. A stream (its sink must see rows in
// order as they are found), a sweep the stop rule ends at its first row
// (fanning out would run assignments past the deciding one) and one lane
// never fan out.
func (e *componentEngine) fanWorkers(done, total uint64) int {
	if e.workers <= 1 || e.sink != nil || e.stop == stopSweep || done >= total || total > 1<<62 ||
		forceWide && 2*done < total {
		return 1
	}
	left := total - done
	return wideLanes(float64(e.moves)/float64(done)*float64(left), 0, 1, int(min(left, maxBFSWorkers)), e.workers)
}

// evalAssignFanout runs the start assignments [from, total) — those left
// after an inline prefix, whose rows and memo segments e already holds —
// on workers workers: the dense index range splits into fixed contiguous
// chunks claimed dynamically by the engine itself on the caller's
// goroutine and workers−1 sibling engines on goroutines of their own (see
// fanWorker), all at one lane. The prefix and then the chunk results
// concatenate in chunk-index order, reproducing exactly what the
// sequential enumeration computes (rows and memo segments in assignment
// order; chunks cover disjoint assignments, so no row of one can
// duplicate a row of another). A worker appends the chunks it runs to its
// own relation and chunk memo one after the other, so the next chunk it
// claims cannot overwrite the last one's rows; the merge copies the prefix
// and the chunks, in that order, into the fan-out's out relation, which
// then trades places with e.rel, and appends the chunks' segments to the
// prefix's memo. The siblings' moves add to the engine's count.
func (e *componentEngine) evalAssignFanout(ctx context.Context, bud *stateBudget, from, total uint64, workers int) error {
	parFanoutsCtr.Add(1)

	if e.fan == nil {
		e.fan = &fanOut{out: new(varRelation)}
	}
	f := e.fan
	f.from, f.left = from, total-from
	nCh := min(uint64(fanoutChunks*workers), f.left)
	workers = min(workers, int(nCh))
	f.chunks = zeroed(f.chunks, int(nCh))
	f.next.Store(0)
	f.stop.Store(false)
	capture := e.memoCap != nil
	seqOpts := e.opts
	seqOpts.BFSWorkers = 1
	for len(f.sibs) < workers-1 {
		f.sibs = append(f.sibs, newComponentEngine(e.ws, e.comp))
	}
	for capture && len(f.memos) < workers {
		f.memos = append(f.memos, compMemo{})
	}
	sibs := f.sibs[:workers-1]
	for k, sib := range sibs {
		sib.reset(e.snap, seqOpts, e.doms)
		sib.stop = e.stop // the caller's rule, demoted by its capture
		if capture {
			sib.captureChunks(&f.memos[k+1])
		}
	}
	// The engine runs its own chunks at one lane into its own relation,
	// after the prefix's rows, and, while it does, captures into a chunk
	// memo too.
	prefix := e.rel.n
	memo, failed, lanes := e.memoCap, e.memoFailed, e.workers
	if capture {
		e.captureChunks(&f.memos[0])
	}
	e.workers = 1
	f.wg.Add(workers - 1)
	for _, sib := range sibs {
		go func() {
			defer f.wg.Done()
			e.fanWorker(ctx, sib, bud)
		}()
	}
	e.fanWorker(ctx, e, bud)
	f.wg.Wait()
	e.workers, e.memoCap, e.memoFailed = lanes, memo, failed
	for _, sib := range sibs {
		e.moves += sib.moves
	}
	for i := range f.chunks {
		if ch := &f.chunks[i]; ch.err != nil {
			return ch.err
		}
	}
	// No chunk failed ⇒ every chunk ran (stop is only set on error).
	out := f.out
	out.reset(e.c.allVars, e.keptVars)
	nRows := prefix
	for _, ch := range f.chunks {
		nRows += ch.rowHi - ch.rowLo
	}
	out.nodes = slices.Grow(out.nodes, nRows*len(out.vars))
	out.paths = slices.Grow(out.paths, nRows*len(out.pvars))
	out.addRows(e.rel, 0, prefix)
	for _, ch := range f.chunks {
		out.addRows(ch.eng.rel, ch.rowLo, ch.rowHi)
		if !capture {
			continue
		}
		if ch.memo == nil {
			e.abandonCapture()
			capture = false
			continue
		}
		e.memoCap.appendSegments(ch.memo, ch.segLo, ch.segHi)
		e.checkCapture()
		capture = e.memoCap != nil
	}
	e.rel, f.out = out, e.rel
	return nil
}

// fanWorker claims chunks of the fan-out and runs each on eng — the
// engine itself or one of its siblings — until none is left or one has
// failed.
func (e *componentEngine) fanWorker(ctx context.Context, eng *componentEngine, bud *stateBudget) {
	f := e.fan
	nCh := uint64(len(f.chunks))
	for {
		ci := uint64(f.next.Add(1) - 1)
		if ci >= nCh || f.stop.Load() {
			return
		}
		ch := &f.chunks[ci]
		ch.rowLo, ch.segLo = eng.rel.n, eng.memoCap.nAssign()
		ch.err = eng.runAssignRange(ctx, f.from+ci*f.left/nCh, f.from+(ci+1)*f.left/nCh, bud)
		ch.eng, ch.memo, ch.rowHi, ch.segHi = eng, eng.memoCap, eng.rel.n, eng.memoCap.nAssign()
		if ch.err != nil {
			f.stop.Store(true)
			return
		}
	}
}
