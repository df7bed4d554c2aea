package ecrpq

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/graph"
)

// workspace owns every byte an evaluation of a Program uses and does not
// return: one engine per component (with their BFS arrays, state sets,
// relation stores and dedup sets, and the fan-out siblings each builds),
// the start-domain map and lists, the join layer's arena, the state
// budget, and the per-component slices of relations and memos. What
// escapes to the caller is only what the Result holds: the Result, the
// exactly-sized answer slabs assemble carves, and captured memos, which
// copy what they keep.
//
// Its storage comes in two kinds. What is bound to the program — the
// engines with their compiled kernels and lazy runners, the arena's
// relation lists, the start-domain engines — stays with the workspace, and
// a Program pools its idle workspaces. The buffers that belong to no
// program — an engine's BFS arrays, state set, relation store and dedup
// sets, the arena's key, tuple and column buffers and its head order, the
// candidate lists' buffer — are scratch sets (scratch) the workspace
// borrows from one process-wide pool for the evaluation and gives back
// after it. So a cold evaluation on a fresh Program reuses the buffers a
// warm one grew, and a warm evaluation grows nothing: every buffer is
// sized by the executions before it. Buffers grow on first use, never
// eagerly, and an idle set keeps no buffer past maxPooledScratch elements
// (its state arrays: product states), references no program and pins no
// snapshot (see putWorkspace).
//
// An evaluation holds its workspace until nothing it handed out can be
// read any more: evalFull and advanceIncremental give it back after
// assemble has copied the answers out, a stream after its last row.
// Component relations are filtered in place by the semijoins and the
// joined relation may be one of them, so returning it any earlier would
// let the next evaluation overwrite rows still being read.
type workspace struct {
	prog    *Program
	engines []*componentEngine
	rels    []*varRelation
	memos   []*compMemo
	bud     stateBudget
	doms    domainLists
	join    joinArena
	sc      *scratch // the set the arena's and doms' buffers are lent from

	run *componentRun // built by the first concurrent evalComponents
}

// scratch is one set of the evaluation buffers that belong to no
// program. An engine uses the first group (componentEngine embeds the
// set it holds), a workspace the second (its joinArena and domainLists
// hold the buffers while it does); a set serves either, and keeps the
// buffers of both groups from one use to the next.
type scratch struct {
	held int // the set's bytes while it is in scratchPool

	// An engine's. Its product-state storage, reset per start assignment:
	// the run's state set states, and state id i has node tuple
	// curs[i*cnt:(i+1)*cnt] and joint state joints[i]. Only when the
	// query outputs witnesses does a run record the BFS tree for witness
	// extraction: parentState, and parentLabs (stride cnt) the raw edge
	// labels of the move that discovered the state — the joint automaton
	// steps by classes, which cannot name the traversed labels. Then the
	// store its relation rel points at, and the relation's two dedup sets
	// (see componentEngine.rel).
	states      tupleSet
	curs        []graph.Node
	joints      []int32
	parentState []int32
	parentLabs  []rune
	store       varRelation
	rows        rowSet
	runRows     runRows

	// A workspace's: the join arena's buffers and the start-domain lists'.
	join   joinBufs
	domBuf []graph.Node
}

// scratchPool is the process-wide free list of idle scratch sets. It is a
// stack, so that an evaluation that returns its sets in the reverse order
// of their drawing finds each in the role it had the time before, and it
// keeps at most maxIdleScratchBytes of them: a set that would pass the
// bound is dropped, so a burst of concurrency, or one set that grew to
// the per-buffer cap in every buffer, leaves no more behind.
var scratchPool struct {
	mu    sync.Mutex
	free  []*scratch
	bytes int // the retained bytes of the sets in free
}

// maxIdleScratchBytes bounds what scratchPool retains, as scratch.bytes
// counts it.
const maxIdleScratchBytes = 16 << 20

// takeScratch borrows the last idle scratch set put back, or a new empty
// one.
func takeScratch() *scratch {
	p := &scratchPool
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return new(scratch)
	}
	sc := p.free[n-1]
	p.free[n-1], p.free = nil, p.free[:n-1]
	p.bytes -= sc.held
	return sc
}

// release trims sc and puts it back in the pool: every buffer past
// maxPooledScratch elements dropped — the state arrays past that many
// product states, together with the state set, since a set on the bitset
// still holds the last run's states, which the next run's beginVisit
// clears by walking the arrays, whichever engine runs it — and the
// relation store emptied. The caller has already dropped every reference
// to its program and snapshot.
func (sc *scratch) release() {
	if cap(sc.joints) > maxPooledScratch {
		sc.curs, sc.joints, sc.parentState, sc.parentLabs = nil, nil, nil, nil
		sc.states = tupleSet{}
	}
	if sc.states.oversized() {
		sc.states = tupleSet{}
	}
	if sc.store.oversized() {
		sc.store = varRelation{}
	}
	sc.store.reset(nil, nil)
	if len(sc.rows.slots) > maxPooledScratch {
		sc.rows = rowSet{}
	}
	sc.runRows.release()
	sc.held = sc.bytes()
	p := &scratchPool
	p.mu.Lock()
	if p.bytes+sc.held <= maxIdleScratchBytes {
		p.free = append(p.free, sc)
		p.bytes += sc.held
	}
	p.mu.Unlock()
}

// bytes is what the set retains: the struct and the arrays of its
// buffers, at their capacity.
func (sc *scratch) bytes() int {
	n := int(unsafe.Sizeof(*sc)) + sc.states.bytes() +
		8*(cap(sc.curs)+cap(sc.store.nodes)+cap(sc.runRows.bits)+cap(sc.join.nodes)+cap(sc.join.ints)+cap(sc.domBuf)) +
		4*(cap(sc.joints)+cap(sc.parentState)+cap(sc.parentLabs)+cap(sc.rows.slots)+cap(sc.join.order[0])+cap(sc.join.order[1]))
	return n + int(unsafe.Sizeof(graph.Path{}))*cap(sc.store.paths)
}

// capped returns s emptied, or nil when its array is past the
// pooled-scratch budget.
func capped[T any](s []T) []T {
	if cap(s) > maxPooledScratch {
		return nil
	}
	return s[:0]
}

// componentRun is the multi-component run in progress (componentWorker):
// the claim counter, the first error and the goroutines that run
// components.
type componentRun struct {
	next atomic.Int32
	mu   sync.Mutex
	err  error
	wg   sync.WaitGroup
}

// newWorkspace builds a workspace of p with one engine per component.
// Its scratch sets are drawn by takeWorkspace.
func newWorkspace(p *Program) *workspace {
	n := len(p.comps)
	ws := &workspace{
		prog:    p,
		engines: make([]*componentEngine, n),
		rels:    make([]*varRelation, n),
		memos:   make([]*compMemo, n),
	}
	for i := range ws.engines {
		ws.engines[i] = newComponentEngine(ws, i)
	}
	return ws
}

// takeWorkspace borrows an idle workspace, building one when the pool is
// empty, and draws its scratch sets: one for the workspace, then one for
// each engine in order (a fan-out draws its siblings' when it starts
// them).
func (p *Program) takeWorkspace() *workspace {
	ws := p.pool.take()
	if ws == nil {
		ws = newWorkspace(p)
	}
	ws.sc = takeScratch()
	ws.join.joinBufs, ws.doms.buf, ws.sc.join, ws.sc.domBuf = ws.sc.join, ws.sc.domBuf, joinBufs{}, nil
	for _, e := range ws.engines {
		e.draw()
	}
	return ws
}

// putWorkspace returns a workspace to its program's pool after an
// evaluation, and its scratch sets to the process-wide one in the reverse
// order of their drawing: the fan-out siblings', the engines', the
// workspace's. Nothing it gives back is a result any caller
// holds, since assemble and the memo capture copy what escapes. Neither
// may pin a possibly huge graph snapshot, the last result's witness
// paths, or peak-sized scratch: everything past maxPooledScratch elements
// is dropped first (componentEngine.release, joinArena.release,
// domainLists.release, scratch.release).
func (p *Program) putWorkspace(ws *workspace) {
	for _, e := range slices.Backward(ws.engines) {
		if e.fan != nil {
			e.fan.release()
		}
	}
	for _, e := range slices.Backward(ws.engines) {
		e.release()
	}
	clear(ws.rels)
	clear(ws.memos)
	ws.doms.release()
	ws.join.release()
	ws.sc.join, ws.sc.domBuf, ws.join.joinBufs, ws.doms.buf = ws.join.joinBufs, ws.doms.buf, joinBufs{}, nil
	ws.sc.release()
	ws.sc = nil
	p.pool.put(ws)
}

// begin starts an evaluation on the workspace: the state budget refilled
// to opts' bound, then the start-domain pass run against it.
func (ws *workspace) begin(ctx context.Context, s *graph.Snapshot, opts Options) (map[NodeVar][]graph.Node, error) {
	ws.bud.reset(opts.MaxProductStates)
	return ws.doms.startDomains(ctx, ws.prog, s, opts, &ws.bud)
}

// evalComponents evaluates every component of the program over the
// pinned snapshot s on the workspace's engines, into ws.rels (and, when
// capture is set, ws.memos; see incMemo). A pruning evaluation of a
// program with an empty table (Program.emptyTable) runs nothing: every
// relation is empty, and there is no memo to capture. Independent
// components run concurrently on up to GOMAXPROCS goroutines — the
// caller's among them — when the cost model says the moves the engines
// emitted in their previous execution are worth it, and one after the
// other on the caller's goroutine otherwise (always on a fresh workspace,
// which has no previous execution to go by); either way they draw from
// one shared product-state budget and the first error ends the rest. Every component reads the
// same immutable snapshot, so a multi-component answer is always
// consistent with one epoch even under concurrent writers. The returned
// memos are nil when capture was off or any component's capture
// overflowed.
func (ws *workspace) evalComponents(ctx context.Context, s *graph.Snapshot, opts Options, capture bool) ([]*varRelation, []*compMemo, error) {
	if !opts.NoPrune && ws.prog.emptyTable() {
		for i, e := range ws.engines {
			e.rel.reset(e.c.allVars, e.keptVars)
			e.moves = 0
			ws.rels[i] = e.rel
		}
		return ws.rels, nil, nil
	}
	doms, err := ws.begin(ctx, s, opts)
	if err != nil {
		return nil, nil, err
	}
	n := len(ws.engines)
	work, largest := 0, 0
	for _, e := range ws.engines {
		work, largest = work+e.moves, max(largest, e.moves)
	}
	if workers := wideWorkers(float64(work), float64(largest), n, runtime.GOMAXPROCS(0)); workers > 1 {
		if ws.run == nil {
			ws.run = &componentRun{}
		}
		r := ws.run
		r.next.Store(0)
		r.err = nil
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		r.wg.Add(workers - 1)
		for range workers - 1 {
			go func() {
				defer r.wg.Done()
				ws.componentWorker(cctx, cancel, s, opts, doms, capture)
			}()
		}
		ws.componentWorker(cctx, cancel, s, opts, doms, capture)
		r.wg.Wait()
		if r.err != nil {
			return nil, nil, r.err
		}
	} else {
		for i := range n {
			if err := ws.evalComponent(ctx, i, s, opts, doms, capture); err != nil {
				return nil, nil, err
			}
		}
	}
	if n > 1 {
		// The components may all have finished before noticing a late
		// cancellation of the caller's context; honor it anyway.
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	if !capture {
		return ws.rels, nil, nil
	}
	for _, e := range ws.engines {
		if e.memoFailed {
			return ws.rels, nil, nil
		}
	}
	return ws.rels, ws.memos, nil
}

// componentWorker claims components of the run and evaluates them until
// none is left; the first failure is kept and cancels the others.
func (ws *workspace) componentWorker(ctx context.Context, cancel context.CancelFunc, s *graph.Snapshot, opts Options, doms map[NodeVar][]graph.Node, capture bool) {
	r := ws.run
	for {
		i := int(r.next.Add(1) - 1)
		if i >= len(ws.engines) || ctx.Err() != nil {
			return
		}
		if err := ws.evalComponent(ctx, i, s, opts, doms, capture); err != nil {
			r.mu.Lock()
			if r.err == nil {
				r.err = err
				cancel()
			}
			r.mu.Unlock()
			return
		}
	}
}

// evalComponent runs component i's engine over s into ws.rels[i] (and its
// memo into ws.memos[i]).
func (ws *workspace) evalComponent(ctx context.Context, i int, s *graph.Snapshot, opts Options, doms map[NodeVar][]graph.Node, capture bool) error {
	e := ws.engines[i]
	e.reset(s, opts, doms)
	if capture {
		e.startCapture()
	}
	vr, err := evalComponent(ctx, e, &ws.bud)
	if err != nil {
		return err
	}
	ws.rels[i] = vr
	if capture {
		ws.memos[i] = e.memoCap
	}
	return nil
}
