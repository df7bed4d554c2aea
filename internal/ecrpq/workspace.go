package ecrpq

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

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
// A Program pools its idle workspaces like it used to pool engines, so a
// warm evaluation grows nothing: every buffer is sized by the executions
// before it and reused. Buffers grow on first use, never eagerly, and an
// idle workspace keeps nothing past maxPooledScratch elements and pins no
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

	run *componentRun // built by the first concurrent evalComponents
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
// empty.
func (p *Program) takeWorkspace() *workspace {
	if ws := p.pool.take(); ws != nil {
		return ws
	}
	return newWorkspace(p)
}

// putWorkspace returns a workspace to the pool after an evaluation. The
// workspace keeps the storage the evaluation grew — relation stores,
// dedup sets, join arena, candidate lists, BFS arrays — so the next one
// grows nothing; nothing of it is a result any caller holds, since
// assemble and the memo capture copy what escapes. It must not pin a
// possibly huge graph snapshot, the last result's witness paths, or
// peak-sized scratch: everything past maxPooledScratch elements is
// dropped first (componentEngine.release, joinArena.release,
// domainLists.release).
func (p *Program) putWorkspace(ws *workspace) {
	for _, e := range ws.engines {
		e.release()
	}
	clear(ws.rels)
	clear(ws.memos)
	ws.doms.release()
	ws.join.release()
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
// capture is set, ws.memos; see incMemo). Independent components run
// concurrently on up to GOMAXPROCS goroutines — the caller's among them —
// when the cost model says the moves the engines emitted in their previous
// execution are worth it, and one after the other on the caller's
// goroutine otherwise (always on a fresh workspace, which has no previous
// execution to go by); either way they draw from one shared product-state
// budget and the first error ends the rest. Every component reads the
// same immutable snapshot, so a multi-component answer is always
// consistent with one epoch even under concurrent writers. The returned
// memos are nil when capture was off or any component's capture
// overflowed.
func (ws *workspace) evalComponents(ctx context.Context, s *graph.Snapshot, opts Options, capture bool) ([]*varRelation, []*compMemo, error) {
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
