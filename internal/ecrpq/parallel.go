package ecrpq

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the parallel half of the evaluator. Theorem 6.3's
// evaluation is one product-reachability search per start assignment,
// and the searches of different assignments are independent, so that is
// where work splits: the start-assignment fan-out below runs the
// assignments of one component over sibling engines, and
// workspace.evalComponents runs independent components concurrently. A
// single BFS run never splits; componentEngine.bfs (eval.go) runs every
// level of it on the caller's goroutine.
//
// Determinism. Answers, witness paths and Result.Fingerprint are
// byte-identical at any worker count: every run is the same sequential
// BFS whichever engine runs it, and the fan-out concatenates the chunks'
// rows and memo segments in assignment order.
//
// When to go wide. Both parallel decisions of the package are one cost
// model over work the move kernel measures: the moves it emits
// (moveKernel.moves). Run inline, W moves cost W — the unit is one inline
// move. Split over L workers, each running the inline code, they cost
//
//	max(U, W/min(L, GOMAXPROCS)) + workerMoves·L
//
// where U is the work of the largest piece (no worker finishes before it
// does) and the last term the fixed cost of each worker (its goroutine,
// its engine, its part of the merge). Workers beyond GOMAXPROCS divide
// nothing and only add their fixed cost. wideWorkers picks the worker
// count that minimises the estimate and returns 1, inline, unless it
// beats W. The two decisions differ only in what W, U, the pieces and the
// cap are:
//
//   - the start-assignment fan-out (fanWorkers): the moves per finished
//     assignment times the assignments left; 0; assignments; BFSWorkers;
//   - concurrent components (workspace.evalComponents): the moves the
//     engines emitted in their previous execution; the largest engine's;
//     components; GOMAXPROCS.
//
// Output never depends on the verdict, so the model only has to be right
// about cost. Its constant is calibrated once, not measured at run time;
// docs/PERF.md ("Go wide only when the work pays") derives it from
// per-level timings.
const workerMoves = 150

// forceWide, set only by tests, sends every decision wide: as many
// workers as there are pieces to split, up to the cap, whatever the work —
// except that the fan-out waits until half the start space has run
// inline, so one evaluation exercises both the inline prefix and the
// fan-out of the rest. It is what lets the schedule-invariance suites run
// fan-outs after an inline prefix and concurrent components on graphs
// small enough to check against an oracle.
var forceWide bool

// wideWorkers is the cost model's verdict on splitting work moves, in
// pieces no worker can divide further (the largest holding largest
// moves), over at most cap workers: the worker count with the smallest
// estimated cost, 1 when nothing beats running it inline. Past GOMAXPROCS
// workers the estimate only grows, and below it it is convex in the
// worker count, so the scan stops at GOMAXPROCS or at its first rise.
func wideWorkers(work, largest float64, pieces, cap int) int {
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
		c := max(largest, work/float64(l)) + workerMoves*float64(l)
		if c >= cost {
			break
		}
		best, cost = l, c
	}
	return best
}

// maxBFSWorkers caps Options.BFSWorkers.
const maxBFSWorkers = 64

// fanoutChunks×workers chunks keep the fan-out's dynamic schedule
// balanced.
const fanoutChunks = 4

// parFanoutsCtr counts, for /statz, the component evaluations that fanned
// their start assignments out.
var parFanoutsCtr atomic.Uint64

// BFSParallelStats reports how many component evaluations fanned start
// assignments over the worker pool since the process started.
func BFSParallelStats() (fanouts uint64) {
	return parFanoutsCtr.Load()
}

// effectiveBFSWorkers resolves Options.BFSWorkers: 0 means GOMAXPROCS,
// anything below 1 clamps to one worker, and the cap bounds the sibling
// engines a fan-out builds.
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
	for _, sib := range slices.Backward(f.sibs) {
		sib.release()
	}
	for k := range f.memos {
		// The segments belong to the merged memo, so the chunk memo keeps
		// its array of them cleared, and drops the table it named.
		if cap(f.memos[k].segs) > maxPooledScratch {
			f.memos[k] = compMemo{}
		}
		clear(f.memos[k].segs)
		f.memos[k].tab = nil
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
// (fanning out would run assignments past the deciding one) and one
// worker never fan out.
func (e *componentEngine) fanWorkers(done, total uint64) int {
	if e.workers <= 1 || e.sink != nil || e.stop == stopSweep || done >= total || total > 1<<62 ||
		forceWide && 2*done < total {
		return 1
	}
	left := total - done
	return wideWorkers(float64(e.moves)/float64(done)*float64(left), 0, int(min(left, maxBFSWorkers)), e.workers)
}

// evalAssignFanout runs the start assignments [from, total) — those left
// after an inline prefix, whose rows and memo segments e already holds —
// on workers workers: the dense index range splits into fixed contiguous
// chunks claimed dynamically by the engine itself on the caller's
// goroutine and workers−1 sibling engines on goroutines of their own (see
// fanWorker). The prefix and then the chunk results concatenate in
// chunk-index order, reproducing exactly what the sequential enumeration
// computes (rows and memo segments in assignment order; chunks cover
// disjoint assignments, so no row of one can duplicate a row of another).
// A worker appends the chunks it runs to its own relation and chunk memo
// one after the other, so the next chunk it claims cannot overwrite the
// last one's rows; the merge copies the prefix and the chunks, in that
// order, into the fan-out's out relation, which then trades contents with
// e.rel, and appends the chunks' segments to the prefix's memo. The
// siblings' moves add to the engine's count.
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
	for len(f.sibs) < workers-1 {
		f.sibs = append(f.sibs, newComponentEngine(e.ws, e.comp))
	}
	for capture && len(f.memos) < workers {
		f.memos = append(f.memos, compMemo{})
	}
	sibs := f.sibs[:workers-1]
	for k, sib := range sibs {
		sib.draw()
		sib.reset(e.snap, e.opts, e.doms)
		sib.stop = e.stop // the caller's rule, demoted by its capture
		if capture {
			sib.captureChunks(&f.memos[k+1], e.memoCap)
		}
	}
	// The engine runs its own chunks into its own relation, after the
	// prefix's rows, and, while it does, captures into a chunk memo too.
	prefix := e.rel.n
	memo, failed := e.memoCap, e.memoFailed
	if capture {
		e.captureChunks(&f.memos[0], memo)
	}
	f.wg.Add(workers - 1)
	for _, sib := range sibs {
		go func() {
			defer f.wg.Done()
			e.fanWorker(ctx, sib, bud)
		}()
	}
	e.fanWorker(ctx, e, bud)
	f.wg.Wait()
	e.memoCap, e.memoFailed = memo, failed
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
		for _, seg := range ch.memo.segs[ch.segLo:ch.segHi] {
			e.memoCap.add(seg) // shared: a sealed segment is immutable
		}
		e.checkCapture()
		capture = e.memoCap != nil
	}
	*e.rel, *out = *out, *e.rel
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
