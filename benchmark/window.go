package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
	"unsafe"
)

// opResult is what one closed-loop operation reports back to the window.
type opResult struct {
	answers int  // answers the operation returned to its caller
	write   bool // a write (timed apart from reads)
	failed  bool // non-2xx, transport error, refusal or fingerprint mismatch
	// queryMs holds the latency of each single query of an operation that
	// is a rotation of many (the library workloads); nil when the operation
	// is itself one query. The fixture may reuse the slice for its next op.
	queryMs []float64
}

// fixture is one workload, set up and ready to run. Every client calls
// op in a closed loop: its next operation starts when the previous one
// has returned.
type fixture interface {
	clients() int
	// op runs client c's next operation. tr is nil in untraced windows.
	op(c int, tr *tracer) opResult
	// counters returns cumulative layer counters (qcache and server
	// statistics); windows report their deltas. Nil for library workloads.
	counters() map[string]float64
	// verify runs the workload's after-window correctness checks and
	// returns how many it made and how many failed.
	verify() (attempted, failed int)
	close()
}

// sample is one completed operation.
type sample struct {
	end     time.Duration // when it completed, as an offset into the window
	ms      float64       // how long it took
	answers int
	write   bool
}

// window is the raw outcome of one measured interval.
type window struct {
	elapsed    time.Duration
	ops        []sample  // every operation, in completion order
	queries    []float64 // latency in ms of every query: the reads, or what the rotations are made of
	failed     int
	allocBytes uint64
	liveHeap   uint64
	counters   map[string]float64 // layer counters: deltas over the window
	gauges     map[string]float64 // the same counters as read at window end
}

// runWindow drives fx.clients() closed-loop clients for d.
func runWindow(fx fixture, d time.Duration, tr *tracer) window {
	type local struct {
		ops     []sample
		queries []float64
		fail    int
	}
	locals := make([]local, fx.clients())
	before := fx.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range locals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := &locals[c]
			for {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					return
				}
				r := fx.op(c, tr)
				t1 := time.Now()
				ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
				l.ops = append(l.ops, sample{t1.Sub(start), ms, r.answers, r.write})
				switch {
				case r.queryMs != nil:
					l.queries = append(l.queries, r.queryMs...)
				case !r.write:
					l.queries = append(l.queries, ms)
				}
				if r.failed {
					l.fail++
				}
			}
		}()
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	runtime.ReadMemStats(&m1)
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	for _, l := range locals {
		w.ops = append(w.ops, l.ops...)
		w.queries = append(w.queries, l.queries...)
		w.failed += l.fail
	}
	sort.Slice(w.ops, func(i, j int) bool { return w.ops[i].end < w.ops[j].end })
	if after := fx.counters(); after != nil {
		w.counters, w.gauges = map[string]float64{}, after
		for k, v := range after {
			w.counters[k] = v - before[k]
		}
	}
	// The live heap is the program's: the clients' lists are garbage by
	// now and the window's own copy of the samples is taken off.
	locals = nil
	runtime.GC()
	runtime.ReadMemStats(&m1)
	w.liveHeap = m1.HeapAlloc - uint64(cap(w.ops))*uint64(unsafe.Sizeof(sample{})) - uint64(cap(w.queries))*8
	return w
}

// figures are the time-based end-to-end numbers of a run of operations.
type figures struct {
	opsPerS, answersPerS float64
	p50ms                float64 // median latency of the operations that are not writes
}

func figuresOf(ops []sample, d time.Duration) figures {
	var answers int
	for _, s := range ops {
		answers += s.answers
	}
	return figures{float64(len(ops)) / d.Seconds(), float64(answers) / d.Seconds(), median(latencies(ops, false))}
}

// latencies returns the latency in ms of the writes, or of the rest.
func latencies(ops []sample, writes bool) []float64 {
	var ms []float64
	for _, s := range ops {
		if s.write == writes {
			ms = append(ms, s.ms)
		}
	}
	return ms
}

func (w *window) whole() figures { return figuresOf(w.ops, w.elapsed) }

// The host this runs on is shared: for seconds to minutes at a time it
// runs a fifth to a third slower, then recovers, and a figure over the
// whole window mixes both states in proportions that differ from run to
// run (on the same ten runs the whole-window rate spread 17–22 % of its
// median and the quietest slice's 9–15 %). So the bounded rate and median
// are those of the quietest slice: the window's operations, in completion
// order, are cut into quietSlices runs of equal count — equal work, about
// 2 s each — and the run that took the least time is the machine at its
// quietest, the state that repeats. Whatever the program itself does per
// unit of work is inside every slice: GC cycles, and on serve_mixed about
// 250 writes, the recomputation they cause and two or three checkpoints.
// What a slice can miss is a stall rarer than one per slice; the
// whole-window figures are printed beside these for that.
const quietSlices = 10

func (w *window) quietest() figures {
	n := len(w.ops)
	k := min(quietSlices, n)
	var best figures
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		var from time.Duration
		if lo > 0 {
			from = w.ops[lo-1].end
		}
		if f := figuresOf(w.ops[lo:hi], w.ops[hi-1].end-from); f.opsPerS > best.opsPerS {
			best = f
		}
	}
	return best
}
