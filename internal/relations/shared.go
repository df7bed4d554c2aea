package relations

import "sync"

// This file is the concurrency face of the joint runner: a JointRunner
// is deliberately single-threaded (dense append-only tables, no locks on
// the hot path), and RunnerGroup + RunnerView let many workers step the
// same runner at once. The evaluator no longer does — a product-BFS run
// never splits across goroutines — so the one caller is the benchmark
// probe behind relations.view_step_contended_ns, and the file retires
// with that probe. The scheme keeps the single-threaded master while
// giving each worker a lock-free read path:
//
//   - RunnerGroup owns the master runner behind one mutex. Everything
//     that can mutate the master (Step discovering a transition, Live
//     computing a memo, AddSym registering a symbol) runs under it.
//   - RunnerView is one worker's private read-through cache. Hits on a
//     view cost zero synchronization; misses take the group lock, run
//     the master once, and record the answer locally.
//
// The scheme is sound because every fact a view caches is immutable
// once the master establishes it: dense state and symbol ids are
// assigned once and never change, a memoized transition entry is final,
// a Live slice is built once and shared read-only, SymRunes slices are
// copied at registration and never written again. Publication is safe
// because the caching worker reads the fact under the group lock (a
// happens-before edge with the writer) and records it in memory only
// that worker touches.
//
// Which worker first forces a given master memo depends on scheduling,
// so master-internal id assignment for *joint states discovered during
// a parallel phase* can vary run to run. Nothing observable depends on
// those id values: callers compare ids for equality within one run and
// never order by them, and the product BFS derives all result ordering
// from its own deterministic sequence numbers.
type RunnerGroup struct {
	mu sync.Mutex
	r  *JointRunner
}

// NewRunnerGroup wraps r for shared use. The caller must route every
// concurrent access through views (or Do); concurrently calling the
// master's own methods directly while views are active is a data race.
func NewRunnerGroup(r *JointRunner) *RunnerGroup {
	return &RunnerGroup{r: r}
}

// View returns a fresh private cache over the group's runner. A view is
// owned by one goroutine at a time; distinct goroutines need distinct
// views.
func (g *RunnerGroup) View() *RunnerView {
	return &RunnerView{g: g}
}

// Do runs f on the master runner under the group lock — the way to
// reach a master method a view does not mirror, such as AddSym, which
// interns the symbol, so its id is the master's whichever worker
// registers it first.
func (g *RunnerGroup) Do(f func(r *JointRunner)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f(g.r)
}

// RunnerView is a per-worker read-through cache over a shared
// JointRunner (see RunnerGroup). Not safe for concurrent use itself;
// create one per worker.
type RunnerView struct {
	g *RunnerGroup

	trans    [][]int32 // local mirror of the transition memo (0 unknown)
	accept   []int8    // 0 unknown, 1 yes, 2 no
	live     [][]LiveSet
	symRunes [][]rune
}

// Do runs f on the master runner under the group lock — shorthand for
// reaching the view's group (see RunnerGroup.Do).
func (v *RunnerView) Do(f func(r *JointRunner)) { v.g.Do(f) }

// Step advances state by sym, both dense ids, like JointRunner.Step.
// Cache hits are lock-free; a miss steps the master under the group
// lock and memoizes the edge locally.
func (v *RunnerView) Step(state, sym int) (int, bool) {
	if state < len(v.trans) {
		row := v.trans[state]
		if sym < len(row) {
			if t := row[sym]; t != 0 {
				if t < 0 {
					return 0, false
				}
				return int(t - 1), true
			}
		}
	}
	return v.stepSlow(state, sym)
}

func (v *RunnerView) stepSlow(state, sym int) (int, bool) {
	v.g.mu.Lock()
	next, ok := v.g.r.Step(state, sym)
	v.g.mu.Unlock()
	for len(v.trans) <= state {
		v.trans = append(v.trans, nil)
	}
	row := v.trans[state]
	if sym >= len(row) {
		n := 2 * len(row)
		if n <= sym {
			n = sym + 8
		}
		grown := make([]int32, n)
		copy(grown, row)
		v.trans[state] = grown
		row = grown
	}
	if !ok {
		row[sym] = -1
		return 0, false
	}
	row[sym] = int32(next + 1)
	return next, true
}

// Accepting reports whether joint state id is accepting, memoized
// locally after the first (locked) master consultation.
func (v *RunnerView) Accepting(state int) bool {
	if state < len(v.accept) {
		if a := v.accept[state]; a != 0 {
			return a == 1
		}
	}
	v.g.mu.Lock()
	ok := v.g.r.Accepting(state)
	v.g.mu.Unlock()
	for len(v.accept) <= state {
		v.accept = append(v.accept, 0)
	}
	if ok {
		v.accept[state] = 1
	} else {
		v.accept[state] = 2
	}
	return ok
}

// Live returns the master's memoized live sets for state (shared,
// read-only), consulting the master under the lock once per state.
func (v *RunnerView) Live(state int) []LiveSet {
	if state < len(v.live) {
		if ls := v.live[state]; ls != nil {
			return ls
		}
	}
	v.g.mu.Lock()
	ls := v.g.r.Live(state)
	v.g.mu.Unlock()
	for len(v.live) <= state {
		v.live = append(v.live, nil)
	}
	v.live[state] = ls
	return ls
}

// SymRunes returns the component runes of symbol id (shared, read-only).
func (v *RunnerView) SymRunes(id int) []rune {
	if id < len(v.symRunes) {
		if rs := v.symRunes[id]; rs != nil {
			return rs
		}
	}
	v.g.mu.Lock()
	rs := v.g.r.SymRunes(id)
	v.g.mu.Unlock()
	for len(v.symRunes) <= id {
		v.symRunes = append(v.symRunes, nil)
	}
	v.symRunes[id] = rs
	return rs
}
