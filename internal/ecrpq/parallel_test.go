package ecrpq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/qerr"
)

// This file pins the start-assignment fan-out and concurrent components
// (parallel.go) against the sequential engine: answers, witness-path
// lengths and Result.Fingerprint must be byte-identical at every worker
// count, budget failures must agree exactly, and memo capture must be
// deterministic under the fan-out.

// forceParallel sets the cost model's test hook (forceWide) so that the
// assignment fan-out after an inline prefix of half the start space and
// concurrent components exercise on the small graphs the property suites
// use, clearing it on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	forceWide = true
	t.Cleanup(func() { forceWide = false })
}

// parWorkerCounts is the worker dimension the determinism properties
// sweep: the sequential baseline, the smallest parallel count, and a
// count above this machine's core count.
var parWorkerCounts = []int{1, 2, 8}

// checkWorkersAgree evaluates q over g at every worker count and
// asserts byte-identical results against the W=1 baseline: same
// fingerprint, same answers, same witness lengths.
func checkWorkersAgree(t *testing.T, q *Query, g *graph.DB, label string) {
	t.Helper()
	base, err := Eval(q, g, Options{BFSWorkers: 1})
	if err != nil {
		t.Fatalf("%s: sequential eval: %v", label, err)
	}
	for _, w := range parWorkerCounts[1:] {
		res, err := Eval(q, g, Options{BFSWorkers: w})
		if err != nil {
			t.Fatalf("%s: eval at W=%d: %v", label, w, err)
		}
		if got, want := res.Fingerprint(), base.Fingerprint(); got != want {
			t.Fatalf("%s: query %q: fingerprint at W=%d = %016x, sequential %016x",
				label, q, w, got, want)
		}
		if len(res.Answers) != len(base.Answers) {
			t.Fatalf("%s: query %q: %d answers at W=%d, sequential %d",
				label, q, len(res.Answers), w, len(base.Answers))
		}
		for i, a := range res.Answers {
			if a.Key() != base.Answers[i].Key() {
				t.Fatalf("%s: query %q: answer %d at W=%d is %s, sequential %s",
					label, q, i, w, a.Key(), base.Answers[i].Key())
			}
			for pi := range q.HeadPaths {
				if a.Paths[pi].Len() != base.Answers[i].Paths[pi].Len() {
					t.Fatalf("%s: query %q answer %s: witness %d length %d at W=%d, sequential %d",
						label, q, a.Key(), pi, a.Paths[pi].Len(), w, base.Answers[i].Paths[pi].Len())
				}
			}
		}
	}
}

// TestParallelBFSFingerprintDeterministic sweeps the oracle and
// label-rich query suites over random graphs at W=1,2,8 with the
// parallel machinery forced on, asserting byte-identical fingerprints,
// answers and witness lengths — and that the fan-out actually ran.
func TestParallelBFSFingerprintDeterministic(t *testing.T) {
	eachTable(t, testParallelBFSFingerprintDeterministic)
}

func testParallelBFSFingerprintDeterministic(t *testing.T) {
	forceParallel(t)
	fanouts0 := BFSParallelStats()
	r := rand.New(rand.NewSource(97))
	queries := append(oracleQueries(t), MustParse("Ans(x, y, p) <- (x,p,y), (a|b)*(p)", env()))
	for trial := 0; trial < 6; trial++ {
		g := randomDAG(r, 5+r.Intn(3), 0.5, sigmaAB)
		for qi, q := range queries {
			checkWorkersAgree(t, q, g, fmt.Sprintf("trial %d query %d", trial, qi))
		}
	}
	for trial := 0; trial < 4; trial++ {
		g := skewedDAG(r, 6+r.Intn(3), sigmaRich)
		for qi, q := range labelRichQueries(t) {
			checkWorkersAgree(t, q, g, fmt.Sprintf("rich trial %d query %d", trial, qi))
		}
	}
	if fanouts1 := BFSParallelStats(); fanouts1 == fanouts0 {
		t.Fatal("the assignment fan-out never engaged")
	}
}

// TestParallelBFSMatchesNaiveOracle extends the naive-oracle property
// with the worker dimension: the parallel engine must match the
// reference evaluator exactly, including shortest-witness lengths.
func TestParallelBFSMatchesNaiveOracle(t *testing.T) { eachTable(t, testParallelBFSMatchesNaiveOracle) }

func testParallelBFSMatchesNaiveOracle(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		g := randomDAG(r, 4+r.Intn(3), 0.45, sigmaAB)
		q := randomOracleQuery(t, r)
		label := fmt.Sprintf("trial %d", trial)
		naive, err := NaiveEval(q, g, g.NumNodes())
		if err != nil {
			t.Fatalf("%s: naive: %v", label, err)
		}
		want := map[string]Answer{}
		for _, a := range naive {
			want[a.Key()] = a
		}
		for _, w := range parWorkerCounts {
			res, err := Eval(q, g, Options{BFSWorkers: w})
			if err != nil {
				t.Fatalf("%s: eval at W=%d: %v", label, w, err)
			}
			if len(res.Answers) != len(want) {
				t.Fatalf("%s: query %q: eval at W=%d %d answers, naive %d",
					label, q, w, len(res.Answers), len(want))
			}
			for _, a := range res.Answers {
				na, ok := want[a.Key()]
				if !ok {
					t.Fatalf("%s: query %q: answer %s at W=%d not in naive output", label, q, a.Key(), w)
				}
				for pi := range q.HeadPaths {
					if a.Paths[pi].Len() != na.Paths[pi].Len() {
						t.Fatalf("%s: query %q answer %s: witness length %d at W=%d, naive shortest %d",
							label, q, a.Key(), a.Paths[pi].Len(), w, na.Paths[pi].Len())
					}
				}
			}
		}
	}
}

// bigComponentGraph builds a dense-ish random labeled digraph (cycles
// included) whose Combined-style product space forms one large
// component — the shape the fan-out is for.
func bigComponentGraph(r *rand.Rand, n, deg int, sigma []rune) *graph.DB {
	g := graph.NewDB()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	for i := 0; i < n; i++ {
		for d := 0; d < deg; d++ {
			j := r.Intn(n)
			g.AddEdge(graph.Node(i), sigma[r.Intn(len(sigma))], graph.Node(j))
		}
	}
	return g
}

// TestParallelBFSBigComponentAgree runs a Combined-style multi-tape
// query over cyclic graphs large enough to reach real frontiers (and,
// at W>1, to trigger the start-assignment fan-out) without lowered
// thresholds, asserting fingerprint equality across worker counts.
func TestParallelBFSBigComponentAgree(t *testing.T) { eachTable(t, testParallelBFSBigComponentAgree) }

func testParallelBFSBigComponentAgree(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	queries := []*Query{
		MustParse("Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env()),
		MustParse("Ans(x, y) <- (x,p1,y), (x,p2,y), prefix(p1,p2)", env()),
	}
	for trial := 0; trial < 3; trial++ {
		g := bigComponentGraph(r, 40, 3, sigmaAB)
		for qi, q := range queries {
			checkWorkersAgree(t, q, g, fmt.Sprintf("trial %d query %d", trial, qi))
		}
	}
	if BFSParallelStats() == 0 {
		t.Fatalf("assignment fan-out never engaged on 40-node unbound queries")
	}
}

// TestParallelBudgetParity sweeps tight product-state budgets and
// asserts exact error parity: at every budget, every worker count fails
// with ErrBudget exactly when the sequential engine does, and succeeds
// with an identical fingerprint otherwise.
func TestParallelBudgetParity(t *testing.T) {
	forceParallel(t)
	q := MustParse("Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	g := bigComponentGraph(rand.New(rand.NewSource(107)), 12, 2, sigmaAB)
	for _, budget := range []int{1, 2, 5, 17, 63, 255, 1024, 65536} {
		base, baseErr := Eval(q, g, Options{BFSWorkers: 1, MaxProductStates: budget})
		if baseErr != nil && !errors.Is(baseErr, qerr.ErrBudgetExceeded) {
			t.Fatalf("budget %d: sequential failed untyped: %v", budget, baseErr)
		}
		for _, w := range parWorkerCounts[1:] {
			res, err := Eval(q, g, Options{BFSWorkers: w, MaxProductStates: budget})
			if (err != nil) != (baseErr != nil) {
				t.Fatalf("budget %d: W=%d err=%v, sequential err=%v", budget, w, err, baseErr)
			}
			if err != nil {
				if !errors.Is(err, qerr.ErrBudgetExceeded) {
					t.Fatalf("budget %d: W=%d failed untyped: %v", budget, w, err)
				}
				continue
			}
			if res.Fingerprint() != base.Fingerprint() {
				t.Fatalf("budget %d: W=%d fingerprint %016x, sequential %016x",
					budget, w, res.Fingerprint(), base.Fingerprint())
			}
		}
	}
}

// TestParallelMemoDeterministic pins the fan-out's memo capture: the
// incremental-evaluation memo rows and touch sets must land in the
// same per-assignment segments no matter how chunks are scheduled, so
// the memos captured at W=1 and W=8 must be deeply equal.
func TestParallelMemoDeterministic(t *testing.T) { eachTable(t, testParallelMemoDeterministic) }

func testParallelMemoDeterministic(t *testing.T) {
	forceParallel(t)
	q := MustParse("Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	g := bigComponentGraph(rand.New(rand.NewSource(109)), 40, 3, sigmaAB)
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Snapshot()
	capture := func(w int) *incMemo {
		t.Helper()
		res, err := prog.EvalSnapshotMemo(context.Background(), s, Options{BFSWorkers: w})
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		if res.inc == nil {
			t.Fatalf("W=%d: no memo captured", w)
		}
		return res.inc
	}
	base := capture(1)
	for _, w := range parWorkerCounts[1:] {
		m := capture(w)
		if len(m.comps) != len(base.comps) {
			t.Fatalf("W=%d: %d component memos, sequential %d", w, len(m.comps), len(base.comps))
		}
		for i := range m.comps {
			if !reflect.DeepEqual(m.comps[i], base.comps[i]) {
				t.Fatalf("W=%d: component %d memo differs from sequential capture", w, i)
			}
		}
	}
}

// TestParallelAdvanceAcrossEpochs drives the incremental serving path
// at W>1: evaluate with memo, add edges, Advance — the delta pass runs
// its re-evaluated assignments at W>1 and must match a from-scratch
// evaluation at the same W and the W=1 Advance exactly.
func TestParallelAdvanceAcrossEpochs(t *testing.T) { eachTable(t, testParallelAdvanceAcrossEpochs) }

func testParallelAdvanceAcrossEpochs(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(113))
	q := MustParse("Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	g := bigComponentGraph(r, 20, 2, sigmaAB)
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		opts := Options{BFSWorkers: w}
		prev, err := prog.EvalSnapshotMemo(context.Background(), g.Snapshot(), opts)
		if err != nil {
			t.Fatalf("W=%d: memo eval: %v", w, err)
		}
		g.AddEdge(graph.Node(r.Intn(20)), 'a', graph.Node(r.Intn(20)))
		s := g.Snapshot()
		adv, kind, err := prog.Advance(context.Background(), prev, s, opts)
		if err != nil {
			t.Fatalf("W=%d: advance: %v", w, err)
		}
		if kind == AdvanceNone {
			t.Fatalf("W=%d: expected an incremental advance", w)
		}
		full, err := prog.Eval(context.Background(), s, opts)
		if err != nil {
			t.Fatalf("W=%d: full eval: %v", w, err)
		}
		if adv.Fingerprint() != full.Fingerprint() {
			t.Fatalf("W=%d: advance fingerprint %016x, full %016x", w, adv.Fingerprint(), full.Fingerprint())
		}
	}
}

// TestFanOutAfterInlinePrefix: the fan-out engages in the middle of an
// enumeration with the memo capture on. With the cost model's test hook
// set, the first half of the start assignments runs inline and the rest
// fans out. The prefix's rows and memo segments stay first, so at every
// worker count the evaluation:
//
//   - charges the same states and yields the same fingerprint and memo as
//     at W=1;
//   - holds one memo segment per assignment, in enumeration order, each
//     with the rows of its own assignment only;
//   - seeds an Advance that equals a cold evaluation at the new epoch.
func TestFanOutAfterInlinePrefix(t *testing.T) { eachTable(t, testFanOutAfterInlinePrefix) }

func testFanOutAfterInlinePrefix(t *testing.T) {
	forceParallel(t)
	ctx := context.Background()
	q := MustParse("Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	build := func() *graph.DB { return bigComponentGraph(rand.New(rand.NewSource(137)), 16, 2, sigmaAB) }
	const budget = 1 << 30
	opts := func(w int) Options { return Options{BFSWorkers: w, MaxProductStates: budget} }
	// eval runs one capturing evaluation on a fresh program and reports the
	// states it charged and the fan-outs it ran.
	eval := func(s *graph.Snapshot, w int) (prog *Program, res *Result, charged int, fanouts uint64) {
		t.Helper()
		prog, err := CompileProgram(q, false)
		if err != nil {
			t.Fatal(err)
		}
		fanouts0 := BFSParallelStats()
		if res, err = prog.EvalSnapshotMemo(ctx, s, opts(w)); err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		fanouts = BFSParallelStats() - fanouts0
		ws := prog.takeWorkspace() // the pool's one workspace: the one that ran
		charged = budget - int(ws.bud.left.Load())
		prog.putWorkspace(ws)
		if res.inc == nil {
			t.Fatalf("W=%d: no memo captured", w)
		}
		return prog, res, charged, fanouts
	}

	_, base, baseCharged, _ := eval(build().Snapshot(), 1)
	for _, w := range parWorkerCounts[1:] {
		g := build()
		s := g.Snapshot()
		prog, res, charged, fanouts := eval(s, w)
		if fanouts == 0 {
			t.Fatalf("W=%d: no fan-out after the inline prefix", w)
		}
		if res.Fingerprint() != base.Fingerprint() || charged != baseCharged {
			t.Fatalf("W=%d: fingerprint %016x after %d states charged, W=1 %016x after %d",
				w, res.Fingerprint(), charged, base.Fingerprint(), baseCharged)
		}
		if !reflect.DeepEqual(res.inc.comps, base.inc.comps) {
			t.Fatalf("W=%d: memo differs from the W=1 capture", w)
		}

		c, m := prog.comps[0], res.inc.comps[0]
		sp := startSpace{vars: c.xvars}
		for _, l := range m.lists {
			if l == nil {
				l = nodeRange(nil, s.NumNodes())
			}
			sp.lists = append(sp.lists, l)
		}
		if got, want := uint64(m.nAssign()), sp.size(); got != want {
			t.Fatalf("W=%d: %d memo segments for %d start assignments", w, got, want)
		}
		_ = sp.forRange(0, sp.size(), func(idx uint64, assign map[NodeVar]graph.Node) error {
			rows := m.rows[m.rowOff[idx]:m.rowOff[idx+1]]
			for r := 0; r < len(rows); r += m.stride {
				for _, v := range c.xvars {
					if n := rows[r+varPos(c.allVars, v)]; n != assign[v] {
						t.Fatalf("W=%d: segment %d holds a row with %s=%d, its assignment has %d", w, idx, v, n, assign[v])
					}
				}
			}
			return nil
		})

		g.AddEdge(3, 'a', 11)
		g.AddEdge(11, 'b', 5)
		adv, kind, err := prog.Advance(ctx, res, g.Snapshot(), opts(w))
		if err != nil || kind != AdvanceIncremental {
			t.Fatalf("W=%d: Advance: %v, %v; want an incremental pass", w, kind, err)
		}
		sameResult(t, fmt.Sprintf("W=%d: Advance from the fanned-out memo", w), adv, evalFresh(t, q, g.Snapshot(), opts(1)))
	}
}

// TestParallelStreamAgreesAcrossWorkers pins the streaming executor at
// every worker count: the emitted answer sequence (order included) must
// be identical, because a stream never fans out and its sink sees rows in
// exactly the sequential order.
func TestParallelStreamAgreesAcrossWorkers(t *testing.T) {
	eachTable(t, testParallelStreamAgreesAcrossWorkers)
}

func testParallelStreamAgreesAcrossWorkers(t *testing.T) {
	forceParallel(t)
	q := MustParse("Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	g := bigComponentGraph(rand.New(rand.NewSource(127)), 15, 2, sigmaAB)
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(w, limit int) []string {
		t.Helper()
		var keys []string
		for a, err := range prog.Stream(context.Background(), g, StreamOptions{Options: Options{BFSWorkers: w}, Limit: limit}) {
			if err != nil {
				t.Fatalf("W=%d: stream: %v", w, err)
			}
			keys = append(keys, a.Key())
		}
		return keys
	}
	for _, limit := range []int{0, 3} {
		base := collect(1, limit)
		for _, w := range parWorkerCounts[1:] {
			got := collect(w, limit)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("limit %d: stream order at W=%d %v, sequential %v", limit, w, got, base)
			}
		}
	}
}

// TestEffectiveBFSWorkers pins the option resolution: zero means
// GOMAXPROCS, negatives clamp to sequential, huge values clamp to the
// worker cap, and the cache key ignores the worker count, which cannot
// change the result.
func TestEffectiveBFSWorkers(t *testing.T) {
	if got := effectiveBFSWorkers(1); got != 1 {
		t.Fatalf("effectiveBFSWorkers(1) = %d", got)
	}
	if got := effectiveBFSWorkers(-3); got != 1 {
		t.Fatalf("effectiveBFSWorkers(-3) = %d", got)
	}
	if got := effectiveBFSWorkers(10_000); got != maxBFSWorkers {
		t.Fatalf("effectiveBFSWorkers(10000) = %d, want %d", got, maxBFSWorkers)
	}
	if got := effectiveBFSWorkers(0); got < 1 || got > maxBFSWorkers {
		t.Fatalf("effectiveBFSWorkers(0) = %d out of range", got)
	}
	a := Options{BFSWorkers: 0}.CacheKey()
	b := Options{BFSWorkers: effectiveBFSWorkers(0)}.CacheKey()
	if a != b {
		t.Fatalf("cache keys differ for default and resolved worker counts:\n%s\n%s", a, b)
	}
	if a, b := (Options{BFSWorkers: 1}).CacheKey(), (Options{BFSWorkers: 2}).CacheKey(); a != b {
		t.Fatalf("cache key renders the worker count:\n%s\n%s", a, b)
	}
}

// labelRichGraph is the label-rich shape of the benchmark's lr cases: n
// nodes and about deg·n edges, whose sources are Zipf-skewed towards the
// low node ids (hubs) and whose labels are uniform over sigma.
func labelRichGraph(r *rand.Rand, n int, sigma []rune, deg float64) *graph.DB {
	g := graph.NewDB()
	g.AddNodes(n)
	z := rand.NewZipf(r, 1.4, 4, uint64(n-1))
	for e := 0; e < int(deg*float64(n)); e++ {
		g.AddEdge(graph.Node(z.Uint64()), sigma[r.Intn(len(sigma))], graph.Node(r.Intn(n)))
	}
	return g
}

// TestCostModelKeepsNarrowWorkInline pins the decisions the cost model is
// there to make, at BFSWorkers: 2 with the committed constants and at
// least two procs, so that going wide is on the table:
//
//   - a cold [σ]* evaluation (σ = 32, n = 256, x bound to the top hub)
//     builds no fan-out — it emits some 1 500 moves on the component's
//     minimal table, where the 32 labels are one class (about 2 000 on
//     the lazy runner's 2 joint states);
//   - the bigcomp shape (32 nodes, el, x bound; some twenty start
//     assignments of thousands of moves each) still fans out;
//   - a warm permissive evaluation allocates no more at W = 2 than at
//     W = 1.
func TestCostModelKeepsNarrowWorkInline(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	ctx := context.Background()
	bind := map[NodeVar]graph.Node{"x": 0}
	sigma := []rune("abcdefghijklmnopqrstuvwxyzABCDEF")
	permissive := MustParse(fmt.Sprintf("Ans(x,y) <- (x,p,y), [%s]*(p)", string(sigma)), Env{Sigma: sigma})
	s := labelRichGraph(rand.New(rand.NewSource(32256)), 256, sigma, 6).Snapshot()

	prog, err := CompileProgram(permissive, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Eval(ctx, s, Options{Bind: bind, BFSWorkers: 2}); err != nil {
		t.Fatal(err)
	}
	e := prog.take(0)
	if e.moves < 1000 {
		t.Fatalf("the permissive evaluation emitted %d moves; the test exercises nothing", e.moves)
	}
	if e.fan != nil {
		t.Error("cold permissive evaluation at W=2 built a fan-out; it should run inline")
	}
	prog.put(0, e)

	bigcomp := MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), (a|b)*a(p1), (a|b)*b(p2), el(p1,p2)", env())
	g := bigComponentGraph(rand.New(rand.NewSource(8)), 32, 3, sigmaAB)
	fanouts0 := BFSParallelStats()
	if _, err := Eval(bigcomp, g, Options{Bind: bind, BFSWorkers: 2}); err != nil {
		t.Fatal(err)
	}
	if BFSParallelStats() == fanouts0 {
		t.Error("the bigcomp shape no longer fans out at W=2")
	}

	// Not testing.AllocsPerRun: it measures at GOMAXPROCS 1, where no
	// decision could go wide.
	mallocs := func(w int) uint64 {
		prog, err := CompileProgram(permissive, false)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Bind: bind, BFSWorkers: w}
		eval := func() {
			if _, err := prog.Eval(ctx, s, opts); err != nil {
				t.Fatal(err)
			}
		}
		eval()
		eval()
		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			eval()
		}
		runtime.ReadMemStats(&m1)
		return (m1.Mallocs - m0.Mallocs) / runs
	}
	if w1, w2 := mallocs(1), mallocs(2); w2 > w1 {
		t.Errorf("a warm permissive evaluation makes %d allocations at W=2, %d at W=1", w2, w1)
	}
}
