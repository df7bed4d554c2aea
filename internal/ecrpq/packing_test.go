package ecrpq

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// This file pins the membership sets of the product BFS — the state
// bitset (prodCore.visit), the word-packed table (internState) and the
// generic intern.Table it falls back to — against
// each other: whichever representation a run starts on, and wherever it
// spills, answers, witnesses, fingerprints and memo states and rows are
// the ones the other representations produce.

// memoComp is what a component memo records, with its states decoded
// from whichever key layout the capture used: memos captured under
// different layouts compare equal through it when they hold the same
// states and rows.
type memoComp struct {
	stride  int
	lists   [][]graph.Node
	onTable bool
	states  [][][]int // per segment, per state: joint id, then nodes; per node on a lazy memo
	rows    [][]graph.Node
}

func memoView(ms []*compMemo) []memoComp {
	var out []memoComp
	for _, m := range ms {
		c := memoComp{stride: m.stride, lists: m.lists, onTable: m.tab != nil}
		nodes := make([]graph.Node, m.cnt)
		for _, seg := range m.segs {
			var states [][]int
			for i := range len(seg.states) / m.width {
				if m.tab == nil {
					states = append(states, []int{int(seg.states[i])})
					continue
				}
				st := []int{m.state(seg.states, i, nodes)}
				for _, n := range nodes {
					st = append(st, int(n))
				}
				states = append(states, st)
			}
			c.states = append(c.states, states)
			c.rows = append(c.rows, seg.rows)
		}
		out = append(out, c)
	}
	return out
}

// setPacking overrides the key-layout knobs for one test.
func setPacking(t *testing.T, keyBits, jointBits int) {
	t.Helper()
	oldKey, oldJoint := packedKeyBits, minJointBits
	packedKeyBits, minJointBits = keyBits, jointBits
	t.Cleanup(func() { packedKeyBits, minJointBits = oldKey, oldJoint })
}

// setBitset overrides the state bitset's bound (in words) for one test;
// 0 turns the bitset off.
func setBitset(t *testing.T, words int) {
	t.Helper()
	old := bitsetWords
	bitsetWords = words
	t.Cleanup(func() { bitsetWords = old })
}

// setTableCells overrides the bound of the components' minimal tables
// for one test; 0 keeps every component lazy. Programs read it when they
// compile.
func setTableCells(t *testing.T, cells int) {
	t.Helper()
	old := tableCells
	tableCells = cells
	t.Cleanup(func() { tableCells = old })
}

// eachTable runs body twice, as subtests: with the components' minimal
// tables (the default) and with every component kept lazy.
func eachTable(t *testing.T, body func(t *testing.T)) {
	t.Run("table", body)
	t.Run("lazy", func(t *testing.T) {
		setTableCells(t, 0)
		body(t)
	})
}

// evalFresh evaluates q on a program compiled for the call, so the
// engines (whose symbol sets pick their representation at construction)
// see the knobs in force now.
func evalFresh(t *testing.T, q *Query, s *graph.Snapshot, opts Options) *Result {
	t.Helper()
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	res, err := prog.EvalSnapshotMemo(context.Background(), s, opts)
	if err != nil {
		t.Fatalf("eval %q: %v", q, err)
	}
	return res
}

func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint %016x, want %016x (%d vs %d answers)",
			label, got.Fingerprint(), want.Fingerprint(), len(got.Answers), len(want.Answers))
	}
	if !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Fatalf("%s: equal fingerprints over different answers", label)
	}
}

// TestPackedMatchesGenericEverywhere runs the oracle, label-rich and
// class query suites three ways — states on the bitset (the default on
// these small graphs), on packed tables with the bitset forced off, and
// every set forced generic — at W ∈ {1,2,8} with the parallel machinery
// forced on: identical results, identical memos. It does so on the
// components' minimal tables and with every component kept lazy.
func TestPackedMatchesGenericEverywhere(t *testing.T) {
	eachTable(t, testPackedMatchesGenericEverywhere)
}

func testPackedMatchesGenericEverywhere(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(211))
	type input struct {
		q *Query
		s *graph.Snapshot
	}
	var inputs []input
	for trial := 0; trial < 4; trial++ {
		s := randomDAG(r, 5+r.Intn(3), 0.5, sigmaAB).Snapshot()
		for _, q := range oracleQueries(t) {
			inputs = append(inputs, input{q, s})
		}
		inputs = append(inputs, input{MustParse("Ans(x, y, p) <- (x,p,y), (a|b)*(p)", env()), s})
	}
	for trial := 0; trial < 3; trial++ {
		s := skewedDAG(r, 6+r.Intn(3), sigmaRich).Snapshot()
		for _, q := range labelRichQueries(t) {
			inputs = append(inputs, input{q, s})
		}
	}
	sigma := bigSigmaTest(200)
	for trial := 0; trial < 3; trial++ {
		s := zipfGraph(r, 24, 90, sigma).Snapshot()
		inputs = append(inputs, input{randBandQuery(r, sigma), s})
	}

	type outcome struct {
		res  []*Result
		memo [][]*compMemo
	}
	run := func() outcome {
		var o outcome
		for _, in := range inputs {
			for _, w := range parWorkerCounts {
				res := evalFresh(t, in.q, in.s, Options{BFSWorkers: w})
				o.res = append(o.res, res)
				var memo []*compMemo
				if res.inc != nil {
					memo = res.inc.comps
				}
				o.memo = append(o.memo, memo)
			}
		}
		return o
	}
	setBitset(t, maxPooledScratch)
	bitset := run()
	setBitset(t, 0)
	packed := run()
	setPacking(t, 0, minJointBits)
	generic := run()
	for i := range bitset.res {
		in, w := inputs[i/len(parWorkerCounts)], parWorkerCounts[i%len(parWorkerCounts)]
		label := fmt.Sprintf("query %q W=%d", in.q, w)
		for _, other := range []struct {
			name string
			o    outcome
		}{{"packed", packed}, {"generic", generic}} {
			sameResult(t, label+" vs "+other.name, bitset.res[i], other.o.res[i])
			if !reflect.DeepEqual(memoView(bitset.memo[i]), memoView(other.o.memo[i])) {
				t.Fatalf("%s: memo states or rows differ between the bitset and %s sets", label, other.name)
			}
		}
		sameResult(t, label+" vs W=1", bitset.res[i], bitset.res[i-i%len(parWorkerCounts)])
	}
}

// TestJointFieldOverflowSpillsMidRun gives the joint id a one-bit field
// on a query whose single BFS run (x bound, no other start variable)
// discovers more than two joint states: the run starts packed — the
// runner knows one state — and the third joint id no longer fits, so the
// state set must move to the generic table mid-run with every id intact.
// The rerun finds a runner that holds more joint states than the field
// can name and must start generic. The bitset is off: on 12 nodes it
// would hold every state and never reach the packed table. The component
// is kept lazy: a minimal table names every joint state before the run.
func TestJointFieldOverflowSpillsMidRun(t *testing.T) {
	forceParallel(t)
	q := MustParse("Ans(y1, y2) <- (x,p1,y1), (x,p2,y2), (ab)+(p1), (ba|bb)+(p2), el(p1,p2)", env())
	s := bigComponentGraph(rand.New(rand.NewSource(223)), 12, 3, sigmaAB).Snapshot()
	var bind map[NodeVar]graph.Node
	var want *Result
	for x := graph.Node(0); x < 12 && (want == nil || len(want.Answers) == 0); x++ {
		bind = map[NodeVar]graph.Node{"x": x}
		want = evalFresh(t, q, s, Options{Bind: bind, NoPrune: true, BFSWorkers: 1})
	}
	if len(want.Answers) == 0 {
		t.Fatal("test graph yields no answers from any start; pick another seed")
	}

	// 12 nodes need 4 bits a tape; 2 tapes + 1 joint bit = 9.
	setPacking(t, 9, 1)
	setBitset(t, 0)
	setTableCells(t, 0)
	for _, w := range parWorkerCounts {
		prog, err := CompileProgram(q, false)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Bind: bind, BFSWorkers: w}
		res, err := prog.Eval(context.Background(), s, opts)
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		sameResult(t, fmt.Sprintf("W=%d, spilled mid-run", w), res, want)
		e := prog.take(0)
		if !e.statesPacked || e.runner.NumStates() <= 2 {
			t.Fatalf("W=%d: run planned packed=%v and left %d joint states; the one-bit field never overflowed",
				w, e.statesPacked, e.runner.NumStates())
		}
		if e.states.table == nil {
			t.Fatalf("W=%d: the state set never left the packed representation", w)
		}
		prog.put(0, e)

		res, err = prog.Eval(context.Background(), s, opts)
		if err != nil {
			t.Fatalf("W=%d rerun: %v", w, err)
		}
		sameResult(t, fmt.Sprintf("W=%d, started generic", w), res, want)
		e = prog.take(0)
		if e.statesPacked {
			t.Fatalf("W=%d: rerun planned packed states with %d joint states and a one-bit field", w, e.runner.NumStates())
		}
		prog.put(0, e)
	}
}

// TestFourTapeComponentFallsBack: on a graph past 2¹⁴ nodes four node
// fields plus a joint id do not fit a word — the component's state set
// runs generic, with no knob turned.
func TestFourTapeComponentFallsBack(t *testing.T) {
	const n = 1<<14 + 9
	g := graph.NewDB()
	g.AddNodes(n)
	// Two a-labelled fans and a b-tail among the highest node ids, so
	// the tuples that matter carry 15-bit nodes.
	top := graph.Node(n - 8)
	for i := graph.Node(0); i < 6; i++ {
		g.AddEdge(top+i, 'a', top+i+1)
		g.AddEdge(top+i, 'a', top+(i+2)%8)
		g.AddEdge(top+i+1, 'b', top+i)
	}
	q := MustParse("Ans(y1, y4) <- (x,p1,y1), (x,p2,y2), (x,p3,y3), (x,p4,y4), el(p1,p2), el(p2,p3), el(p3,p4), a+(p1)", env())
	bind := map[NodeVar]graph.Node{"x": top}
	s := g.Snapshot()
	want := evalFresh(t, q, s, Options{Bind: bind, NoPrune: true, BFSWorkers: 1})
	if len(want.Answers) < 2 {
		t.Fatalf("only %d answers; the graph exercises nothing", len(want.Answers))
	}
	forceParallel(t)
	for _, w := range parWorkerCounts {
		prog, err := CompileProgram(q, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prog.Eval(context.Background(), s, Options{Bind: bind, BFSWorkers: w})
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		sameResult(t, fmt.Sprintf("W=%d", w), res, want)
		e := prog.take(0)
		if e.cnt != 4 {
			t.Fatalf("component has %d tapes, want 4", e.cnt)
		}
		if e.statesPacked || e.states.packed != nil {
			t.Fatalf("W=%d: 4-tape component on %d nodes packed its states", w, n)
		}
		prog.put(0, e)
	}
}

// TestLargeNodeIds evaluates on a graph of more than 2²¹ nodes whose
// edges sit at the top of the id range: a two-tape component still packs
// (22-bit node fields), a three-tape one cannot. Both must agree with
// the reference and with the same pattern placed at the bottom of a
// small graph, node for node.
func TestLargeNodeIds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2M-node graph")
	}
	const n, k = 1<<21 + 40, 24
	small := bigComponentGraph(rand.New(rand.NewSource(227)), k, 2, sigmaAB)
	big := graph.NewDB()
	big.AddNodes(n)
	off := graph.Node(n - k)
	ss := small.Snapshot()
	for v := graph.Node(0); v < k; v++ {
		ss.EdgesFrom(v, func(a rune, to graph.Node) {
			big.AddEdge(off+v, a, off+to)
		})
	}
	bs := big.Snapshot()
	for _, tc := range []struct {
		text   string
		packed bool
	}{
		{"Ans(y1, y2) <- (x,p1,y1), (x,p2,y2), a+(p1), b+(p2), el(p1,p2)", true},
		{"Ans(y1, y3) <- (x,p1,y1), (x,p2,y2), (x,p3,y3), el(p1,p2), el(p2,p3)", false},
	} {
		q := MustParse(tc.text, env())
		for x := graph.Node(0); x < 3; x++ {
			lo := evalFresh(t, q, ss, Options{Bind: map[NodeVar]graph.Node{"x": x}, NoPrune: true, BFSWorkers: 1})
			bind := map[NodeVar]graph.Node{"x": off + x}
			want := evalFresh(t, q, bs, Options{Bind: bind, NoPrune: true, BFSWorkers: 1})
			if len(want.Answers) != len(lo.Answers) {
				t.Fatalf("%q x=%d: %d answers at the top of the id range, %d at the bottom", tc.text, x, len(want.Answers), len(lo.Answers))
			}
			for i, a := range want.Answers {
				for j, v := range a.Nodes {
					if v != lo.Answers[i].Nodes[j]+off {
						t.Fatalf("%q x=%d: answer %d is %v, small graph has %v", tc.text, x, i, a.Nodes, lo.Answers[i].Nodes)
					}
				}
			}
			for _, w := range parWorkerCounts {
				prog, err := CompileProgram(q, false)
				if err != nil {
					t.Fatal(err)
				}
				res, err := prog.Eval(context.Background(), bs, Options{Bind: bind, BFSWorkers: w})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%q x=%d W=%d", tc.text, x, w), res, want)
				e := prog.take(0)
				if e.statesPacked != tc.packed {
					t.Fatalf("%q: statesPacked = %v on %d nodes and %d tapes, want %v", tc.text, e.statesPacked, n, e.cnt, tc.packed)
				}
				prog.put(0, e)
			}
		}
	}
}

// TestTupleSetSpillKeepsIds drives internState directly across its
// spill point: ids handed out before the spill must be the ids found
// after it, and numbering must continue without a gap.
func TestTupleSetSpillKeepsIds(t *testing.T) {
	q := MustParse("Ans(x, y) <- (x,p1,z), (z,p2,y), el(p1,p2)", env())
	comps, err := decompose(q, false)
	if err != nil {
		t.Fatal(err)
	}
	pc := newProdCore(nil, comps[0])
	pc.nodeBits, pc.jointBits, pc.statesPacked = 5, 3, true
	var set tupleSet
	set.reset(true)
	type st struct {
		joint int
		nodes []graph.Node
	}
	states := []st{{0, []graph.Node{1, 2}}, {7, []graph.Node{31, 0}}, {0, []graph.Node{2, 1}}, {7, []graph.Node{31, 0}},
		{8, []graph.Node{1, 2}}, {0, []graph.Node{32, 0}}, {0, []graph.Node{-1, 0}}, {0, []graph.Node{1, 2}}}
	wantIDs := []int{0, 1, 2, 1, 3, 4, 5, 0}
	for i, s := range states {
		id, _ := pc.internState(&set, s.joint, s.nodes)
		if id != wantIDs[i] {
			t.Fatalf("internState(%d, %v) = %d, want %d", s.joint, s.nodes, id, wantIDs[i])
		}
		if wantPacked := i < 4; (set.packed != nil) != wantPacked {
			t.Fatalf("after state %d: packed = %v, want %v", i, set.packed != nil, wantPacked)
		}
	}
}
