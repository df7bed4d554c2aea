package ecrpq

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// This file pins the life of a run's state bitset (prodCore.beginVisit,
// visit) across pooled reuse: the layout changing between snapshots, a
// mid-run spill onto a table, and state arrays dropped on release. A bit
// left set by an earlier run would make a later one skip a state, which
// shows as a missing answer against a fresh NoPrune evaluation.

// ringGraph builds n nodes where node i has an a-edge to i+1 and a
// b-edge to i+2 (mod n): paths of length k from any node reach every node
// once k ≥ n−1, so equal-length path pairs cover all n² node pairs.
func ringGraph(n int) *graph.Snapshot {
	g := graph.NewDB()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddEdge(graph.Node(i), 'a', graph.Node((i+1)%n))
		g.AddEdge(graph.Node(i), 'b', graph.Node((i+2)%n))
	}
	return g.Snapshot()
}

// reference evaluates q on a fresh program with NoPrune, one worker and
// the bitset off: the oracle every held-program evaluation here meets.
func reference(t *testing.T, q *Query, s *graph.Snapshot, bind map[NodeVar]graph.Node) *Result {
	t.Helper()
	words := bitsetWords
	bitsetWords = 0
	defer func() { bitsetWords = words }()
	want := evalFresh(t, q, s, Options{Bind: bind, NoPrune: true, BFSWorkers: 1})
	if len(want.Answers) == 0 {
		t.Fatalf("the reference of %q on %d nodes has no answers; the input exercises nothing", q, s.NumNodes())
	}
	return want
}

// starGraph builds n nodes where node 0 has an a-loop and an a-edge to
// each node below fan, and no other node has an edge.
func starGraph(n, fan int) *graph.Snapshot {
	g := graph.NewDB()
	g.AddNodes(n)
	for i := 0; i < fan; i++ {
		g.AddEdge(0, 'a', graph.Node(i))
	}
	return g.Snapshot()
}

// evalHeld evaluates prog, checks the result against want and returns
// the component-0 engine's state set as the pooled workspace keeps it.
func evalHeld(t *testing.T, label string, prog *Program, s *graph.Snapshot, opts Options, want *Result) tupleSet {
	t.Helper()
	res, err := prog.Eval(context.Background(), s, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameResult(t, label, res, want)
	e := prog.take(0)
	defer prog.put(0, e)
	return e.states
}

func TestBitsetLifecycle(t *testing.T) {
	forceParallel(t)
	small := bigComponentGraph(rand.New(rand.NewSource(229)), 12, 3, sigmaAB).Snapshot()

	// From node 0 the two tapes of el reach every pair of the star's
	// nodes, and every state is an answer. 12 nodes take 4-bit node
	// fields, 300 take 9-bit ones, so each evaluation must clear the
	// previous one's bits under that one's layout: under the current
	// layout, the 12-node run's keys would stay set as the 300-node
	// states (0, m<192), and the 300-node run's (0, m) as the 12-node
	// states (m>>4, m&15).
	t.Run("layout", func(t *testing.T) {
		q := MustParse("Ans(y1, y2) <- (x,p1,y1), (x,p2,y2), el(p1,p2)", env())
		bind := map[NodeVar]graph.Node{"x": 0}
		star12, star300 := starGraph(12, 12), starGraph(300, 192)
		want := map[*graph.Snapshot]*Result{star12: reference(t, q, star12, bind), star300: reference(t, q, star300, bind)}
		for _, w := range parWorkerCounts {
			prog, err := CompileProgram(q, false)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range []*graph.Snapshot{star12, star300, star12} {
				set := evalHeld(t, fmt.Sprintf("W=%d eval %d (%d nodes)", w, i, s.NumNodes()), prog, s, Options{Bind: bind, BFSWorkers: w}, want[s])
				if !set.onBits {
					t.Fatalf("W=%d eval %d: the states of a %d-node run were not on the bitset", w, i, s.NumNodes())
				}
			}
		}
	})

	// A one-block bound: the run starts on the bitset (the fresh runner
	// knows one joint state) and spills to the packed table at the second
	// joint state; the rerun knows too many to start on bits. Only a lazy
	// runner discovers joint states mid-run, so the component is kept lazy.
	t.Run("spill", func(t *testing.T) {
		setTableCells(t, 0)
		q := MustParse("Ans(y1, y2) <- (x,p1,y1), (x,p2,y2), (ab)+(p1), (ba|bb)+(p2), el(p1,p2)", env())
		var bind map[NodeVar]graph.Node
		for x := graph.Node(0); x < 12; x++ {
			bind = map[NodeVar]graph.Node{"x": x}
			if len(evalFresh(t, q, small, Options{Bind: bind, NoPrune: true, BFSWorkers: 1}).Answers) > 0 {
				break
			}
		}
		want := reference(t, q, small, bind)
		// Two 4-bit node fields: a block of 256 bits, 4 words.
		setBitset(t, 4)
		for _, w := range parWorkerCounts {
			prog, err := CompileProgram(q, false)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Bind: bind, BFSWorkers: w}
			set := evalHeld(t, fmt.Sprintf("W=%d, spilled mid-run", w), prog, small, opts, want)
			if set.onBits || set.packed == nil || cap(set.bits) == 0 || slices.ContainsFunc(set.bits, func(x uint64) bool { return x != 0 }) {
				t.Fatalf("W=%d: want a run that started on bits and spilled them, cleared, to a packed table (onBits %v, packed %v, %d words)",
					w, set.onBits, set.packed != nil, cap(set.bits))
			}
			set = evalHeld(t, fmt.Sprintf("W=%d, started packed", w), prog, small, opts, want)
			if set.onBits || set.bits != nil || set.packed == nil {
				t.Fatalf("W=%d: the rerun did not start on the packed table (onBits %v, packed %v)", w, set.onBits, set.packed != nil)
			}
		}
	})

	// One run of 300² product states: release drops its state arrays, and
	// the bitset with them, before the next, small run.
	t.Run("dropped", func(t *testing.T) {
		q := MustParse("Ans(y1) <- (x,p1,y1), (x,p2,y2), el(p1,p2)", env())
		ring := ringGraph(300)
		bind := map[NodeVar]graph.Node{"x": 0}
		wantRing, wantSmall := reference(t, q, ring, bind), reference(t, q, small, bind)
		for _, w := range parWorkerCounts {
			prog, err := CompileProgram(q, false)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Bind: bind, BFSWorkers: w}
			set := evalHeld(t, fmt.Sprintf("W=%d large", w), prog, ring, opts, wantRing)
			if set.bits != nil {
				t.Fatalf("W=%d: the large run's bitset outlived its dropped state arrays", w)
			}
			e := prog.take(0)
			if e.joints != nil {
				t.Fatalf("W=%d: a run of more than %d states kept its state arrays", w, maxPooledScratch)
			}
			prog.put(0, e)
			if set = evalHeld(t, fmt.Sprintf("W=%d small after large", w), prog, small, opts, wantSmall); !set.onBits {
				t.Fatalf("W=%d: the run after the large one was not on the bitset", w)
			}
		}
	})
}

// TestDomainPassBitsetMatchesPacked runs one post[L] pass on a
// bitset-eligible graph on the bitset, then forced onto the packed table,
// then on the bitset again, and once more after a pass past
// maxPooledScratch states that pooling drops, all on one engine: the same
// ends and the same charge each time.
func TestDomainPassBitsetMatchesPacked(t *testing.T) {
	q := MustParse("Ans(y) <- (x,p,y), (a|b)*a(bb)*(p)", env())
	atom := q.PathAtoms[0]
	comp, err := newComponent(q.PathAtoms, q.RelAtoms, []PathVar{atom.Pi})
	if err != nil {
		t.Fatal(err)
	}
	s := bigComponentGraph(rand.New(rand.NewSource(239)), 200, 2, sigmaAB).Snapshot()
	d := newDomainEngine(comp)
	src := []graph.Node{0, 7, 31}
	post := func(label string, onBits bool) ([]graph.Node, int) {
		t.Helper()
		ends, charged, err := d.post(context.Background(), s, src, newStateBudget(0))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if d.states.onBits != onBits || (d.states.packed != nil) == onBits {
			t.Fatalf("%s: onBits %v, packed %v", label, d.states.onBits, d.states.packed != nil)
		}
		return slices.Clone(ends), charged
	}
	want, wantCharged := post("bitset", true)
	if len(want) < 2 {
		t.Fatalf("the pass reaches %d nodes; the graph exercises nothing", len(want))
	}
	setBitset(t, 0)
	got, charged := post("packed", false)
	bitsetWords = maxPooledScratch
	if !slices.Equal(got, want) || charged != wantCharged {
		t.Fatalf("packed pass: %d ends, %d charged; bitset: %d ends, %d charged", len(got), charged, len(want), wantCharged)
	}
	if got, charged = post("bitset again", true); !slices.Equal(got, want) || charged != wantCharged {
		t.Fatalf("second bitset pass: %d ends, %d charged; first: %d ends, %d charged", len(got), charged, len(want), wantCharged)
	}

	if _, charged, err := d.post(context.Background(), ringGraph(maxPooledScratch+10), src[:1], newStateBudget(0)); err != nil || charged <= maxPooledScratch {
		t.Fatalf("large pass: %d states charged, err %v", charged, err)
	}
	pa := &propAtom{atom: atom}
	pa.put(d)
	if d = pa.pool.take(); d == nil || d.joints != nil || d.states.bits != nil {
		t.Fatal("pooling kept the large pass's state queue or its bitset")
	}
	if got, charged = post("bitset after a dropped pass", true); !slices.Equal(got, want) || charged != wantCharged {
		t.Fatalf("pass after a dropped one: %d ends, %d charged; first: %d ends, %d charged", len(got), charged, len(want), wantCharged)
	}
}
