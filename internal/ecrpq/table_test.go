package ecrpq

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/relations"
)

// This file pins the contract of the components' minimal tables
// (component.dfa): a pruning evaluation that reads the table returns
// exactly what the NoPrune reference, which reads the lazy runner,
// returns — answers, witness paths and Result.Fingerprint — at every
// worker count, and charges no more product states.

// TestTableMatchesNoPrune evaluates the oracle, label-rich, random and
// class query suites by default and under NoPrune + one worker: equal
// fingerprints over equal answers at W ∈ {1,2,8} with the parallel
// machinery forced on, and component 0 charging at most the reference's
// states.
func TestTableMatchesNoPrune(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(36))
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
		for range 4 {
			inputs = append(inputs, input{randomOracleQuery(t, r), s})
		}
		c := randomCyclic(r, 8, 24).Snapshot()
		inputs = append(inputs, input{MustParse("Ans(x, y, p) <- (x,p,y), (a|b)*a(p)", env()), c},
			input{MustParse("Ans(x, y, p1, p2) <- (x,p1,z), (z,p2,y), (a|b)*a(p1), (a|b)*b(p2), el(p1,p2)", env()), c})
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
	merged := 0
	for _, in := range inputs {
		want := evalFresh(t, in.q, in.s, Options{NoPrune: true, BFSWorkers: 1})
		prog, err := CompileProgram(in.q, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range parWorkerCounts {
			res, err := prog.Eval(context.Background(), in.s, Options{BFSWorkers: w})
			if err != nil {
				t.Fatalf("%q W=%d: %v", in.q, w, err)
			}
			sameResult(t, fmt.Sprintf("%q W=%d", in.q, w), res, want)
		}
		if got, ref := chargeOf(t, prog, in.s, Options{BFSWorkers: 1}), chargeOf(t, prog, in.s, Options{NoPrune: true, BFSWorkers: 1}); got > ref {
			t.Fatalf("%q: component 0 charged %d states on its table, %d under NoPrune", in.q, got, ref)
		}
		for _, c := range prog.comps {
			if c.table() == nil {
				t.Fatalf("%q: a small component kept no table", in.q)
			}
			if c.dfa.Minimal < c.dfa.Explored {
				merged++
			}
		}
	}
	if merged == 0 {
		t.Fatal("no table merged a joint state; the suites exercise nothing")
	}
}

// TestTableWitnessesMatchNoPrune is the witness-keeping case whose joint
// states merge: [σ]* over 32 labels keeps 2 joint states on the lazy
// runner (the start and the loop it enters) and one on the table, where
// the 32 labels are one class. Its
// witnesses — x bound to the top hub of a 256-node graph, and x free on a
// 40-node one, where the start assignments fan out — are NoPrune's at
// W ∈ {1,2,8}.
func TestTableWitnessesMatchNoPrune(t *testing.T) {
	forceParallel(t)
	sigma := []rune("abcdefghijklmnopqrstuvwxyzABCDEF")
	q := MustParse(fmt.Sprintf("Ans(x,y,p) <- (x,p,y), [%s]*(p)", string(sigma)), Env{Sigma: sigma})
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	if d := prog.comps[0].table(); d == nil || d.Explored != 2 || d.Minimal != 1 || d.Classes[0] != 1 {
		t.Fatalf("[σ]* table: %+v, want 2 → 1 joint states and 32 → 1 classes", d)
	}
	for _, tc := range []struct {
		s    *graph.Snapshot
		bind map[NodeVar]graph.Node
	}{
		{labelRichGraph(rand.New(rand.NewSource(32256)), 256, sigma, 6).Snapshot(), map[NodeVar]graph.Node{"x": 0}},
		{labelRichGraph(rand.New(rand.NewSource(3240)), 40, sigma, 4).Snapshot(), nil},
	} {
		want := evalFresh(t, q, tc.s, Options{Bind: tc.bind, NoPrune: true, BFSWorkers: 1})
		if len(want.Answers) < 10 {
			t.Fatalf("%d nodes: %d answers; the graph exercises nothing", tc.s.NumNodes(), len(want.Answers))
		}
		for _, w := range parWorkerCounts {
			fanouts := BFSParallelStats()
			res, err := prog.Eval(context.Background(), tc.s, Options{Bind: tc.bind, BFSWorkers: w})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%d nodes W=%d", tc.s.NumNodes(), w), res, want)
			if tc.bind == nil && w > 1 && BFSParallelStats() == fanouts {
				t.Fatalf("W=%d: the free start variable never fanned out", w)
			}
		}
	}
}

// TestExplainTable pins ComponentInfo.Table: [σ]* over 32 labels reports
// 2 → 1 joint states and 32 → 1 classes, and a component kept lazy
// reports no table.
func TestExplainTable(t *testing.T) {
	sigma := []rune("abcdefghijklmnopqrstuvwxyzABCDEF")
	q := MustParse(fmt.Sprintf("Ans(x,y) <- (x,p,y), [%s]*(p)", string(sigma)), Env{Sigma: sigma})
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Components()[0].Table.String(); got != "joint states 2 → 1; classes 32 → 1" {
		t.Fatalf("table %q", got)
	}
	two, err := CompileProgram(MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env()), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := two.Components()[0].Table.String(); !strings.HasSuffix(got, "; classes 2 → 1, 2 → 1") {
		t.Fatalf("two-tape table %q", got)
	}
	setTableCells(t, 0)
	if prog, err = CompileProgram(q, false); err != nil {
		t.Fatal(err)
	}
	info := prog.Components()[0]
	if info.Table != nil || info.Table.String() != "lazy (exploration passed the bound)" {
		t.Fatalf("lazy component: table %v", info.Table)
	}
}

// TestWitnessTapesKeepTheirStates pins why a component that keeps
// witnesses over several tapes gets an unmerged table. From x = 0 the
// tape-1 paths a (to 3) and aaa (to 3, via 1 and 2) both reach the row
// (x, y, z) = (0, 3, 3) at level 3, aaa first; the lazy runner reaches
// them in two joint states — tape 1 still open after aaa, finished after
// a — that accept the same (empty) future, so the shortest-witness
// refinement of the row sees both and keeps a. A table that merged the
// two states would reach the row once, with aaa.
func TestWitnessTapesKeepTheirStates(t *testing.T) {
	g := graph.NewDB()
	g.AddNodes(4)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'a', 2)
	g.AddEdge(2, 'a', 3)
	g.AddEdge(0, 'a', 3)
	s := g.Snapshot()
	q := MustParse("Ans(x, y, p1) <- (x,p1,y), (x,p2,z), (a|aaa)(p1), aaa(p2), prefix(p1,p2)", env())
	bind := map[NodeVar]graph.Node{"x": 0}
	want := evalFresh(t, q, s, Options{Bind: bind, NoPrune: true, BFSWorkers: 1})
	short := false
	for _, a := range want.Answers {
		short = short || a.Nodes[1] == 3 && a.Paths[0].Len() == 1
	}
	if !short {
		t.Fatalf("NoPrune answers %v: no length-1 witness to y = 3; the input exercises nothing", want.Answers)
	}
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		res, err := prog.Eval(context.Background(), s, Options{Bind: bind, BFSWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("W=%d", w), res, want)
	}

	c := prog.comps[0]
	merged := relations.BuildClassDFA(c.joint, c.part.NumClasses(), tableCells, true)
	if merged == nil || c.dfa == nil || merged.Minimal >= c.dfa.Minimal {
		t.Fatalf("merging keeps %v of %v states; the input exercises nothing", merged, c.dfa)
	}
	if prog, err = CompileProgram(q, false); err != nil {
		t.Fatal(err)
	}
	prog.comps[0].table()
	prog.comps[0].dfa = merged
	res, err := prog.Eval(context.Background(), s, Options{Bind: bind, BFSWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint() == want.Fingerprint() {
		t.Fatal("a merged table kept NoPrune's witnesses; the rule guards nothing here")
	}
}
