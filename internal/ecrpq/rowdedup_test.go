package ecrpq

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// dupRing builds n nodes where node i has an a-edge to i+1 and a b-edge
// to i+2 (mod n). Under (a|b)*a(a|b), whose minimal automaton remembers
// the last two labels, node i is accepted after "aa" (from i−1) and after
// "ab" (from i−2): two accepting joint states at one node, so a run
// accepts the same row twice and its dedup has to drop one.
func dupRing(n int) *graph.DB {
	g := graph.NewDB()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddEdge(graph.Node(i), 'a', graph.Node((i+1)%n))
		g.AddEdge(graph.Node(i), 'b', graph.Node((i+2)%n))
	}
	return g
}

// TestRunRowsMatchRowSet is the differential check of the run-local row
// dedup (runRows) against rowSet, which NoPrune keeps: over 0, 1 and 2
// open columns, with and without head path variables (which keep rowSet
// in default mode too), one and two components, on the bitset and with
// the bitset off (bitsetWords 0: rowSet again), at W ∈ {1, 2, 8} with the
// fan-out forced, every evaluation, stream and Advance after an added
// edge fingerprints as the NoPrune evaluation does.
func TestRunRowsMatchRowSet(t *testing.T) {
	forceParallel(t)
	ctx := context.Background()
	const lang = "(a|b)*a(a|b)"
	x0 := map[NodeVar]graph.Node{"x": 0}
	cases := []struct {
		name, text string
		bind       map[NodeVar]graph.Node
		open       []int // open columns per component
		witness    bool
	}{
		{"open0", "Ans(x,y) <- (x,p,y), " + lang + "(p)", map[NodeVar]graph.Node{"x": 0, "y": 3}, []int{0}, false},
		{"open1-bound", "Ans(x,y) <- (x,p,y), " + lang + "(p)", x0, []int{1}, false},
		{"open1-swept", "Ans(x,y) <- (x,p,y), " + lang + "(p)", nil, []int{1}, false},
		{"open1-two-tapes", "Ans(x,y) <- (x,p1,y), (x,p2,y), (a|b)*(p1), " + lang + "(p2), el(p1,p2)", nil, []int{1}, false},
		{"open2", "Ans(x,y,z) <- (x,p1,y), (x,p2,z), " + lang + "(p1), (a|b)*(p2), el(p1,p2)", x0, []int{2}, false},
		{"open1-chain", "Ans(x,y) <- (x,p1,z), (z,p2,y), (a|b)*a(p1), " + lang + "(p2)", x0, []int{1, 1}, false},
		{"witness", "Ans(x,y,p) <- (x,p,y), " + lang + "(p)", x0, []int{1}, true},
		{"witness-two-tapes", "Ans(x,y,z,p2) <- (x,p1,y), (x,p2,z), " + lang + "(p1), (a|b)*(p2), el(p1,p2)", x0, []int{2}, true},
	}
	words := bitsetWords
	defer func() { bitsetWords = words }()
	for _, c := range cases {
		q := MustParse(c.text, env())
		for _, bw := range []int{words, 0} {
			for _, w := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s bitsetWords=%d W=%d", c.name, bw, w)
				db := dupRing(9)
				s1 := db.Snapshot()
				want := reference(t, q, s1, c.bind)
				bitsetWords = bw
				prog, err := CompileProgram(q, false)
				if err != nil {
					t.Fatal(err)
				}
				for i, comp := range prog.comps {
					open := 0
					for k, v := range comp.allVars {
						if _, bound := c.bind[v]; !comp.isStart[k] && !bound {
							open++
						}
					}
					if open != c.open[i] {
						t.Fatalf("%s: component %d leaves %d columns open, want %d", label, i, open, c.open[i])
					}
				}
				opts := Options{Bind: c.bind, BFSWorkers: w}
				res, err := prog.EvalSnapshotMemo(ctx, s1, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, label, res, want)
				// A witness-free run entered no row in rowSet while the
				// bitset was on.
				ws := prog.takeWorkspace()
				for i, e := range ws.engines {
					if used := e.rows.n > 0; used != (c.witness || bw == 0) {
						t.Errorf("%s: component %d put %d rows in rowSet", label, i, e.rows.n)
					}
				}
				prog.putWorkspace(ws)

				streamed := map[string]bool{}
				for a, err := range prog.Stream(ctx, s1, StreamOptions{Options: opts}) {
					if err != nil {
						t.Fatal(err)
					}
					if streamed[a.Key()] {
						t.Fatalf("%s: the stream yielded %v twice", label, a.Nodes)
					}
					streamed[a.Key()] = true
				}
				if len(streamed) != len(want.Answers) {
					t.Fatalf("%s: streamed %d answers, want %d", label, len(streamed), len(want.Answers))
				}
				for _, a := range want.Answers {
					if !streamed[a.Key()] {
						t.Fatalf("%s: the stream misses %v", label, a.Nodes)
					}
				}

				db.AddEdge(4, 'a', 0)
				s2 := db.Snapshot()
				adv, kind, err := prog.Advance(ctx, res, s2, opts)
				if err != nil {
					t.Fatal(err)
				}
				if kind == AdvanceNone {
					if !c.witness {
						t.Fatalf("%s: Advance found no shortcut", label)
					}
					continue
				}
				sameResult(t, label+" after AddEdge", adv, reference(t, q, s2, c.bind))
			}
		}
	}
}
