package ecrpq

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// TestEvalAllocsDoNotGrowPerAnswer: on a warm Program a bound,
// single-component evaluation writes its rows into a handful of flat
// arrays, so returning sixteen times the answers may cost a few more
// slice doublings but not one more allocation per answer (the tail used
// to allocate every answer's Nodes and copy the relation three times).
func TestEvalAllocsDoNotGrowPerAnswer(t *testing.T) {
	q := MustParse("Ans(x,y) <- (x,p,y), a(p)", env())
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(answers int) float64 {
		g := graph.NewDB()
		hub := g.AddNode("hub")
		for i := 0; i < answers; i++ {
			g.AddEdge(hub, 'a', g.AddNode(fmt.Sprintf("v%d", i)))
		}
		s := g.Snapshot()
		opts := Options{Bind: map[NodeVar]graph.Node{"x": hub}, BFSWorkers: 1}
		eval := func() {
			res, err := prog.EvalSnapshot(context.Background(), s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Answers) != answers {
				t.Fatalf("%d answers, want %d", len(res.Answers), answers)
			}
		}
		eval() // grow the pooled engine's scratch to this size
		return testing.AllocsPerRun(20, eval)
	}
	small, large := allocs(64), allocs(1024)
	t.Logf("allocations per evaluation: %.0f at 64 answers, %.0f at 1024", small, large)
	// 16× the rows is four doublings of each array that grows by append.
	if large > small+16 {
		t.Errorf("allocations grew from %.0f (64 answers) to %.0f (1024 answers): more than slice doublings", small, large)
	}
}

// TestDecidedEvalAllocs: a warm Boolean three-tape evaluation (the
// fig1a_m3 shape) is decided by its first row, so what it allocates is the
// fixed cost of one evaluation — the budget, the engine slice, the
// relation, the row, the join's bookkeeping and the Result — and none of
// it scales with the 27 start assignments or the rows they would accept.
func TestDecidedEvalAllocs(t *testing.T) {
	q, s := fig1aM3(t)
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	eval := func() {
		res, err := prog.EvalSnapshot(context.Background(), s, Options{})
		if err != nil || !res.Bool() {
			t.Fatalf("evaluation: %v, %v; want true", res, err)
		}
	}
	eval()
	const maxAllocs = 12
	if got := testing.AllocsPerRun(50, eval); got > maxAllocs {
		t.Errorf("%.0f allocations per decided evaluation, want at most %d", got, maxAllocs)
	}
}
