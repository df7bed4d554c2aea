package ecrpq

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// TestEvalAllocsDoNotGrowPerAnswer: on a warm Program a bound,
// single-component evaluation writes its rows into the stores of a
// pooled workspace that earlier evaluations grew, so returning sixteen
// times the answers costs not one allocation more: what an evaluation
// allocates is what escapes — the Result, its fingerprint memo, the
// Answers and the one node slab they are carved from — whatever their
// size. (The tail used to allocate every answer's Nodes and copy the
// relation three times; until the workspace, the relation and the dedup
// sets still grew by doubling from empty on every evaluation.)
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
			res, err := prog.Eval(context.Background(), s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Answers) != answers {
				t.Fatalf("%d answers, want %d", len(res.Answers), answers)
			}
		}
		eval() // grow the pooled workspace to this size
		return testing.AllocsPerRun(20, eval)
	}
	small, large := allocs(64), allocs(1024)
	t.Logf("allocations per evaluation: %.0f at 64 answers, %.0f at 1024", small, large)
	if large > small {
		t.Errorf("allocations grew from %.0f (64 answers) to %.0f (1024 answers): scratch is growing again", small, large)
	}
}

// TestDecidedEvalAllocs: a warm Boolean three-tape evaluation (the
// fig1a_m3 shape) is decided by its first row, and everything it uses
// besides its answer — the budget, the relation and its row, the join's
// projection onto the empty head — is the pooled workspace's. What it
// allocates is exactly what escapes:
//
//   - the Result (Program.assemble);
//   - its fingerprint memo (Program.assemble);
//   - Answers, the one empty-tuple answer (Program.assemble).
//
// None of it scales with the 27 start assignments or the rows they would
// accept.
func TestDecidedEvalAllocs(t *testing.T) {
	q, s := fig1aM3(t)
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	eval := func() {
		res, err := prog.Eval(context.Background(), s, Options{})
		if err != nil || !res.Bool() {
			t.Fatalf("evaluation: %v, %v; want true", res, err)
		}
	}
	eval()
	const maxAllocs = 3
	if got := testing.AllocsPerRun(50, eval); got > maxAllocs {
		t.Errorf("%.0f allocations per decided evaluation, want at most %d", got, maxAllocs)
	}
}

// TestWarmJoinEvalAllocs is the lr_chain shape: two components joined on
// z, x bound. Growing the second component's rows sixteen-fold (and the
// answers with them) leaves a warm evaluation's allocation count where it
// was: component relations, semijoin indexes, the fold and the start-
// domain list all live in the pooled workspace. What is left is what
// escapes — the Result, its fingerprint memo, Answers and the node slab.
// (The components run one after the other on the caller's goroutine: the
// cost model never runs work this small concurrently, and AllocsPerRun
// measures at GOMAXPROCS 1 anyway.)
func TestWarmJoinEvalAllocs(t *testing.T) {
	q := MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", env())
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	const zs = 4
	allocs := func(ys int) float64 {
		// x -a-> z_i for every i, z_i -b-> y_j for every i, j: the second
		// component holds zs·ys rows, the answer ys.
		g := graph.NewDB()
		x := g.AddNode("x")
		var z, y []graph.Node
		for i := 0; i < zs; i++ {
			z = append(z, g.AddNode(fmt.Sprintf("z%d", i)))
			g.AddEdge(x, 'a', z[i])
		}
		for j := 0; j < ys; j++ {
			y = append(y, g.AddNode(fmt.Sprintf("y%d", j)))
		}
		for _, zi := range z {
			for _, yj := range y {
				g.AddEdge(zi, 'b', yj)
			}
		}
		s := g.Snapshot()
		opts := Options{Bind: map[NodeVar]graph.Node{"x": x}, BFSWorkers: 1}
		eval := func() {
			res, err := prog.Eval(context.Background(), s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Answers) != ys {
				t.Fatalf("%d answers, want %d", len(res.Answers), ys)
			}
		}
		eval() // grow the pooled workspace to this size
		return testing.AllocsPerRun(20, eval)
	}
	small, large := allocs(16), allocs(256)
	t.Logf("allocations per evaluation: %.0f at %d second-component rows, %.0f at %d", small, zs*16, large, zs*256)
	if large > small {
		t.Errorf("allocations grew from %.0f to %.0f with the second component's rows: scratch is growing again", small, large)
	}
	const maxAllocs = 4
	if large > maxAllocs {
		t.Errorf("%.0f allocations per warm join evaluation, want at most %d", large, maxAllocs)
	}
}
