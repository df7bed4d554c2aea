package plan

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/graph"
)

var sigmaAB = []rune{'a', 'b'}

func env() ecrpq.Env { return ecrpq.Env{Sigma: sigmaAB} }

func stringGraph(s string) *graph.DB {
	g := graph.NewDB()
	prev := g.AddNode("")
	for _, r := range s {
		next := g.AddNode("")
		g.AddEdge(prev, r, next)
		prev = next
	}
	return g
}

func TestCompileEvalMatchesDirectEval(t *testing.T) {
	srcs := []string{
		"Ans(x, y) <- (x,p,y), a+b+(p)",
		"Ans(x, y, p1, p2) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)",
		"Ans(x, z) <- (x,p1,y), (y,p2,z), a*(p1), (a|b)*(p2)",
	}
	g := stringGraph("aabb")
	for _, src := range srcs {
		q := ecrpq.MustParse(src, env())
		p, err := Compile(q, env())
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		got, err := p.EvalSnapshot(context.Background(), g.Snapshot(), ecrpq.Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want, err := ecrpq.Eval(q, g, ecrpq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Answers) != len(want.Answers) {
			t.Fatalf("%s: plan eval %d answers, direct %d", src, len(got.Answers), len(want.Answers))
		}
		for i := range got.Answers {
			if got.Answers[i].Key() != want.Answers[i].Key() {
				t.Fatalf("%s: answer %d differs: %s vs %s", src, i, got.Answers[i].Key(), want.Answers[i].Key())
			}
		}
	}
}

// TestSharedPlanConcurrency evaluates and streams one shared Plan from
// many goroutines against multiple graphs — the -race test of the
// compiled-once/execute-concurrently contract.
func TestSharedPlanConcurrency(t *testing.T) {
	q := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	p, err := Compile(q, env())
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.DB{stringGraph("aabb"), stringGraph("aaabbb"), stringGraph("ab")}
	refs := make([]int, len(graphs))
	for i, g := range graphs {
		res, err := ecrpq.Eval(q, g, ecrpq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = len(res.Answers)
	}
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				gi := (w + i) % len(graphs)
				g := graphs[gi]
				res, err := p.EvalSnapshot(context.Background(), g.Snapshot(), ecrpq.Options{})
				if err != nil {
					errs[w] = err
					return
				}
				if len(res.Answers) != refs[gi] {
					errs[w] = fmt.Errorf("worker %d graph %d: eval got %d answers, want %d", w, gi, len(res.Answers), refs[gi])
					return
				}
				n := 0
				for _, err := range p.StreamSnapshot(context.Background(), g.Snapshot(), ecrpq.StreamOptions{}) {
					if err != nil {
						errs[w] = err
						return
					}
					n++
				}
				if n != refs[gi] {
					errs[w] = fmt.Errorf("worker %d graph %d: stream got %d answers, want %d", w, gi, n, refs[gi])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentComponents: a multi-component query (evaluated on the
// worker pool) gives the same answers as the sequential reference.
func TestConcurrentComponents(t *testing.T) {
	// Three independent components sharing node variables only through
	// the join.
	q := ecrpq.MustParse(
		"Ans(x0, x3) <- (x0,p0,x1), (x1,p1,x2), (x2,p2,x3), a*(p0), b*(p1), (a|b)*(p2)", env())
	p, err := Compile(q, env())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumComponents() != 3 {
		t.Fatalf("components = %d, want 3", p.NumComponents())
	}
	g := stringGraph("aabba")
	got, err := p.EvalSnapshot(context.Background(), g.Snapshot(), ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ecrpq.Eval(q, g, ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("plan eval %d answers, direct %d", len(got.Answers), len(want.Answers))
	}
}

func TestExplain(t *testing.T) {
	q := ecrpq.MustParse("Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", env())
	p, err := Compile(q, env())
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	if !strings.Contains(out, "2 component(s)") {
		t.Errorf("Explain missing component count:\n%s", out)
	}
	if !strings.Contains(out, "Yannakakis") {
		t.Errorf("Explain missing join strategy:\n%s", out)
	}
	if !p.Acyclic() {
		t.Error("chain query should have an acyclic join hypergraph")
	}
}

func TestCompileRejectsAlphabetMismatch(t *testing.T) {
	q := ecrpq.MustParse("Ans(x, y) <- (x,p,y), a+(p)", env())
	if _, err := Compile(q, ecrpq.Env{Sigma: []rune{'c'}}); err == nil {
		t.Error("compiling an {a,b} query against alphabet {c} should fail")
	}
	// An empty env skips the check.
	if _, err := Compile(q, ecrpq.Env{}); err != nil {
		t.Errorf("empty env should compile: %v", err)
	}
}

func TestCompileRejectsInvalidQuery(t *testing.T) {
	q := &ecrpq.Query{}
	if _, err := Compile(q, env()); err == nil {
		t.Error("empty query should fail validation")
	}
}
