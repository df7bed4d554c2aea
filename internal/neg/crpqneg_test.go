package neg

import (
	"math/rand"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/graph"
)

func randomCyclicGraph(r *rand.Rand, n, edges int) *graph.DB {
	g := graph.NewDB()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	sigma := []rune{'a', 'b'}
	for e := 0; e < edges; e++ {
		g.AddEdge(graph.Node(r.Intn(n)), sigma[r.Intn(2)], graph.Node(r.Intn(n)))
	}
	return g
}

// crpqNegFormulas builds a corpus of CRPQ¬ sentences (unary relations
// only) reusing shared Rel atoms so profile bits are exercised.
func crpqNegFormulas() []Formula {
	aPlus := Lang("a+", "p").(Rel)
	bPlus := Lang("b+", "p").(Rel)
	pv := func(n string) []ecrpq.PathVar { return []ecrpq.PathVar{ecrpq.PathVar(n)} }
	return []Formula{
		// ∃x∃y∃p ((x,p,y) ∧ a+(p))
		ExistsNode{"x", ExistsNode{"y", ExistsPath{"p",
			And{Edge{"x", "p", "y"}, Rel{R: aPlus.R, Args: pv("p")}}}}},
		// ∃x ¬∃p ((x,p,x) ∧ a+(p)) — some node with no a-cycle
		ExistsNode{"x", Not{ExistsPath{"p",
			And{Edge{"x", "p", "x"}, Rel{R: aPlus.R, Args: pv("p")}}}}},
		// ∃x∃y (¬∃p((x,p,y) ∧ a+(p)) ∧ ∃q((x,q,y) ∧ b+(q)))
		ExistsNode{"x", ExistsNode{"y", And{
			Not{ExistsPath{"p", And{Edge{"x", "p", "y"}, Rel{R: aPlus.R, Args: pv("p")}}}},
			ExistsPath{"q", And{Edge{"x", "q", "y"}, Rel{R: bPlus.R, Args: pv("q")}}},
		}}},
		// ∃x∃y∃p ((x,p,y) ∧ a+(p) ∧ ¬b+(p)) — trivially: a+ ∩ ¬b+ = a+
		ExistsNode{"x", ExistsNode{"y", ExistsPath{"p", And{
			And{Edge{"x", "p", "y"}, Rel{R: aPlus.R, Args: pv("p")}},
			Not{Rel{R: bPlus.R, Args: pv("p")}},
		}}}},
		// ∃x ∀-style: ¬∃y∃p ((x,p,y) ∧ b+(p)) — a node with no outgoing b+ path
		ExistsNode{"x", Not{ExistsNode{"y", ExistsPath{"p",
			And{Edge{"x", "p", "y"}, Rel{R: bPlus.R, Args: pv("p")}}}}}},
	}
}

func TestCRPQNegAgainstGenericEvaluator(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	formulas := crpqNegFormulas()
	for trial := 0; trial < 12; trial++ {
		g := randomCyclicGraph(r, 3, 4)
		fast := NewCRPQNegEvaluator(g)
		slow := NewEvaluator(g)
		for i, f := range formulas {
			got, err := fast.HoldsCRPQ(f)
			if err != nil {
				t.Fatalf("trial %d formula %d: %v", trial, i, err)
			}
			want, err := slow.Holds(f)
			if err != nil {
				t.Fatalf("trial %d formula %d (generic): %v", trial, i, err)
			}
			if got != want {
				t.Errorf("trial %d formula %d (%s): fast=%v generic=%v", trial, i, f, got, want)
			}
		}
	}
}

// TestCRPQNegClassLanguages: languages with character classes compile
// through CompileClassAtoms as the generic Evaluator's do, so CRPQ¬
// sentences over them hold exactly when the generic evaluation says so.
func TestCRPQNegClassLanguages(t *testing.T) {
	f := ExistsNode{"x", ExistsNode{"y", ExistsPath{"p", And{Edge{"x", "p", "y"}, Lang("[a-b]+", "p")}}}}
	if got, err := NewCRPQNegEvaluator(tiny()).HoldsCRPQ(f); err != nil || !got {
		t.Fatalf("∃x∃y∃p (x,p,y) ∧ [a-b]+(p) on tiny = %v, %v; want true", got, err)
	}
	ab := Lang("[a-b]+", "p").(Rel)
	notB := Lang("[^b]+", "p").(Rel)
	aThenB := Lang("[a]b*", "p").(Rel)
	pv := []ecrpq.PathVar{"p"}
	formulas := []Formula{
		f,
		// ∃x ¬∃p ((x,p,x) ∧ [^b]+(p)) — some node with no b-free cycle
		ExistsNode{"x", Not{ExistsPath{"p", And{Edge{"x", "p", "x"}, Rel{R: notB.R, Args: pv}}}}},
		// ∃x∃y∃p ((x,p,y) ∧ [a-b]+(p) ∧ ¬[^b]+(p) ∧ ¬[a]b*(p))
		ExistsNode{"x", ExistsNode{"y", ExistsPath{"p", And{
			And{Edge{"x", "p", "y"}, Rel{R: ab.R, Args: pv}},
			And{Not{Rel{R: notB.R, Args: pv}}, Not{Rel{R: aThenB.R, Args: pv}}},
		}}}},
		// ∃x∃y (∃p((x,p,y) ∧ [a]b*(p)) ∧ ¬∃q((y,q,x) ∧ [^b]+(q)))
		ExistsNode{"x", ExistsNode{"y", And{
			ExistsPath{"p", And{Edge{"x", "p", "y"}, Rel{R: aThenB.R, Args: pv}}},
			Not{ExistsPath{"q", And{Edge{"y", "q", "x"}, Rel{R: notB.R, Args: []ecrpq.PathVar{"q"}}}}},
		}}},
	}
	r := rand.New(rand.NewSource(62))
	for trial := 0; trial < 12; trial++ {
		g := randomCyclicGraph(r, 3, 4)
		fast, slow := NewCRPQNegEvaluator(g), NewEvaluator(g)
		for i, f := range formulas {
			got, err := fast.HoldsCRPQ(f)
			if err != nil {
				t.Fatalf("trial %d formula %d: %v", trial, i, err)
			}
			want, err := slow.Holds(f)
			if err != nil {
				t.Fatalf("trial %d formula %d (generic): %v", trial, i, err)
			}
			if got != want {
				t.Errorf("trial %d formula %d (%s): fast=%v generic=%v", trial, i, f, got, want)
			}
		}
	}
}

func TestCRPQNegRejectsBinaryRelations(t *testing.T) {
	g := tiny()
	e := NewCRPQNegEvaluator(g)
	f := ExistsPath{"p", ExistsPath{"q", pathEq{"p", "q"}}}
	if _, err := e.HoldsCRPQ(f); err == nil {
		t.Error("path equality must be rejected by the CRPQ¬ evaluator")
	}
}

func TestCRPQNegInfiniteClasses(t *testing.T) {
	// A self-loop provides infinitely many a-paths; the class count must
	// cap, not loop.
	g := graph.NewDB()
	u := g.AddNode("u")
	g.AddEdge(u, 'a', u)
	e := NewCRPQNegEvaluator(g)
	f := ExistsNode{"x", ExistsPath{"p", And{Edge{"x", "p", "x"}, Lang("a+", "p")}}}
	ok, err := e.HoldsCRPQ(f)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a-loop should satisfy the formula")
	}
	// And the negation must fail.
	fneg := Not{f}
	ok, err = e.HoldsCRPQ(fneg)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("negation of a satisfied sentence must fail")
	}
}

func TestCRPQNegEmptyGraph(t *testing.T) {
	g := graph.NewDB()
	g.AddNode("solo")
	e := NewCRPQNegEvaluator(g)
	// The only path from solo is the empty one; a+(p) fails but Σ*(p)
	// succeeds via ε.
	f1 := ExistsNode{"x", ExistsPath{"p", And{Edge{"x", "p", "x"}, Lang("a+", "p")}}}
	f2 := ExistsNode{"x", ExistsPath{"p", And{Edge{"x", "p", "x"}, Lang("a*", "p")}}}
	ok1, err := e.HoldsCRPQ(f1)
	if err != nil {
		t.Fatal(err)
	}
	ok2, err := e.HoldsCRPQ(f2)
	if err != nil {
		t.Fatal(err)
	}
	if ok1 || !ok2 {
		t.Errorf("isolated node: a+ %v (want false), a* %v (want true)", ok1, ok2)
	}
}
