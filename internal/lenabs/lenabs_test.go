package lenabs

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/relations"
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

func TestRlenOfEquality(t *testing.T) {
	// eq_len = equal length.
	r := rlen(relations.Equality(sigmaAB), sigmaAB)
	if !r.ContainsStrings("ab", "ba") || !r.ContainsStrings("", "") {
		t.Error("eq_len should relate equal-length strings")
	}
	if r.ContainsStrings("a", "aa") {
		t.Error("eq_len should reject different lengths")
	}
}

func TestRlenOfPrefix(t *testing.T) {
	// prefix_len = |s| ≤ |s'|.
	r := rlen(relations.Prefix(sigmaAB), sigmaAB)
	if !r.ContainsStrings("ba", "ab") || !r.ContainsStrings("a", "bb") {
		t.Error("prefix_len should only compare lengths")
	}
	if r.ContainsStrings("aa", "b") {
		t.Error("prefix_len should reject longer first component")
	}
}

func TestRlenOfLanguage(t *testing.T) {
	// (ab)*_len = even lengths.
	q := ecrpq.MustParse("Ans() <- (x,p,y), (ab)*(p)", env())
	r := rlen(q.RelAtoms[0].Rel, sigmaAB)
	if !r.ContainsStrings("") || !r.ContainsStrings("bb") || !r.ContainsStrings("aaaa") {
		t.Error("(ab)*_len should accept even lengths of any letters")
	}
	if r.ContainsStrings("a") || r.ContainsStrings("bab") {
		t.Error("(ab)*_len should reject odd lengths")
	}
}

func TestEvalLenMatchesAbstractQuery(t *testing.T) {
	// Oracle: EvalLen must agree with the generic engine run on Q_len.
	queries := []string{
		"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)",
		"Ans(x,y) <- (x,p,y), (ab)*(p)",
		"Ans(x,y) <- (x,p1,z), (z,p2,y), eq(p1,p2)",
		"Ans(x) <- (x,p1,y), (x,p2,y), prefix(p1,p2)",
	}
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		g := randomDAG(r, 5, 0.5)
		for _, src := range queries {
			q := ecrpq.MustParse(src, env())
			got, err := EvalLen(q, g, Options{})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			want, err := EvalAbstract(context.Background(), q, g, sigmaAB, ecrpq.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gs, ws := keySet(got), keySet(want)
			if len(gs) != len(ws) {
				t.Fatalf("trial %d %s: EvalLen %d answers, generic %d\n%v\n%v", trial, src, len(gs), len(ws), gs, ws)
			}
			for k := range ws {
				if !gs[k] {
					t.Fatalf("trial %d %s: missing %s", trial, src, k)
				}
			}
		}
	}
}

func keySet(as []ecrpq.Answer) map[string]bool {
	out := map[string]bool{}
	for _, a := range as {
		out[a.Key()] = true
	}
	return out
}

func randomDAG(r *rand.Rand, n int, density float64) *graph.DB {
	g := graph.NewDB()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < density {
				g.AddEdge(graph.Node(i), sigmaAB[r.Intn(2)], graph.Node(j))
			}
		}
	}
	return g
}

func TestEvalLenAnBnDropsLabelInfo(t *testing.T) {
	// Under the abstraction, a+(p1) only means |p1| ≥ 1: on the string
	// graph "abab", the a^n b^n query's abstraction is satisfied by any
	// split with equal halves.
	q := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	g := stringGraph("abab")
	got, err := EvalLen(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Splits: any x..z..y on the line with |p1| = |p2| ≥ 1: (0,4) via 2+2,
	// (0,2) via 1+1, (1,3), (2,4).
	want := map[string]bool{"0,4,": true, "0,2,": true, "1,3,": true, "2,4,": true}
	gs := keySet(got)
	if len(gs) != len(want) {
		t.Fatalf("got %v want %v", gs, want)
	}
	for k := range want {
		if !gs[k] {
			t.Errorf("missing %s", k)
		}
	}
	// The concrete query is strictly tighter: only the a¹b¹ splits
	// (0,2) and (2,4) survive when labels matter.
	res, err := ecrpq.Eval(q, g, ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := keySet(res.Answers)
	if len(cs) != 2 || !cs["0,2,"] || !cs["2,4,"] {
		t.Errorf("concrete answers = %v, want exactly (0,2) and (2,4)", cs)
	}
}

func TestEvalLenBind(t *testing.T) {
	q := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), eq(p1,p2)", env())
	g := stringGraph("abab")
	got, err := EvalLen(q, g, Options{Bind: map[ecrpq.NodeVar]graph.Node{"x": 0, "y": 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("want 1 bound answer, got %d", len(got))
	}
}

func TestEvalLenRejectsPathHeads(t *testing.T) {
	q := ecrpq.MustParse("Ans(x,p) <- (x,p,y), a(p)", env())
	if _, err := EvalLen(q, stringGraph("a"), Options{}); err == nil {
		t.Error("path outputs must be rejected")
	}
}

func TestLengthsBetween(t *testing.T) {
	// Cycle of length 3: walk lengths from a node to itself are 0,3,6,...
	g := graph.NewDB()
	for i := 0; i < 3; i++ {
		g.AddNode("")
	}
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'a', 2)
	g.AddEdge(2, 'a', 0)
	ls := LengthsBetween(g, 0, 0)
	for L := 0; L <= 12; L++ {
		want := L%3 == 0
		if got := ls.Contains(L); got != want {
			t.Errorf("length %d: got %v want %v", L, got, want)
		}
	}
}
