package workload

import (
	"math/rand"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/graph"
)

func TestStringGraph(t *testing.T) {
	g, from, to := StringGraph("abc")
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("dims wrong: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if from != 0 || to != 3 {
		t.Errorf("endpoints %d %d", from, to)
	}
}

func TestRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := Random(r, 50, 2.0, []rune{'a', 'b'})
	if g.NumNodes() != 50 || g.NumEdges() == 0 {
		t.Error("Random graph malformed")
	}
}

func TestREIGraphUniversalPaths(t *testing.T) {
	sigma := []rune{'a', 'b', 'c'}
	g := REIGraph(sigma)
	if g.NumNodes() != 4 {
		t.Fatalf("REI graph over 3 letters should have 4 nodes, got %d", g.NumNodes())
	}
	// Property from the proof of Theorem 6.3: from every node, every
	// string labels some path. Check all strings of length ≤ 4 from every
	// node by DFS.
	var walk func(v graph.Node, w []rune) bool
	walk = func(v graph.Node, w []rune) bool {
		if len(w) == 0 {
			return true
		}
		for _, to := range g.Successors(v, w[0]) {
			if walk(to, w[1:]) {
				return true
			}
		}
		return false
	}
	var all func(prefix []rune, depth int)
	ok := true
	all = func(prefix []rune, depth int) {
		if !ok {
			return
		}
		if len(prefix) > 0 {
			for v := 0; v < g.NumNodes(); v++ {
				if !walk(graph.Node(v), prefix) {
					t.Errorf("string %q has no path from node %d", string(prefix), v)
					ok = false
					return
				}
			}
		}
		if depth == 0 {
			return
		}
		for _, a := range sigma {
			all(append(prefix, a), depth-1)
		}
	}
	all(nil, 4)
}

func TestREIQueryDecidesIntersection(t *testing.T) {
	sigma := []rune{'a', 'b'}
	g := REIGraph(sigma)
	// Nonempty intersection: (a|b)*a ∩ a+ ∋ "a".
	q, err := REIQuery([]string{"(a|b)*a", "a+"}, sigma)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ecrpq.Eval(q, g, ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bool() {
		t.Error("nonempty intersection should be detected")
	}
	// Empty intersection: a+ ∩ b+.
	q2, err := REIQuery([]string{"a+", "b+"}, sigma)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ecrpq.Eval(q2, g, ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Bool() {
		t.Error("empty intersection misreported")
	}
}

func TestREIRepetitionQueryAgreesWithREIQuery(t *testing.T) {
	sigma := []rune{'a', 'b'}
	g := REIGraph(sigma)
	for _, exprs := range [][]string{
		{"(a|b)*a", "a+"},
		{"a+", "b+"},
		{"(aa)*", "(aaa)*", "a+"},
	} {
		q1, err := REIQuery(exprs, sigma)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := REIRepetitionQuery(exprs, sigma)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := ecrpq.Eval(q1, g, ecrpq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ecrpq.Eval(q2, g, ecrpq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Bool() != r2.Bool() {
			t.Errorf("%v: eq-chain %v vs repetition %v", exprs, r1.Bool(), r2.Bool())
		}
	}
}

func TestChainCRPQ(t *testing.T) {
	q, err := ChainCRPQ(3, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsAcyclic() || !q.IsCRPQ() {
		t.Error("chain should be an acyclic CRPQ")
	}
	// Chain query a·b·a on the matching string graph.
	g, from, to := StringGraph("aba")
	res, err := ecrpq.Eval(q, g, ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Answers {
		if a.Nodes[0] == from && a.Nodes[1] == to {
			found = true
		}
	}
	if !found {
		t.Error("chain a,b,a should match the aba line end to end")
	}
}

func TestFlightNetwork(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := FlightNetwork(r, 10, []rune{'s', 'q'})
	if g.NumNodes() != 10 || g.NumEdges() < 9 {
		t.Error("flight network malformed")
	}
	// Destination reachable from origin.
	q := ecrpq.MustParse("Ans() <- (x,p,y), (s|q)+(p)", ecrpq.Env{Sigma: []rune{'s', 'q'}})
	res, err := ecrpq.Eval(q, g, ecrpq.Options{
		Bind: map[ecrpq.NodeVar]graph.Node{"x": 0, "y": graph.Node(g.NumNodes() - 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bool() {
		t.Error("destination should be reachable along the ring")
	}
}
