package ecrpq

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/relations"
)

var sigmaAB = []rune{'a', 'b'}

// stringGraph builds the graph G_s of Proposition 3.2 for s.
func stringGraph(s string) *graph.DB {
	g := graph.NewDB()
	prev := g.AddNode("v0")
	for i, r := range []rune(s) {
		next := g.AddNode("v" + itoa(i+1))
		g.AddEdge(prev, r, next)
		prev = next
	}
	return g
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func env() Env { return Env{Sigma: sigmaAB} }

func answersString(g *graph.DB, res []Answer) string {
	var parts []string
	for _, a := range res {
		var names []string
		for _, v := range a.Nodes {
			names = append(names, g.Name(v))
		}
		parts = append(parts, strings.Join(names, ","))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

func TestSquaredStringsQuery(t *testing.T) {
	// Paper Section 1: Ans(x,y) ← (x,π1,z), (z,π2,y), π1 = π2 finds nodes
	// connected by a squared string w·w.
	q := MustParse("Ans(x, y) <- (x,p1,z), (z,p2,y), eq(p1,p2)", env())
	g := stringGraph("abab")
	res, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Answers: every (vi, vi) via empty paths, plus (v0,v4) via ab·ab,
	// (v0,v2) via a·a? no: path labels must be equal: v0→v1 "a", v1→v2 "b":
	// not equal. (v1,v3): "b"·"a"? no. (v2,v4): "a"·"b"? no. (v0,v4):
	// "ab"·"ab" yes. Empty splits: (vi,vi) with both empty.
	want := map[string]bool{}
	for i := 0; i <= 4; i++ {
		want["v"+itoa(i)+",v"+itoa(i)] = true
	}
	want["v0,v4"] = true
	got := map[string]bool{}
	for _, a := range res.Answers {
		got[g.Name(a.Nodes[0])+","+g.Name(a.Nodes[1])] = true
	}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing answer %s", k)
		}
	}
}

func TestAnBnQuery(t *testing.T) {
	// Proposition 3.2's witness: Ans(x,y) ← (x,π,z),(z,π',y), a+(π),
	// b+(π'), el(π,π') selects nodes connected by a^m b^m.
	q := MustParse("Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	for s, pairs := range map[string][][2]string{
		"aabb":   {{"v0", "v4"}, {"v1", "v3"}},
		"aab":    {{"v1", "v3"}},
		"ab":     {{"v0", "v2"}},
		"ba":     {},
		"aaabbb": {{"v0", "v6"}, {"v1", "v5"}, {"v2", "v4"}},
	} {
		g := stringGraph(s)
		res, err := Eval(q, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, a := range res.Answers {
			got[g.Name(a.Nodes[0])+","+g.Name(a.Nodes[1])] = true
		}
		if len(got) != len(pairs) {
			t.Errorf("on %q: got %v, want %v", s, got, pairs)
			continue
		}
		for _, p := range pairs {
			if !got[p[0]+","+p[1]] {
				t.Errorf("on %q: missing %v", s, p)
			}
		}
	}
}

func TestCRPQPlainReachability(t *testing.T) {
	// Simple RPQ: Ans(x,y) ← (x,p,y), (ab)+(p).
	q := MustParse("Ans(x,y) <- (x,p,y), (ab)+(p)", env())
	g := stringGraph("abab")
	res, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := answersString(g, res.Answers); got != "v0,v2;v0,v4;v2,v4" {
		t.Errorf("answers = %q", got)
	}
}

func TestBooleanQuery(t *testing.T) {
	q := MustParse("Ans() <- (x,p,y), aa(p)", env())
	if res, _ := Eval(q, stringGraph("aab"), Options{}); !res.Bool() {
		t.Error("aa exists in aab")
	}
	if res, _ := Eval(q, stringGraph("abab"), Options{}); res.Bool() {
		t.Error("aa does not exist in abab")
	}
}

func TestBindOption(t *testing.T) {
	q := MustParse("Ans(x,y) <- (x,p,y), a+(p)", env())
	g := stringGraph("aaa")
	v0, _ := g.NodeByName("v0")
	res, err := Eval(q, g, Options{Bind: map[NodeVar]graph.Node{"x": v0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := answersString(g, res.Answers); got != "v0,v1;v0,v2;v0,v3" {
		t.Errorf("bound answers = %q", got)
	}
}

func TestHeadPathsWitness(t *testing.T) {
	q := MustParse("Ans(x, y, p1) <- (x,p1,y), a+(p1)", env())
	g := stringGraph("aa")
	res, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 { // (v0,v1),(v1,v2),(v0,v2)
		t.Fatalf("got %d answers", len(res.Answers))
	}
	for _, a := range res.Answers {
		p := a.Paths[0]
		if err := p.Validate(g); err != nil {
			t.Errorf("witness invalid: %v", err)
		}
		if p.From() != a.Nodes[0] || p.To() != a.Nodes[1] {
			t.Error("witness endpoints disagree with node answer")
		}
		for _, r := range p.Labels {
			if r != 'a' {
				t.Error("witness label should be all a")
			}
		}
	}
}

func TestRepeatedPathVars(t *testing.T) {
	// Prop 6.8 extension: Ans() ← (x1,π,y1),(x2,π,y2),R1(π),R2(π) with the
	// same path variable; equivalent to intersection of constraints.
	q := &Query{
		PathAtoms: []PathAtom{
			{X: "x1", Pi: "p", Y: "y1"},
			{X: "x2", Pi: "p", Y: "y2"},
		},
		RelAtoms: []RelAtom{
			{Rel: mustLang(t, "a+"), Args: []PathVar{"p"}},
			{Rel: mustLang(t, "aa"), Args: []PathVar{"p"}},
		},
		AllowRepeatedPathVars: true,
	}
	g := stringGraph("aaa")
	res, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bool() {
		t.Error("aa path exists; repetition forces x1=x2, y1=y2")
	}
	// Without the flag, validation must fail.
	q.AllowRepeatedPathVars = false
	if err := q.Validate(); err == nil {
		t.Error("repetition should be rejected by Definition 3.1 validation")
	}
}

func mustLang(t *testing.T, src string) *relations.Relation {
	t.Helper()
	q, err := Parse("Ans() <- (x,p,y), "+src+"(p)", env())
	if err != nil {
		t.Fatal(err)
	}
	return q.RelAtoms[0].Rel
}

func TestMultiComponentJoin(t *testing.T) {
	// Two independent relation components sharing node variable z:
	// Ans(x,y) ← (x,p1,z), (z,p2,y), a+(p1), b+(p2).
	q := MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", env())
	g := stringGraph("aabb")
	for _, mode := range []JoinMode{JoinAuto, JoinBacktrack, JoinYannakakis} {
		res, err := Eval(q, g, Options{Join: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		// z must be v2; x ∈ {v0,v1}, y ∈ {v3,v4}.
		if got := answersString(g, res.Answers); got != "v0,v3;v0,v4;v1,v3;v1,v4" {
			t.Errorf("mode %d: answers = %q", mode, got)
		}
	}
}

func TestYannakakisRejectsCyclic(t *testing.T) {
	// Cyclic query: triangle of atoms.
	q := MustParse("Ans() <- (x,p1,y), (y,p2,z), (z,p3,x), a(p1), a(p2), a(p3)", env())
	g := graph.NewDB()
	u := g.AddNode("u")
	v := g.AddNode("v")
	w := g.AddNode("w")
	g.AddEdge(u, 'a', v)
	g.AddEdge(v, 'a', w)
	g.AddEdge(w, 'a', u)
	if _, err := Eval(q, g, Options{Join: JoinYannakakis}); err == nil {
		t.Error("Yannakakis should reject cyclic hypergraph")
	}
	res, err := Eval(q, g, Options{Join: JoinBacktrack})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bool() {
		t.Error("triangle should satisfy the cyclic query")
	}
}

func TestDecomposeVsMonolithic(t *testing.T) {
	// Component-wise evaluation and the paper's single m-tape product
	// must agree: on a query that is one component anyway, and on a chain
	// the decomposition splits in two and joins relationally.
	g := stringGraph("aabbab")
	for _, src := range []string{
		"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)",
		"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)",
	} {
		q := MustParse(src, env())
		r1, err := Eval(q, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mono, err := CompileProgram(q, true)
		if err != nil {
			t.Fatal(err)
		}
		if mono.NumComponents() != 1 {
			t.Fatalf("%s: monolithic program has %d components", src, mono.NumComponents())
		}
		r2, err := mono.Eval(context.Background(), g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if answersString(g, r1.Answers) != answersString(g, r2.Answers) {
			t.Errorf("%s: decomposed %q != monolithic %q", src,
				answersString(g, r1.Answers), answersString(g, r2.Answers))
		}
	}
}

func TestBudgetExceeded(t *testing.T) {
	q := MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), eq(p1,p2)", env())
	g := stringGraph("abababab")
	_, err := Eval(q, g, Options{MaxProductStates: 5})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("want ErrBudget, got %v", err)
	}
}

// randomDAG builds a DAG with n nodes and roughly density*n*(n-1)/2 edges
// labeled from sigma; on DAGs NaiveEval with maxLen = n is complete.
func randomDAG(r *rand.Rand, n int, density float64, sigma []rune) *graph.DB {
	g := graph.NewDB()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < density {
				g.AddEdge(graph.Node(i), sigma[r.Intn(len(sigma))], graph.Node(j))
			}
		}
	}
	return g
}

func answerSet(as []Answer) map[string]bool {
	out := map[string]bool{}
	for _, a := range as {
		out[a.Key()] = true
	}
	return out
}

func TestPropertyEvalMatchesNaiveOnDAGs(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	queries := []*Query{
		MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), eq(p1,p2)", env()),
		MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env()),
		MustParse("Ans(x,y) <- (x,p1,y), (x,p2,y), prefix(p1,p2)", env()),
		MustParse("Ans(x) <- (x,p1,y), (y,p2,z), a*(p1), b*(p2)", env()),
		MustParse("Ans(x,y) <- (x,p,y), (a|b)*a(p)", env()),
		MustParse("Ans() <- (x,p1,y), (x,p2,y), el(p1,p2), a+(p1), b+(p2)", env()),
	}
	for trial := 0; trial < 25; trial++ {
		g := randomDAG(r, 5, 0.5, sigmaAB)
		for qi, q := range queries {
			res, err := Eval(q, g, Options{})
			if err != nil {
				t.Fatalf("trial %d query %d: %v", trial, qi, err)
			}
			naive, err := NaiveEval(q, g, g.NumNodes())
			if err != nil {
				t.Fatal(err)
			}
			gotSet, wantSet := answerSet(res.Answers), answerSet(naive)
			if len(gotSet) != len(wantSet) {
				t.Fatalf("trial %d query %q: eval %d answers, naive %d\n eval=%v\n naive=%v",
					trial, q, len(gotSet), len(wantSet), gotSet, wantSet)
			}
			for k := range wantSet {
				if !gotSet[k] {
					t.Fatalf("trial %d query %q: naive answer %s missing from eval", trial, q, k)
				}
			}
		}
	}
}

func TestPropertyJoinModesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	q := MustParse("Ans(x,w) <- (x,p1,y), (y,p2,z), (z,p3,w), a*(p1), b*(p2), (a|b)*(p3)", env())
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(r, 6, 0.4, sigmaAB)
		r1, err := Eval(q, g, Options{Join: JoinBacktrack})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Eval(q, g, Options{Join: JoinYannakakis})
		if err != nil {
			t.Fatal(err)
		}
		if answersString(g, r1.Answers) != answersString(g, r2.Answers) {
			t.Fatalf("trial %d: join modes disagree", trial)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	q := MustParse("Ans(x,y) <- (x,p,y), a(p)", env())
	g := graph.NewDB()
	res, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bool() {
		t.Error("empty graph should yield no answers")
	}
}

func TestEmptyPathAnswers(t *testing.T) {
	// a* accepts ε: every node pairs with itself via the empty path.
	q := MustParse("Ans(x,y) <- (x,p,y), a*(p)", env())
	g := stringGraph("b")
	res, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := answersString(g, res.Answers); got != "v0,v0;v1,v1" {
		t.Errorf("answers = %q", got)
	}
}

// randomCyclic builds a random graph that may contain cycles.
func randomCyclic(r *rand.Rand, n, edges int) *graph.DB {
	g := graph.NewDB()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	for e := 0; e < edges; e++ {
		g.AddEdge(graph.Node(r.Intn(n)), sigmaAB[r.Intn(2)], graph.Node(r.Intn(n)))
	}
	return g
}

func TestPropertyCyclicSoundness(t *testing.T) {
	// On cyclic graphs the naive evaluator (bounded path length) is a
	// sound under-approximation: every naive answer must appear in Eval's
	// output, and every Eval witness must validate.
	r := rand.New(rand.NewSource(53))
	queries := []*Query{
		MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), eq(p1,p2)", env()),
		MustParse("Ans(x,y) <- (x,p,y), (ab)+(p)", env()),
		MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env()),
	}
	for trial := 0; trial < 15; trial++ {
		g := randomCyclic(r, 4, 6)
		for _, q := range queries {
			res, err := Eval(q, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			naive, err := NaiveEval(q, g, 4)
			if err != nil {
				t.Fatal(err)
			}
			got := answerSet(res.Answers)
			for _, a := range naive {
				if !got[a.Key()] {
					t.Fatalf("trial %d query %q: naive answer %s missing (cyclic soundness)", trial, q, a.Key())
				}
			}
		}
	}
}

func TestWitnessesValidateOnCyclicGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	q := MustParse("Ans(x, y, p1, p2) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	for trial := 0; trial < 10; trial++ {
		g := randomCyclic(r, 4, 7)
		res, err := Eval(q, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Answers {
			p1, p2 := a.Paths[0], a.Paths[1]
			if err := p1.Validate(g); err != nil {
				t.Fatal(err)
			}
			if err := p2.Validate(g); err != nil {
				t.Fatal(err)
			}
			if p1.Len() != p2.Len() || p1.Len() == 0 {
				t.Fatalf("witnesses violate el/a+: %v %v", p1, p2)
			}
			if p1.From() != a.Nodes[0] || p2.To() != a.Nodes[1] || p1.To() != p2.From() {
				t.Fatal("witness endpoints inconsistent")
			}
			for _, c := range p1.Labels {
				if c != 'a' {
					t.Fatal("p1 must be all a")
				}
			}
			for _, c := range p2.Labels {
				if c != 'b' {
					t.Fatal("p2 must be all b")
				}
			}
		}
	}
}
