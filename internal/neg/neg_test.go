package neg

import (
	"fmt"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/relations"
)

// tiny builds the two-node graph u --a--> v, v --b--> u.
func tiny() *graph.DB {
	g := graph.NewDB()
	u := g.AddNode("u")
	v := g.AddNode("v")
	g.AddEdge(u, 'a', v)
	g.AddEdge(v, 'b', u)
	return g
}

// naiveHolds is a brute-force model checker over paths of length ≤ maxLen,
// used as oracle. Sound and complete on formulas whose quantifiers are
// witnessed by short paths; tests choose instances accordingly (negated
// path quantifiers are checked against the same bounded universe).
func naiveHolds(f Formula, g *graph.DB, sigma map[ecrpq.NodeVar]graph.Node, mu map[ecrpq.PathVar]graph.Path, maxLen int) bool {
	switch f := f.(type) {
	case nodeEq:
		return sigma[f.X] == sigma[f.Y]
	case pathEq:
		return mu[f.P1].LabelString() == mu[f.P2].LabelString()
	case Edge:
		p := mu[f.P]
		return p.From() == sigma[f.X] && p.To() == sigma[f.Y]
	case Rel:
		args := make([][]rune, len(f.Args))
		for i, a := range f.Args {
			args[i] = mu[a].Label()
		}
		return f.R.Contains(args...)
	case Not:
		return !naiveHolds(f.F, g, sigma, mu, maxLen)
	case And:
		return naiveHolds(f.F, g, sigma, mu, maxLen) && naiveHolds(f.G, g, sigma, mu, maxLen)
	case or:
		return naiveHolds(f.F, g, sigma, mu, maxLen) || naiveHolds(f.G, g, sigma, mu, maxLen)
	case ExistsNode:
		for v := 0; v < g.NumNodes(); v++ {
			s2 := map[ecrpq.NodeVar]graph.Node{}
			for k, x := range sigma {
				s2[k] = x
			}
			s2[f.X] = graph.Node(v)
			if naiveHolds(f.F, g, s2, mu, maxLen) {
				return true
			}
		}
		return false
	case ExistsPath:
		for v := 0; v < g.NumNodes(); v++ {
			for _, p := range g.Snapshot().AllPaths(graph.Node(v), maxLen) {
				m2 := map[ecrpq.PathVar]graph.Path{}
				for k, x := range mu {
					m2[k] = x
				}
				m2[f.P] = p
				if naiveHolds(f.F, g, m2copyFix(sigma), m2, maxLen) {
					return true
				}
			}
		}
		return false
	}
	return false
}

func m2copyFix(s map[ecrpq.NodeVar]graph.Node) map[ecrpq.NodeVar]graph.Node { return s }

func TestPositiveFragmentMatchesECRPQ(t *testing.T) {
	// ∃x∃y∃π ((x,π,y) ∧ a+(π)) equals the Boolean CRPQ.
	g := tiny()
	f := ExistsNode{"x", ExistsNode{"y", ExistsPath{"p",
		And{Edge{"x", "p", "y"}, Lang("a+", "p")}}}}
	e := NewEvaluator(g)
	got, err := e.Holds(f)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("a-edge exists")
	}
	f2 := ExistsNode{"x", ExistsNode{"y", ExistsPath{"p",
		And{Edge{"x", "p", "y"}, Lang("aa", "p")}}}}
	got2, err := e.Holds(f2)
	if err != nil {
		t.Fatal(err)
	}
	if got2 {
		t.Error("no aa path in the 2-cycle ab")
	}
}

func TestNegatedReachability(t *testing.T) {
	// The paper's example: ¬∃π((x,π,y) ∧ L(π)) — no b-labeled edge from
	// x to y. On tiny(): b-path of length 1 exists only from v to u.
	g := tiny()
	u, _ := g.NodeByName("u")
	v, _ := g.NodeByName("v")
	e := NewEvaluator(g)
	f := Not{ExistsPath{"p", And{Edge{"x", "p", "y"}, Lang("b", "p")}}}
	rows, err := e.EvalNodes(f)
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]graph.Node]bool{}
	for _, r := range rows {
		got[[2]graph.Node{r[0], r[1]}] = true
	}
	// freeNodeVarsOf sorts x before y.
	if got[[2]graph.Node{v, u}] {
		t.Error("(v,u) has a b-edge; ¬ should exclude it")
	}
	for _, pair := range [][2]graph.Node{{u, u}, {u, v}, {v, v}} {
		if !got[pair] {
			t.Errorf("pair %v has no b-path; ¬ should include it", pair)
		}
	}
}

func TestUniversalViaDoubleNegation(t *testing.T) {
	// ∀π((x,π,y) → el-ish property) style: every path from u to u of the
	// 2-cycle has even length: ¬∃π((x,π,y) ∧ odd(π)).
	g := tiny()
	u, _ := g.NodeByName("u")
	e := NewEvaluator(g)
	odd := "(a|b)((a|b)(a|b))*"
	f := Not{ExistsPath{"p", And{Edge{"x", "p", "y"}, Lang(odd, "p")}}}
	a, _, err := e.PathAutomaton(f, map[ecrpq.NodeVar]graph.Node{"x": u, "y": u})
	if err != nil {
		t.Fatal(err)
	}
	if a.IsEmpty() {
		t.Error("no odd u→u path exists, so the negation should hold (k=0 representation nonempty)")
	}
	v, _ := g.NodeByName("v")
	a2, _, err := e.PathAutomaton(f, map[ecrpq.NodeVar]graph.Node{"x": u, "y": v})
	if err != nil {
		t.Fatal(err)
	}
	if !a2.IsEmpty() {
		t.Error("u→v has an odd path (a), so the negation must fail")
	}
}

func TestFreePathVariableAutomaton(t *testing.T) {
	// ϕ(π) = (u,π,v) ∧ ¬(aa-free): enumerate satisfying paths.
	g := tiny()
	u, _ := g.NodeByName("u")
	v, _ := g.NodeByName("v")
	e := NewEvaluator(g)
	f := And{Edge{"x", "p", "y"}, Lang("a(ba)*", "p")}
	a, vars, err := e.PathAutomaton(f, map[ecrpq.NodeVar]graph.Node{"x": u, "y": v})
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 1 || vars[0] != "p" {
		t.Fatalf("vars = %v", vars)
	}
	words := a.EnumerateAccepted(3, 9)
	if len(words) < 2 {
		t.Fatalf("want ≥ 2 paths (a, aba), got %d", len(words))
	}
}

func TestOracleAgreement(t *testing.T) {
	g := tiny()
	e := NewEvaluator(g)
	formulas := []Formula{
		ExistsNode{"x", ExistsNode{"y", ExistsPath{"p", And{Edge{"x", "p", "y"}, Lang("ab", "p")}}}},
		ExistsNode{"x", Not{ExistsPath{"p", And{Edge{"x", "p", "x"}, Lang("a", "p")}}}},
		ExistsNode{"x", ExistsNode{"y", And{
			ExistsPath{"p", And{Edge{"x", "p", "y"}, Lang("a", "p")}},
			Not{nodeEq{"x", "y"}},
		}}},
		ExistsNode{"x", ExistsPath{"p", ExistsPath{"q",
			And{And{Edge{"x", "p", "x"}, Edge{"x", "q", "x"}}, pathEq{"p", "q"}}}}},
		ExistsNode{"x", ExistsNode{"y", or{nodeEq{"x", "y"},
			ExistsPath{"p", And{Edge{"x", "p", "y"}, Lang("b", "p")}}}}},
	}
	for i, f := range formulas {
		checkOracle(t, e, g, fmt.Sprintf("formula %d", i), f)
	}
}

// checkOracle compares the automaton's verdict on sentence f with the
// bounded oracle's at path length 4.
func checkOracle(t *testing.T, e *Evaluator, g *graph.DB, name string, f Formula) {
	t.Helper()
	got, err := e.Holds(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := naiveHolds(f, g, map[ecrpq.NodeVar]graph.Node{}, map[ecrpq.PathVar]graph.Path{}, 4)
	if got != want {
		t.Errorf("%s (%s): automaton %v, oracle %v", name, f, got, want)
	}
}

// TestOracleAgreementRelationAtoms runs binary relation atoms through
// relAutomaton: positive, under ¬ and inside a negated path quantifier.
// Each negated quantifier's q is bounded by p through its relation, and
// p by a language or a short witness, so the bounded oracle decides every
// formula exactly.
func TestOracleAgreementRelationAtoms(t *testing.T) {
	g := tiny()
	e := NewEvaluator(g)
	sigma := []rune("ab")
	el, lt := relations.EqualLength(sigma), relations.ShorterLen(sigma)
	eq, prefix := relations.Equality(sigma), relations.Prefix(sigma)
	// R(p,q): q = p, q = p·b, or p = w·a·b*·a and q = w·b.
	tup := relations.FromTupleRegex("tup",
		regex.MustParseTuple("(<a,a>|<b,b>)*(<a,b><b,_>*<a,_>|<_,b>)?", 2), 2)
	rel := func(r *relations.Relation, p, q ecrpq.PathVar) Formula {
		return Rel{R: r, Args: []ecrpq.PathVar{p, q}}
	}
	all := func(fs ...Formula) Formula {
		f := fs[0]
		for _, g := range fs[1:] {
			f = And{f, g}
		}
		return f
	}
	exPQ := func(f Formula) Formula { return ExistsPath{"p", ExistsPath{"q", f}} }
	cases := []struct {
		name string
		f    Formula
	}{
		// el(a, b) between the two edges: true.
		{"el", ExistsNode{"x", ExistsNode{"y", exPQ(all(Edge{"x", "p", "y"}, Edge{"y", "q", "x"},
			rel(el, "p", "q"), Lang("a", "p")))}}},
		// a is a prefix of the cycle ab at u: true.
		{"prefix", ExistsNode{"x", ExistsNode{"y", exPQ(all(Edge{"x", "p", "y"}, Edge{"x", "q", "x"},
			rel(prefix, "p", "q"), Lang("a", "p")))}}},
		// Paths from x and y never share a first letter: false.
		{"eq", ExistsNode{"x", ExistsNode{"y", And{Not{nodeEq{"x", "y"}},
			exPQ(all(Edge{"x", "p", "y"}, Edge{"y", "q", "x"}, rel(eq, "p", "q"), Lang("(a|b)+", "p")))}}}},
		// ε is shorter than ab: true.
		{"lt", ExistsNode{"x", exPQ(all(Edge{"x", "p", "x"}, Edge{"x", "q", "x"}, rel(lt, "p", "q")))}},
		// q = abb is not a path: false.
		{"tuple_regex", ExistsNode{"x", exPQ(all(Edge{"x", "p", "x"}, Edge{"x", "q", "x"}, rel(tup, "p", "q"),
			Lang("ab", "p"), Lang("abb", "q")))}},
		// ¬el and ¬tup on cycles: true (ε against ab).
		{"not_el", ExistsNode{"x", exPQ(all(Edge{"x", "p", "x"}, Edge{"x", "q", "x"}, Not{rel(el, "p", "q")}))}},
		{"not_tuple_regex", ExistsNode{"x", exPQ(all(Edge{"x", "p", "x"}, Edge{"x", "q", "x"}, Not{rel(tup, "p", "q")},
			Lang("ab", "p")))}},
		// No nonempty cycle is shorter than ab: true.
		{"lt_under_negated_quantifier", ExistsNode{"x", ExistsPath{"p", all(Edge{"x", "p", "x"}, Lang("ab", "p"),
			Not{ExistsPath{"q", all(Edge{"x", "q", "x"}, rel(lt, "q", "p"), Lang("(a|b)+", "q"))}})}}},
		// The b back from v has the length of a: false.
		{"el_under_negated_quantifier", ExistsNode{"x", ExistsNode{"y", ExistsPath{"p", all(Edge{"x", "p", "y"}, Lang("a", "p"),
			Not{ExistsPath{"q", And{Edge{"y", "q", "x"}, rel(el, "p", "q")}}})}}}},
		// ab has no proper nonempty prefix that is a cycle: true.
		{"prefix_and_not_eq_under_negated_quantifier", ExistsNode{"x", ExistsPath{"p", all(Edge{"x", "p", "x"}, Lang("(a|b)+", "p"),
			Not{ExistsPath{"q", all(Edge{"x", "q", "x"}, rel(prefix, "q", "p"),
				Not{rel(eq, "q", "p")}, Lang("(a|b)+", "q"))}})}}},
		// q = ab itself is in tup(ab, q): false.
		{"tuple_regex_under_negated_quantifier", ExistsNode{"x", ExistsPath{"p", all(Edge{"x", "p", "x"}, Lang("ab", "p"),
			Not{ExistsPath{"q", And{Edge{"x", "q", "x"}, rel(tup, "p", "q")}}})}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkOracle(t, e, g, c.name, c.f) })
	}
}

// TestOracleAgreementClassAtoms runs languages with character classes
// through relAutomaton, which compiles them against a partition of the
// labels: alone, negated, under a negated quantifier and beside el.
func TestOracleAgreementClassAtoms(t *testing.T) {
	g := tiny()
	e := NewEvaluator(g)
	el := relations.EqualLength([]rune("ab"))
	exPQ := func(f Formula) Formula { return ExistsPath{"p", ExistsPath{"q", f}} }
	cases := []struct {
		name string
		f    Formula
	}{
		// u a v b u: true.
		{"range_pair", ExistsNode{"x", ExistsNode{"y", ExistsPath{"p", And{Edge{"x", "p", "y"}, Lang("[a-b][a-b]", "p")}}}}},
		// Every nonempty cycle reads a b: true.
		{"negated_class", ExistsNode{"x", Not{ExistsPath{"p", And{Edge{"x", "p", "x"}, Lang("[^b]+", "p")}}}}},
		// v b u: true.
		{"class_between_nodes", ExistsNode{"x", ExistsNode{"y", And{Not{nodeEq{"x", "y"}},
			ExistsPath{"p", And{Edge{"x", "p", "y"}, Lang("[b-z]", "p")}}}}}},
		// No cycle reads only a: false.
		{"class_cycle", ExistsNode{"x", ExistsPath{"p", And{Edge{"x", "p", "x"}, Lang("[a]+", "p")}}}},
		// a there, b back, equal lengths: true.
		{"class_with_el", ExistsNode{"x", ExistsNode{"y", exPQ(And{And{And{Edge{"x", "p", "y"}, Edge{"y", "q", "x"}},
			Rel{R: el, Args: []ecrpq.PathVar{"p", "q"}}}, Lang("[^b]", "p")})}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkOracle(t, e, g, c.name, c.f) })
	}
}

func TestSentenceValidation(t *testing.T) {
	g := tiny()
	e := NewEvaluator(g)
	if _, err := e.Holds(Edge{"x", "p", "y"}); err == nil {
		t.Error("free variables should be rejected by Holds")
	}
}

func TestFreeVarsComputation(t *testing.T) {
	f := ExistsNode{"x", And{Edge{"x", "p", "y"}, Not{ExistsPath{"q", pathEq{"p", "q"}}}}}
	nv := freeNodeVarsOf(f)
	if len(nv) != 1 || nv[0] != "y" {
		t.Errorf("freeNodeVarsOf = %v", nv)
	}
	pv := freePathVarsOf(f)
	if len(pv) != 1 || pv[0] != "p" {
		t.Errorf("freePathVarsOf = %v", pv)
	}
	if f.String() == "" {
		t.Error("String should render")
	}
}
