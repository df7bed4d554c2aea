package pathquery_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/containment"
	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/ilp"
	"repro/internal/lenabs"
	"repro/internal/linconstr"
	"repro/internal/neg"
	"repro/internal/pattern"
	"repro/internal/relations"
	"repro/internal/workload"
)

// TestFigure1 reproduces the complexity landscape of the paper's Figure 1
// (Theorems 6.3, 6.5, 6.7, 6.8, 8.1, 8.2 and 8.5) and Propositions 3.2 and 5.2,
// with Section 7's containment search (Claim 7.2.1, Theorems 7.1 and 7.2)
// as deterministic work counts, one subtest per cell. A count is the
// least budget a run passes with — product states (Options.
// MaxProductStates under NoPrune and one worker), automaton states
// (neg.Evaluator.MaxStates) or branch-and-bound nodes per ILP solve
// (lenabs.Options and linconstr.Options MaxNodes) — so it is the same on
// every host and every run, and each subtest asserts its cell's shape on
// consecutive rows with a bound stated from the theorem.
//
//	go test -run Figure1 -v .
//
// prints the table.
func TestFigure1(t *testing.T) {
	t.Run("E1_CRPQ_data", figureE1)
	t.Run("E2_ECRPQ_data", figureE2)
	t.Run("E4E6_ECRPQ_combined", figureE4E6)
	t.Run("E5_acyclic_CRPQ_combined", figureE5)
	t.Run("E7_Qlen_combined", figureE7)
	t.Run("E8_repetition_combined", figureE8)
	t.Run("E9_CRPQneg_data", figureE9)
	t.Run("E10_ECRPQneg_combined", figureE10)
	t.Run("E11_linear_constraints_data", figureE11)
	t.Run("E12_separation", figureE12)
	t.Run("E14_answer_automaton", figureE14)
	t.Run("E17_containment_canonical_dbs", figureE17)
}

var sigmaAB = []rune{'a', 'b'}

func envAB() ecrpq.Env { return ecrpq.Env{Sigma: sigmaAB} }

// leastBudget returns the least budget with which run succeeds: it
// doubles from 1 until a run passes, then bisects between the last
// budget that failed and the first that passed. A run that fails with
// anything but tooSmall fails the test.
func leastBudget(t *testing.T, tooSmall error, run func(budget int) error) int {
	t.Helper()
	passes := func(b int) bool {
		err := run(b)
		if err != nil && !errors.Is(err, tooSmall) {
			t.Fatalf("budget %d: %v", b, err)
		}
		return err == nil
	}
	hi := 1
	for !passes(hi) {
		if hi >= 1<<26 {
			t.Fatalf("no budget up to %d suffices", hi)
		}
		hi *= 2
	}
	lo := hi / 2
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; passes(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// productStates is the number of product states an exhaustive
// evaluation of q over g explores: NoPrune switches the stop rules and
// the start-domain pass off, and one worker keeps the charge sequential.
func productStates(t *testing.T, q *ecrpq.Query, g *graph.DB, bind map[ecrpq.NodeVar]graph.Node) int {
	t.Helper()
	return leastBudget(t, ecrpq.ErrBudget, func(b int) error {
		_, err := ecrpq.Eval(q, g, ecrpq.Options{Bind: bind, MaxProductStates: b, NoPrune: true, BFSWorkers: 1})
		return err
	})
}

// atMostTimes asserts that each row's count is at most f times the
// previous row's.
func atMostTimes(t *testing.T, counts []int, f int) {
	t.Helper()
	for i := 1; i < len(counts); i++ {
		if counts[i] > f*counts[i-1] {
			t.Errorf("row %d: %d > %d × %d", i, counts[i], f, counts[i-1])
		}
	}
}

// atLeastTimes asserts that each row's count is at least f times the
// previous row's.
func atLeastTimes(t *testing.T, counts []int, f int) {
	t.Helper()
	for i := 1; i < len(counts); i++ {
		if counts[i] < f*counts[i-1] {
			t.Errorf("row %d: %d < %d × %d", i, counts[i], f, counts[i-1])
		}
	}
}

// ringGraph is the data-complexity input: a ring that steps from every
// node to the next under every letter of {a, b}, an a-loop at node 0 and
// the 2n random chords of workload.Random. The ring makes every node
// reachable from every node under both letters and the loop makes walks
// of every long enough length exist, so an exhaustive run explores its
// whole product and the count measures the product's size; the chords
// keep it from being a plain cycle.
func ringGraph(n int, seed int64) *graph.DB {
	g := workload.Random(rand.New(rand.NewSource(seed)), n, 2.0, sigmaAB)
	for i := 0; i < n; i++ {
		for _, a := range sigmaAB {
			g.AddEdge(graph.Node(i), a, graph.Node((i+1)%n))
		}
	}
	g.AddEdge(0, 'a', 0)
	return g
}

// ends binds x to the first node and y to the last.
func ends(n int) map[ecrpq.NodeVar]graph.Node {
	return map[ecrpq.NodeVar]graph.Node{"x": 0, "y": graph.Node(n - 1)}
}

// Data complexity is NLOGSPACE (Theorem 6.3): for a fixed query the
// product has at most |A|·|V|^d states, d the graph coordinates it ranges
// over — one per tape, plus one per node variable swept. So doubling |G|
// multiplies the count by at most 2^d: here d = 1.
func figureE1(t *testing.T) {
	q := ecrpq.MustParse("Ans(x,y) <- (x,p,y), (a|b)*a(p)", envAB())
	t.Logf("Thm 6.3, CRPQ data complexity: %s over ringGraph(n), x and y bound; count ≤ 2× per doubling (d = 1)", q)
	var counts []int
	for _, n := range []int{128, 256, 512, 1024, 2048} {
		g := ringGraph(n, 1)
		c := productStates(t, q, g, ends(n))
		t.Logf("  n %5d  |E| %5d  product states %7d", n, g.NumEdges(), c)
		counts = append(counts, c)
	}
	atMostTimes(t, counts, 2)
}

// E2 is E1's shape for an ECRPQ: two tapes from a bound x, d = 2.
func figureE2(t *testing.T) {
	q := ecrpq.MustParse("Ans(x,y) <- (x,p1,y), (x,p2,y), a(a|b)*(p1), b(a|b)*(p2), el(p1,p2)", envAB())
	t.Logf("Thm 6.3, ECRPQ data complexity: %s over ringGraph(n), x and y bound; count ≤ 4× per doubling (d = 2)", q)
	var counts []int
	for _, n := range []int{8, 16, 32, 64} {
		g := ringGraph(n, 2)
		c := productStates(t, q, g, ends(n))
		t.Logf("  n %3d  |E| %3d  product states %6d", n, g.NumEdges(), c)
		counts = append(counts, c)
	}
	atMostTimes(t, counts, 4)
}

// modulus is the query family whose product grows with the query: a+
// followed by ((a|b)^p)* for the first m primes p. A word in every
// language has a length divisible by their product.
func modulus(m int) []string {
	exprs := []string{"a+"}
	for _, p := range []int{2, 3, 5, 7}[:m] {
		exprs = append(exprs, "("+strings.Repeat("(a|b)", p)+")*")
	}
	return exprs
}

// Combined complexity is PSPACE-complete (Theorem 6.3), also for acyclic
// ECRPQs, which the REI query is: the product grows exponentially in the
// query, so each added atom at least doubles the count.
func figureE4E6(t *testing.T) {
	g := workload.REIGraph(sigmaAB)
	t.Logf("Thm 6.3, ECRPQ and acyclic ECRPQ combined complexity: REIQuery(modulus(m)) on REIGraph; count ≥ 2× per atom")
	var counts []int
	for m := 1; m <= 3; m++ {
		q, err := workload.REIQuery(modulus(m), sigmaAB)
		if err != nil {
			t.Fatal(err)
		}
		c := productStates(t, q, g, nil)
		t.Logf("  m %d  product states %5d", m, c)
		counts = append(counts, c)
	}
	atLeastTimes(t, counts, 2)
}

// Acyclic CRPQs are in PTIME combined (Theorem 6.5): every atom is its
// own component, evaluated once, and the Yannakakis join stays
// polynomial. Doubling m doubles the atoms, so it at most doubles the
// count, plus one atom's share of slack for a language pool that does
// not divide m.
func figureE5(t *testing.T) {
	g := workload.Random(rand.New(rand.NewSource(5)), 32, 2.0, sigmaAB)
	t.Logf("Thm 6.5, acyclic CRPQ combined complexity: ChainCRPQ(m, a*, b*) on a random graph, n = 32; count ≤ 2× + count/m per doubling of m")
	ms := []int{2, 4, 8, 16}
	var counts []int
	for _, m := range ms {
		q, err := workload.ChainCRPQ(m, []string{"a*", "b*"})
		if err != nil {
			t.Fatal(err)
		}
		c := productStates(t, q, g, nil)
		t.Logf("  m %2d  product states %5d", m, c)
		counts = append(counts, c)
	}
	for i := 1; i < len(counts); i++ {
		if limit := 2*counts[i-1] + counts[i-1]/ms[i-1]; counts[i] > limit {
			t.Errorf("m %d: %d > %d", ms[i], counts[i], limit)
		}
	}
}

// qlenQuery chains modulus(m) by el with every endpoint bound to node 0:
// one product walk against one ILP, so the lcm of the periods is all
// that grows.
func qlenQuery(t *testing.T, m int) (*ecrpq.Query, map[ecrpq.NodeVar]graph.Node) {
	t.Helper()
	b := ecrpq.NewBuilder()
	bind := map[ecrpq.NodeVar]graph.Node{}
	for i, src := range modulus(m) {
		x, p, y := fmt.Sprintf("x%d", i), fmt.Sprintf("p%d", i), fmt.Sprintf("y%d", i)
		b.Path(x, p, y)
		b.Lang(p, src)
		bind[ecrpq.NodeVar(x)], bind[ecrpq.NodeVar(y)] = 0, 0
		if i > 0 {
			b.Rel(relations.EqualLength(sigmaAB), fmt.Sprintf("p%d", i-1), p)
		}
	}
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q, bind
}

// Q_len drops combined complexity from PSPACE to NP (Theorem 6.7): the
// concrete product walks the lcm of the periods, the length abstraction
// solves over arithmetic progressions. So the ratio of concrete product
// states to Q_len ILP nodes grows strictly with m. The last Q_len row is
// one solve at the largest budget that keeps the ratio growing.
func figureE7(t *testing.T) {
	g := workload.REIGraph(sigmaAB)
	t.Logf("Thm 6.7, Q_len vs concrete ECRPQ: el-chained modulus(m) on REIGraph, ends bound; concrete / Q_len grows strictly")
	qlen := func(q *ecrpq.Query, bind map[ecrpq.NodeVar]graph.Node, budget int) error {
		_, err := lenabs.EvalLen(q, g, lenabs.Options{Bind: bind, VarBound: 4096, MaxNodes: budget})
		return err
	}
	var prevConcrete, prevLen int
	for m := 1; m <= 3; m++ {
		q, bind := qlenQuery(t, m)
		concrete := productStates(t, q, g, bind)
		if m < 3 {
			l := leastBudget(t, ilp.ErrBudget, func(b int) error { return qlen(q, bind, b) })
			t.Logf("  m %d  product states %4d  Q_len ILP nodes %2d  ratio %6.1f", m, concrete, l, float64(concrete)/float64(l))
			if m > 1 && concrete*prevLen <= prevConcrete*l {
				t.Errorf("m %d: ratio %d/%d does not exceed %d/%d", m, concrete, l, prevConcrete, prevLen)
			}
			prevConcrete, prevLen = concrete, l
			continue
		}
		// The largest node count l with concrete/l > prevConcrete/prevLen.
		budget := (concrete*prevLen - 1) / prevConcrete
		if err := qlen(q, bind, budget); err != nil {
			t.Errorf("m %d: Q_len needs more than %d ILP nodes, so the ratio does not grow: %v", m, budget, err)
		}
		t.Logf("  m %d  product states %4d  Q_len ILP nodes ≤ %d  ratio > %.1f", m, concrete, budget, float64(prevConcrete)/float64(prevLen))
	}
}

// CRPQs with repeated path variables are PSPACE-complete (Theorem 6.8):
// the shared path must satisfy every modulus at once, so each added
// atom at least doubles the count.
func figureE8(t *testing.T) {
	g := workload.REIGraph(sigmaAB)
	t.Logf("Thm 6.8, CRPQ with repetition combined complexity: REIRepetitionQuery(modulus(m)) on REIGraph; count ≥ 2× per atom")
	var counts []int
	for m := 1; m <= 4; m++ {
		q, err := workload.REIRepetitionQuery(modulus(m), sigmaAB)
		if err != nil {
			t.Fatal(err)
		}
		c := productStates(t, q, g, nil)
		t.Logf("  m %d  product states %4d", m, c)
		counts = append(counts, c)
	}
	atLeastTimes(t, counts, 2)
}

// negStates is the size of the largest automaton the ECRPQ¬ construction
// builds for f over g.
func negStates(t *testing.T, g *graph.DB, f neg.Formula) int {
	t.Helper()
	e := neg.NewEvaluator(g)
	return leastBudget(t, neg.ErrTooLarge, func(b int) error {
		e.MaxStates = b
		_, err := e.Holds(f)
		return err
	})
}

// CRPQ¬ stays polynomial in data (Theorem 8.1), unlike ECRPQ¬. The
// construction unions, for each of the n² values of x and y, an
// automaton over the one-tape product of the graph: d = 3, so doubling
// |G| multiplies the largest automaton by at most 8. The last row is one
// run at that budget.
func figureE9(t *testing.T) {
	f := neg.ExistsNode{X: "x", F: neg.ExistsNode{X: "y", F: neg.And{
		F: neg.Not{F: neg.ExistsPath{P: "p", F: neg.And{F: neg.Edge{X: "x", P: "p", Y: "y"}, G: neg.Lang("a+", "p")}}},
		G: neg.ExistsPath{P: "q", F: neg.And{F: neg.Edge{X: "x", P: "q", Y: "y"}, G: neg.Lang("b+", "q")}},
	}}}
	t.Logf("Thm 8.1, CRPQ¬ data complexity: %s over ringGraph(n); count ≤ 8× per doubling (d = 3)", f)
	var counts []int
	for _, n := range []int{3, 6, 12} {
		g := ringGraph(n, 9)
		c := negStates(t, g, f)
		t.Logf("  n %2d  |E| %2d  automaton states %3d", n, g.NumEdges(), c)
		counts = append(counts, c)
	}
	atMostTimes(t, counts, 8)
	g := ringGraph(24, 9)
	e := neg.NewEvaluator(g)
	e.MaxStates = 8 * counts[len(counts)-1]
	if _, err := e.Holds(f); err != nil {
		t.Errorf("n 24: %v", err)
	}
	t.Logf("  n 24  |E| %2d  automaton states ≤ %d", g.NumEdges(), e.MaxStates)
}

// negDepth nests depth − 1 negated existential path quantifiers, each
// tied to the enclosing path by el, under ∃x ∃y ∃p (x,p,y).
func negDepth(depth int) neg.Formula {
	el := relations.EqualLength(sigmaAB)
	var build func(d int, outer ecrpq.PathVar) neg.Formula
	build = func(d int, outer ecrpq.PathVar) neg.Formula {
		inner := ecrpq.PathVar(fmt.Sprintf("q%d", d))
		u, w := ecrpq.NodeVar(fmt.Sprintf("u%d", d)), ecrpq.NodeVar(fmt.Sprintf("w%d", d))
		base := neg.And{
			F: neg.ExistsNode{X: u, F: neg.ExistsNode{X: w, F: neg.Edge{X: u, P: inner, Y: w}}},
			G: neg.Rel{R: el, Args: []ecrpq.PathVar{outer, inner}},
		}
		if d == 0 {
			return neg.ExistsPath{P: inner, F: base}
		}
		return neg.Not{F: neg.ExistsPath{P: inner, F: neg.And{F: base.F, G: neg.Not{F: build(d-1, inner)}}}}
	}
	return neg.ExistsNode{X: "x", F: neg.ExistsNode{X: "y", F: neg.ExistsPath{P: "p",
		F: neg.And{F: neg.Edge{X: "x", P: "p", Y: "y"}, G: build(depth-1, "p")}}}}
}

// ECRPQ¬ is non-elementary (Theorem 8.2): every negation over a
// relation atom complements a multi-tape automaton, a determinization,
// so each level multiplies the count by at least 10. Depth 2 is one run
// that must exceed that budget.
func figureE10(t *testing.T) {
	g := workload.REIGraph(sigmaAB)
	t.Logf("Thm 8.2, ECRPQ¬ combined complexity: el-tied negations nested to depth d on REIGraph; count ≥ 10× per level")
	c := negStates(t, g, negDepth(1))
	t.Logf("  depth 1  automaton states %d", c)
	e := neg.NewEvaluator(g)
	e.MaxStates = 10*c - 1
	if _, err := e.Holds(negDepth(2)); !errors.Is(err, neg.ErrTooLarge) {
		t.Errorf("depth 2 fits in %d states (err %v)", e.MaxStates, err)
	}
	t.Logf("  depth 2  automaton states ≥ %d", 10*c)
}

// deBruijn is the binary de Bruijn graph on n = 2^k nodes over {s, q}:
// node i flies s to 2i and q to 2i+1 (mod n). Every node reaches every
// node in k legs. Unlike ringGraph's chords, its two flights per city
// keep the Parikh ILP at a handful of branch-and-bound nodes.
func deBruijn(n int) *graph.DB {
	g := graph.NewDB()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddEdge(graph.Node(i), 's', graph.Node(2*i%n))
		g.AddEdge(graph.Node(i), 'q', graph.Node((2*i+1)%n))
	}
	return g
}

// Linear constraints keep data complexity polynomial (Theorem 8.5): the
// counter product is the one-tape product of the graph (d = 1) and the
// ILP over its Parikh image has a fixed number of counters. Both counts
// at most double per doubling of |G|.
func figureE11(t *testing.T) {
	sq := []rune{'s', 'q'}
	q := ecrpq.MustParse("Ans() <- (x,p,y), (s|q)+(p)", ecrpq.Env{Sigma: sq})
	cons := []linconstr.Constraint{{
		Terms: []linconstr.Term{{Path: "p", Label: 's', Coef: 1}, {Path: "p", Label: 'q', Coef: -4}},
		Rel:   ilp.GE, RHS: 0,
	}}
	t.Logf("Thm 8.5, CRPQ + linear constraints data complexity: %s with #s ≥ 4·#q over deBruijn(n), x and y bound; both counts ≤ 2× per doubling", q)
	var states, nodes []int
	for _, n := range []int{4, 8, 16, 32, 64} {
		g := deBruijn(n)
		s := leastBudget(t, ecrpq.ErrBudget, func(b int) error {
			_, _, err := ecrpq.ProductNFA(q, g, ecrpq.Options{Bind: ends(n), MaxProductStates: b})
			return err
		})
		l := leastBudget(t, ilp.ErrBudget, func(b int) error {
			_, err := linconstr.Feasible(q, cons, g, sq, ends(n), linconstr.Options{MaxNodes: b})
			return err
		})
		t.Logf("  n %2d  |E| %3d  product states %2d  ILP nodes %d", n, g.NumEdges(), s, l)
		states, nodes = append(states, s), append(nodes, l)
	}
	atMostTimes(t, states, 2)
	atMostTimes(t, nodes, 2)
}

// Proposition 3.2: on the string graph aⁱbʲ the aⁿbⁿ ECRPQ has exactly
// min(i, j) answers, the a⁺b⁺ CRPQ left when el is dropped i·j.
func figureE12(t *testing.T) {
	qE := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", envAB())
	qC := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", envAB())
	t.Logf("Prop 3.2, ECRPQ vs CRPQ separation on aⁱbʲ: %s has min(i,j) answers, without el i·j", qE)
	for _, ij := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 3}} {
		s := strings.Repeat("a", ij[0]) + strings.Repeat("b", ij[1])
		g, _, _ := workload.StringGraph(s)
		rE, err := ecrpq.Eval(qE, g, ecrpq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rC, err := ecrpq.Eval(qC, g, ecrpq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("  %-6s  ECRPQ %d  CRPQ %d", s, len(rE.Answers), len(rC.Answers))
		if len(rE.Answers) != min(ij[0], ij[1]) || len(rC.Answers) != ij[0]*ij[1] {
			t.Errorf("%s: %d and %d answers, want %d and %d", s, len(rE.Answers), len(rC.Answers), min(ij[0], ij[1]), ij[0]*ij[1])
		}
	}
}

// Proposition 5.2: the answer automaton is polynomial in |E|. On aᵏbᵏ
// with the ends bound the one answer's representation spends one symbol
// per edge walked, so states and transitions stay within 2·|E|.
func figureE14(t *testing.T) {
	q := ecrpq.MustParse("Ans(x, y, p1, p2) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", envAB())
	t.Logf("Prop 5.2, answer automaton size: %s on aᵏbᵏ, ends bound; states and transitions ≤ 2·|E|", q)
	for _, k := range []int{2, 4, 8, 16, 32} {
		g, from, to := workload.StringGraph(strings.Repeat("a", k) + strings.Repeat("b", k))
		pa, err := ecrpq.BuildPathAutomaton(q, g, []graph.Node{from, to}, ecrpq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, states, trans := g.NumEdges(), pa.A.NumStates(), pa.A.NumTransitions()
		t.Logf("  |E| %2d  states %2d  transitions %2d", e, states, trans)
		if states > 2*e || trans > 2*e {
			t.Errorf("|E| %d: %d states, %d transitions", e, states, trans)
		}
	}
}

// Section 7: Q1 ⊈ Q2 iff some canonical database of Q1 fails Q2 (Claim
// 7.2.1). containment.Check enumerates Q1's canonical word tuples up to
// a length bound and evaluates Q2, compiled once, on each database. For
// aⁿbⁿ ⊆ a+b+ (Theorem 7.2's ECRPQ-in-CRPQ setting) the tuples up to
// bound k are exactly n = 1…k; the other rows stop at their first
// counterexample, which NaiveEval must confirm: Q1 yields the canonical
// head tuple and Q2 does not. Theorem 7.1's marked pattern queries
// (pattern.MarkedQuery) give the Σ* ⊈ squares row.
func figureE17(t *testing.T) {
	anbn := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", envAB())
	t.Logf("Claim 7.2.1 / Thm 7.2, canonical-database search: %s against CRPQs; Q2 compiled once per check", anbn)
	check := func(name string, q1, q2 *ecrpq.Query, sigma []rune, bound int) *containment.Result {
		t.Helper()
		res, err := containment.Check(q1, q2, sigma, bound, 1000, ecrpq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		verdict := "contained up to the bound"
		if c := res.Counter; c != nil {
			verdict = fmt.Sprintf("counterexample %q", c.Words)
			maxLen := 0
			for _, w := range c.Words {
				maxLen = max(maxLen, len([]rune(w)))
			}
			for i, q := range []*ecrpq.Query{q1, q2} {
				answers, err := ecrpq.NaiveEval(q, c.G, maxLen+1)
				if err != nil {
					t.Fatal(err)
				}
				found := slices.ContainsFunc(answers, func(a ecrpq.Answer) bool { return slices.Equal(a.Nodes, c.Head) })
				if found != (i == 0) {
					t.Errorf("%s: counterexample %q: NaiveEval says Q%d yields the head tuple: %v", name, c.Words, i+1, found)
				}
			}
		}
		t.Logf("  %-22s bound %d  canonical tuples %2d  Q2 compilations %d  %s", name, bound, res.Tuples, res.Compiled, verdict)
		if res.Compiled != 1 {
			t.Errorf("%s: Q2 compiled %d times", name, res.Compiled)
		}
		return res
	}
	in := ecrpq.MustParse("Ans(x,y) <- (x,r,y), a+b+(r)", envAB())
	for _, bound := range []int{2, 4, 8} {
		if res := check("aⁿbⁿ ⊆ a+b+", anbn, in, sigmaAB, bound); !res.ContainedUpTo || res.Tuples != bound {
			t.Errorf("aⁿbⁿ ⊆ a+b+ at bound %d: contained %v after %d tuples, want true after %d", bound, res.ContainedUpTo, res.Tuples, bound)
		}
	}
	out := ecrpq.MustParse("Ans(x,y) <- (x,r,y), (ab)+(r)", envAB())
	if res := check("aⁿbⁿ ⊆ (ab)+", anbn, out, sigmaAB, 8); res.Counter == nil || res.Tuples != 2 {
		t.Errorf("aⁿbⁿ ⊆ (ab)+: counterexample %v after %d tuples, want a²b² after 2", res.Counter, res.Tuples)
	}
	az := []rune("abcdefghijklmnopqrstuvwxyz")
	cls := ecrpq.MustParse("Ans(x,y) <- (x,p,y), [a-z]+(p)", ecrpq.Env{Sigma: az})
	aplus := ecrpq.MustParse("Ans(x,y) <- (x,r,y), a+(r)", ecrpq.Env{Sigma: az})
	if res := check("[a-z]+ ⊆ a+", cls, aplus, az, 4); res.Counter == nil || res.Tuples != 2 {
		t.Errorf("[a-z]+ ⊆ a+: counterexample %v after %d tuples, want b after 2", res.Counter, res.Tuples)
	}
	full := []rune{'a', 'b', 'p', 'q'}
	qa, err := pattern.Parse("X").MarkedQuery(sigmaAB, 'p', 'q')
	if err != nil {
		t.Fatal(err)
	}
	qb, err := pattern.Parse("XX").MarkedQuery(sigmaAB, 'p', 'q')
	if err != nil {
		t.Fatal(err)
	}
	if res := check("Thm 7.1: X ⊆ XX", qa, qb, full, 3); res.Counter == nil {
		t.Error("Thm 7.1: Σ* ⊆ squares has no counterexample")
	}
}
