// Package experiments regenerates the paper's evaluation — the
// complexity landscape of Figure 1 (Section 10) — as empirical scaling
// measurements, one experiment per cell, plus the constructions of
// Propositions 3.2 and 5.2 and the Section 4/8.2 applications. Each
// experiment prints a small table (sweep parameter, measured time, and a
// growth indicator). The theorem → package → test map in
// docs/ARCHITECTURE.md says which result each experiment measures and
// which tests pin the construction behind it.
//
// Absolute numbers are machine-dependent; what must match the paper is
// the shape: polynomial data complexity everywhere (NLOGSPACE cells),
// polynomial combined complexity for acyclic CRPQs (Theorem 6.5),
// exponential combined-complexity growth for ECRPQs and for CRPQs with
// repetition (Theorems 6.3, 6.8), the drop back to NP-like behaviour
// under the length abstraction (Theorem 6.7) and with linear constraints
// (Theorem 8.5), and the tower-like growth of ECRPQ¬ (Theorem 8.2).
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/ilp"
	"repro/internal/lenabs"
	"repro/internal/linconstr"
	"repro/internal/neg"
	"repro/internal/relations"
	"repro/internal/workload"
)

var sigmaAB = []rune{'a', 'b'}

func env() ecrpq.Env { return ecrpq.Env{Sigma: sigmaAB} }

// timeIt runs f repeatedly until ~minDur elapses and returns the mean
// duration per call.
func timeIt(f func()) time.Duration {
	const minDur = 20 * time.Millisecond
	start := time.Now()
	n := 0
	for {
		f()
		n++
		if d := time.Since(start); d >= minDur || n >= 1000 {
			return d / time.Duration(n)
		}
	}
}

// growth annotates consecutive measurements with the ratio t(i)/t(i-1)
// and a doubling exponent when the sweep doubles.
func growthExponent(prev, cur time.Duration) float64 {
	if prev <= 0 {
		return math.NaN()
	}
	return math.Log2(float64(cur) / float64(prev))
}

// E1: Figure 1(a), CRPQ data complexity (NLOGSPACE ⇒ polynomial in |G|).
func E1CRPQData(w io.Writer) {
	fmt.Fprintln(w, "E1  Fig1(a) CRPQ data complexity — fixed query, growing graph (expect polynomial)")
	fmt.Fprintln(w, "    n      |E|     time        log2-ratio")
	q := ecrpq.MustParse("Ans(x,y) <- (x,p,y), (a|b)*a(p)", env())
	var prev time.Duration
	for _, n := range []int{128, 256, 512, 1024, 2048} {
		g := workload.Random(rand.New(rand.NewSource(1)), n, 2.0, sigmaAB)
		bind := map[ecrpq.NodeVar]graph.Node{"x": 0, "y": graph.Node(n - 1)}
		d := timeIt(func() {
			if _, err := ecrpq.Eval(q, g, ecrpq.Options{Bind: bind}); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(w, "    %-6d %-7d %-11v %.2f\n", n, g.NumEdges(), d, growthExponent(prev, d))
		prev = d
	}
}

// E2: Figure 1(a), ECRPQ data complexity (NLOGSPACE ⇒ polynomial in |G|).
func E2ECRPQData(w io.Writer) {
	fmt.Fprintln(w, "E2  Fig1(a) ECRPQ data complexity — aⁿbⁿ query, growing graph (expect polynomial)")
	fmt.Fprintln(w, "    n      time        log2-ratio")
	q := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	var prev time.Duration
	for _, n := range []int{8, 16, 32, 64} {
		g := workload.Random(rand.New(rand.NewSource(2)), n, 1.5, sigmaAB)
		bind := map[ecrpq.NodeVar]graph.Node{"x": 0, "y": graph.Node(n - 1)}
		d := timeIt(func() {
			if _, err := ecrpq.Eval(q, g, ecrpq.Options{Bind: bind, MaxProductStates: 50_000_000}); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(w, "    %-6d %-11v %.2f\n", n, d, growthExponent(prev, d))
		prev = d
	}
}

// E3: Figure 1(a), CRPQ combined complexity (NP-complete; cyclic queries
// grow with atom count via backtracking join).
func E3CRPQCombined(w io.Writer) {
	fmt.Fprintln(w, "E3  Fig1(a) CRPQ combined complexity — cyclic query, growing atom count")
	fmt.Fprintln(w, "    m      time        log2-ratio")
	g := workload.Random(rand.New(rand.NewSource(3)), 24, 2.0, sigmaAB)
	var prev time.Duration
	for _, m := range []int{2, 3, 4, 5, 6} {
		q, err := workload.CycleCRPQ(m, []string{"a*", "b*", "(a|b)a*"})
		if err != nil {
			panic(err)
		}
		d := timeIt(func() {
			if _, err := ecrpq.Eval(q, g, ecrpq.Options{Join: ecrpq.JoinBacktrack}); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(w, "    %-6d %-11v %.2f\n", m, d, growthExponent(prev, d))
		prev = d
	}
}

// E4E6: Figure 1(a), ECRPQ combined complexity (PSPACE-complete), on the
// Theorem 6.3 REI family — the query is acyclic, so this measurement is
// also the acyclic-ECRPQ cell (Theorem 6.5 second part).
func E4E6ECRPQCombined(w io.Writer) {
	fmt.Fprintln(w, "E4/E6  Fig1(a) ECRPQ combined complexity (also acyclic ECRPQ) — REI family, growing m (expect exponential)")
	fmt.Fprintln(w, "    m      time        log2-ratio")
	g := workload.REIGraph(sigmaAB)
	var prev time.Duration
	for _, m := range []int{1, 2, 3} {
		exprs := make([]string, m)
		for i := range exprs {
			exprs[i] = []string{"(a|b)*a", "a+|b+", "(ab|ba)*(a|b)?"}[i%3]
		}
		q, err := workload.REIQuery(exprs, sigmaAB)
		if err != nil {
			panic(err)
		}
		d := timeIt(func() {
			if _, err := ecrpq.Eval(q, g, ecrpq.Options{MaxProductStates: 50_000_000}); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(w, "    %-6d %-11v %.2f\n", m, d, growthExponent(prev, d))
		prev = d
	}
}

// E5: Figure 1(a), acyclic CRPQ combined complexity (PTIME, Theorem 6.5).
func E5AcyclicCRPQ(w io.Writer) {
	fmt.Fprintln(w, "E5  Fig1(a) acyclic CRPQ combined complexity — chain query, growing m (expect polynomial)")
	fmt.Fprintln(w, "    m      time        log2-ratio")
	g := workload.Random(rand.New(rand.NewSource(5)), 32, 2.0, sigmaAB)
	var prev time.Duration
	for _, m := range []int{2, 4, 8, 16} {
		q, err := workload.ChainCRPQ(m, []string{"a*", "b*"})
		if err != nil {
			panic(err)
		}
		d := timeIt(func() {
			if _, err := ecrpq.Eval(q, g, ecrpq.Options{Join: ecrpq.JoinYannakakis}); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(w, "    %-6d %-11v %.2f\n", m, d, growthExponent(prev, d))
		prev = d
	}
}

// E7: Figure 1(a), Q_len combined complexity (NP, Theorem 6.7): on the
// modulus family, the concrete engine must walk the lcm of the periods
// through the product automaton, while the length abstraction reasons
// over arithmetic progressions and never materializes the walk — the
// PSPACE→NP drop the theorem states, visible as flat Q_len times against
// exponentially growing concrete times.
func E7Qlen(w io.Writer) {
	fmt.Fprintln(w, "E7  Fig1(a) Q_len vs concrete ECRPQ — modulus family (Q_len expected flat, concrete exponential)")
	fmt.Fprintln(w, "    m   lcm    concrete     qlen")
	g := workload.REIGraph(sigmaAB)
	primes := []int{2, 3, 5, 7}
	lcm := 1
	for m := 1; m <= len(primes); m++ {
		lcm *= primes[m-1]
		exprs := []string{"a+"}
		for i := 0; i < m; i++ {
			pow := ""
			for j := 0; j < primes[i]; j++ {
				pow += "(a|b)"
			}
			exprs = append(exprs, "("+pow+")*")
		}
		// One path variable per expression, chained by el: all walks must
		// have one common length satisfying every modulus.
		b := ecrpq.NewBuilder()
		bind := map[ecrpq.NodeVar]graph.Node{}
		for i, src := range exprs {
			b.Path(fmt.Sprintf("x%d", i), fmt.Sprintf("p%d", i), fmt.Sprintf("y%d", i))
			b.Lang(fmt.Sprintf("p%d", i), src)
			// Bind both endpoints: one product walk vs one ILP solve, so the
			// lcm effect is isolated from node-assignment enumeration.
			bind[ecrpq.NodeVar(fmt.Sprintf("x%d", i))] = 0
			bind[ecrpq.NodeVar(fmt.Sprintf("y%d", i))] = 0
			if i > 0 {
				b.Rel(relations.EqualLength(sigmaAB), fmt.Sprintf("p%d", i-1), fmt.Sprintf("p%d", i))
			}
		}
		q, err := b.Build()
		if err != nil {
			panic(err)
		}
		dConcrete := timeIt(func() {
			if _, err := ecrpq.Eval(q, g, ecrpq.Options{Bind: bind, MaxProductStates: 50_000_000}); err != nil {
				panic(err)
			}
		})
		dLen := timeIt(func() {
			if _, err := lenabs.EvalLen(q, g, lenabs.Options{Bind: bind, VarBound: 4096, MaxNodes: 20000}); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(w, "    %-3d %-6d %-12v %v\n", m, lcm, dConcrete, dLen)
	}
}

// E8: Figure 1(b), CRPQ with repetition (PSPACE-complete, Prop 6.8): the
// modulus family makes the shortest witness — and the product — grow as
// the lcm of the periods.
func E8Repetition(w io.Writer) {
	fmt.Fprintln(w, "E8  Fig1(b) CRPQ with repeated path variables — modulus family (expect exponential in query size)")
	fmt.Fprintln(w, "    m   lcm    time        log2-ratio")
	g := workload.REIGraph(sigmaAB)
	primes := []int{2, 3, 5, 7}
	var prev time.Duration
	lcm := 1
	for m := 1; m <= len(primes); m++ {
		lcm *= primes[m-1]
		exprs := make([]string, m+1)
		exprs[0] = "a+"
		for i := 1; i <= m; i++ {
			p := primes[i-1]
			block := "(a|b)"
			pow := ""
			for j := 0; j < p; j++ {
				pow += block
			}
			exprs[i] = "(" + pow + ")*"
		}
		q, err := workload.REIRepetitionQuery(exprs, sigmaAB)
		if err != nil {
			panic(err)
		}
		d := timeIt(func() {
			if _, err := ecrpq.Eval(q, g, ecrpq.Options{MaxProductStates: 50_000_000}); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(w, "    %-3d %-6d %-11v %.2f\n", m, lcm, d, growthExponent(prev, d))
		prev = d
	}
}

// E9: Figure 1(b), CRPQ¬ data complexity (NLOGSPACE ⇒ polynomial).
func E9CRPQNegData(w io.Writer) {
	fmt.Fprintln(w, "E9  Fig1(b) CRPQ¬ data complexity — negated reachability, growing graph (expect polynomial)")
	fmt.Fprintln(w, "    n      time        log2-ratio")
	f := neg.ExistsNode{X: "x", F: neg.ExistsNode{X: "y", F: neg.And{
		F: neg.Not{F: neg.ExistsPath{P: "p", F: neg.And{F: neg.Edge{X: "x", P: "p", Y: "y"}, G: neg.Lang("a+", "p")}}},
		G: neg.ExistsPath{P: "q", F: neg.And{F: neg.Edge{X: "x", P: "q", Y: "y"}, G: neg.Lang("b+", "q")}},
	}}}
	var prev time.Duration
	for _, n := range []int{3, 6, 12, 24} {
		g := workload.Random(rand.New(rand.NewSource(9)), n, 1.5, sigmaAB)
		e := neg.NewEvaluator(g)
		d := timeIt(func() {
			if _, err := e.Holds(f); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(w, "    %-6d %-11v %.2f\n", n, d, growthExponent(prev, d))
		prev = d
	}
}

// E10: Figure 1(b), ECRPQ¬ (non-elementary, Theorem 8.2): growing ¬∃
// nesting over a binary relation forces repeated determinization.
func E10ECRPQNeg(w io.Writer) {
	fmt.Fprintln(w, "E10 Fig1(b) ECRPQ¬ — growing negation depth over a relation atom (expect tower-like growth)")
	fmt.Fprintln(w, "    depth  time        log2-ratio")
	g := workload.REIGraph(sigmaAB)
	e := neg.NewEvaluator(g)
	el := relations.EqualLength(sigmaAB)
	var prev time.Duration
	for depth := 1; depth <= 3; depth++ {
		// ϕ_d = ∃p ¬∃q ¬∃r … (chained el constraints with alternating ¬).
		var build func(d int, outer ecrpq.PathVar) neg.Formula
		build = func(d int, outer ecrpq.PathVar) neg.Formula {
			inner := ecrpq.PathVar(fmt.Sprintf("q%d", d))
			base := neg.And{
				F: neg.ExistsNode{X: ecrpq.NodeVar(fmt.Sprintf("u%d", d)), F: neg.ExistsNode{X: ecrpq.NodeVar(fmt.Sprintf("w%d", d)), F: neg.Edge{X: ecrpq.NodeVar(fmt.Sprintf("u%d", d)), P: inner, Y: ecrpq.NodeVar(fmt.Sprintf("w%d", d))}}},
				G: neg.Rel{R: el, Args: []ecrpq.PathVar{outer, inner}},
			}
			if d == 0 {
				return neg.ExistsPath{P: inner, F: base}
			}
			return neg.Not{F: neg.ExistsPath{P: inner, F: neg.And{F: base.F, G: neg.Not{F: build(d-1, inner)}}}}
		}
		f := neg.ExistsNode{X: "x", F: neg.ExistsNode{X: "y", F: neg.ExistsPath{P: "p",
			F: neg.And{F: neg.Edge{X: "x", P: "p", Y: "y"}, G: build(depth-1, "p")}}}}
		var evalErr error
		d := timeIt(func() {
			_, evalErr = e.Holds(f)
		})
		if evalErr != nil {
			fmt.Fprintf(w, "    %-6d state budget exceeded (%v) — the non-elementary wall\n", depth, evalErr)
			break
		}
		fmt.Fprintf(w, "    %-6d %-11v %.2f\n", depth, d, growthExponent(prev, d))
		prev = d
	}
}

// E11: Figure 1(b), CRPQ with linear constraints (data PTIME / combined
// NP, Theorem 8.5): the flight workload of Section 8.2.
func E11LinConstraints(w io.Writer) {
	fmt.Fprintln(w, "E11 Fig1(b) CRPQ + linear constraints — flight itineraries, growing network (expect polynomial data complexity)")
	fmt.Fprintln(w, "    n      time        log2-ratio")
	q := ecrpq.MustParse("Ans() <- (x,p,y), (s|q)+(p)", ecrpq.Env{Sigma: []rune{'s', 'q'}})
	cons := []linconstr.Constraint{{
		Terms: []linconstr.Term{{Path: "p", Label: 's', Coef: 1}, {Path: "p", Label: 'q', Coef: -4}},
		Rel:   ilp.GE, RHS: 0,
	}}
	var prev time.Duration
	for _, n := range []int{6, 12, 24, 48} {
		g := workload.FlightNetwork(rand.New(rand.NewSource(11)), n, []rune{'s', 'q'})
		bind := map[ecrpq.NodeVar]graph.Node{"x": 0, "y": graph.Node(n - 1)}
		d := timeIt(func() {
			if _, err := linconstr.Feasible(q, cons, g, []rune{'s', 'q'}, bind, linconstr.Options{}); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(w, "    %-6d %-11v %.2f\n", n, d, growthExponent(prev, d))
		prev = d
	}
}

// E12: Proposition 3.2 separation: the aⁿbⁿ ECRPQ answers exactly the
// squares on string graphs while its best CRPQ approximation (dropping
// el) overshoots.
func E12Separation(w io.Writer) {
	fmt.Fprintln(w, "E12 Prop 3.2 — ECRPQ vs CRPQ separation on string graphs aⁿbᵐ")
	fmt.Fprintln(w, "    string    ECRPQ(el) answers   CRPQ(no el) answers")
	qE := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	qC := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", env())
	for _, s := range []string{"ab", "aabb", "aabbb", "aaabbb"} {
		g, _, _ := workload.StringGraph(s)
		rE, err := ecrpq.Eval(qE, g, ecrpq.Options{})
		if err != nil {
			panic(err)
		}
		rC, err := ecrpq.Eval(qC, g, ecrpq.Options{})
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "    %-9s %-19d %d\n", s, len(rE.Answers), len(rC.Answers))
	}
}

// E14: Proposition 5.2 — the answer automaton stays polynomial in |E|.
func E14AnswerAutomaton(w io.Writer) {
	fmt.Fprintln(w, "E14 Prop 5.2 — answer automaton size vs graph size (expect polynomial)")
	fmt.Fprintln(w, "    |E|    states   transitions")
	q := ecrpq.MustParse("Ans(x, y, p1, p2) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	for _, n := range []int{4, 8, 16, 32} {
		s := ""
		for i := 0; i < n/2; i++ {
			s += "a"
		}
		for i := 0; i < n/2; i++ {
			s += "b"
		}
		g, from, to := workload.StringGraph(s)
		pa, err := ecrpq.BuildPathAutomaton(q, g, []graph.Node{from, to}, ecrpq.Options{})
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "    %-6d %-8d %d\n", g.NumEdges(), pa.A.NumStates(), pa.A.NumTransitions())
	}
}

// E16: ablation — Yannakakis vs backtracking join on acyclic chains.
func E16Yannakakis(w io.Writer) {
	fmt.Fprintln(w, "E16 ablation — Yannakakis semijoin vs backtracking join (chain CRPQ)")
	fmt.Fprintln(w, "    m      yannakakis   backtrack")
	g := workload.Random(rand.New(rand.NewSource(16)), 48, 2.0, sigmaAB)
	// Backtracking on chains enumerates exponentially many partial
	// assignments — the very effect the ablation demonstrates — so the
	// sweep stops at m=5 to stay terminating.
	for _, m := range []int{2, 3, 4, 5} {
		q, err := workload.ChainCRPQ(m, []string{"a*", "b*"})
		if err != nil {
			panic(err)
		}
		d1 := timeIt(func() {
			if _, err := ecrpq.Eval(q, g, ecrpq.Options{Join: ecrpq.JoinYannakakis}); err != nil {
				panic(err)
			}
		})
		d2 := timeIt(func() {
			if _, err := ecrpq.Eval(q, g, ecrpq.Options{Join: ecrpq.JoinBacktrack}); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(w, "    %-6d %-12v %v\n", m, d1, d2)
	}
}

// All runs every experiment in order.
func All(w io.Writer) {
	for _, f := range []func(io.Writer){
		E1CRPQData, E2ECRPQData, E3CRPQCombined, E4E6ECRPQCombined,
		E5AcyclicCRPQ, E7Qlen, E8Repetition, E9CRPQNegData,
		E10ECRPQNeg, E11LinConstraints, E12Separation,
		E14AnswerAutomaton, E16Yannakakis,
	} {
		f(w)
		fmt.Fprintln(w)
	}
}
