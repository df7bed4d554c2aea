package containment

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ecrpq"
	"repro/internal/regex"
	"repro/internal/relations"
	"repro/internal/workload"
)

// canonicalCases draws random (E)CRPQ bodies over sigma: m path atoms
// in a chain, a unary language on some tapes, and binary relations
// between some pairs. Bounds keep the brute-force reference small.
func canonicalCases(r *rand.Rand, sigma string, n int) []string {
	langs := []string{"a+", "(a|b)*", "b*c", "[a-b]+", "[^a]*", "(ab|c)*", "a|bb"}
	rels := []string{"eq", "el", "prefix", "lt", "le", "edit1"}
	var out []string
	for len(out) < n {
		m := 1 + r.Intn(3)
		var body []string
		for i := 0; i < m; i++ {
			body = append(body, fmt.Sprintf("(x%d,p%d,x%d)", i, i, i+1))
		}
		for i := 0; i < m; i++ {
			if r.Intn(2) == 0 {
				body = append(body, fmt.Sprintf("%s(p%d)", langs[r.Intn(len(langs))], i))
			}
		}
		for i := 0; i+1 < m; i++ {
			if r.Intn(3) != 0 {
				body = append(body, fmt.Sprintf("%s(p%d,p%d)", rels[r.Intn(len(rels))], i, i+1+r.Intn(m-i-1)))
			}
		}
		out = append(out, fmt.Sprintf("Ans(x0,x%d) <- %s", m, strings.Join(body, ", ")))
	}
	return out
}

// allWords lists every word over sigma of length at most n.
func allWords(sigma []rune, n int) [][]rune {
	out := [][]rune{{}}
	for i, level := 0, [][]rune{{}}; i < n; i++ {
		var next [][]rune
		for _, w := range level {
			for _, a := range sigma {
				next = append(next, append(slices.Clone(w), a))
			}
		}
		out = append(out, next...)
		level = next
	}
	return out
}

// bruteTuples is the reference enumeration: every m-tuple of words of
// length at most bound, filtered by the joint's tuple semantics.
func bruteTuples(q *ecrpq.Query, sigma []rune, bound int) []string {
	m := len(q.PathAtoms)
	idx := map[ecrpq.PathVar]int{}
	for i, a := range q.PathAtoms {
		idx[a.Pi] = i
	}
	var atoms []relations.Atom
	for _, ra := range q.RelAtoms {
		pos := make([]int, len(ra.Args))
		for i, v := range ra.Args {
			pos[i] = idx[v]
		}
		atoms = append(atoms, relations.Atom{Rel: ra.Rel, Pos: pos})
	}
	// Built as a literal: NewJoint refuses the class-bearing atoms that
	// AcceptsTuple decides from their ASTs.
	j := &relations.Joint{M: m, Atoms: atoms}
	words := allWords(sigma, bound)
	var out []string
	tuple := make([][]rune, m)
	var rec func(i int)
	rec = func(i int) {
		if i == m {
			if j.AcceptsTuple(tuple) {
				out = append(out, tupleKey(tuple))
			}
			return
		}
		for _, w := range words {
			tuple[i] = w
			rec(i + 1)
		}
	}
	rec(0)
	slices.Sort(out)
	return out
}

func tupleKey[S ~[]rune | ~string](ws []S) string {
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = string(w)
	}
	return strings.Join(parts, "|")
}

// TestCanonicalTuplesMatchBruteForce holds the class-stepped enumeration
// to the brute-force reference on random queries over σ ⊆ {a, b, c}
// with no limit. A refining language that names every label of σ gives
// each label its own cell, so the enumeration's representatives are all
// of σ and the two tuple sets must be equal.
func TestCanonicalTuplesMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, sigma := range []string{"ab", "abc"} {
		sig := []rune(sigma)
		env := ecrpq.Env{Sigma: sig}
		every := relations.FromLanguage("every", regex.MustParse("("+strings.Join(strings.Split(sigma, ""), "|")+")*"))
		for _, text := range canonicalCases(r, sigma, 40) {
			q, err := ecrpq.Parse(text, env)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			bound := 4
			if len(q.PathAtoms) == 3 {
				bound = 2
			}
			tuples, err := canonicalTuples(q, []*relations.Relation{every}, sig, bound, 1<<30)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			got := make([]string, len(tuples))
			for i, tp := range tuples {
				got[i] = tupleKey(tp)
			}
			slices.Sort(got)
			if n := len(slices.Compact(slices.Clone(got))); n != len(got) {
				t.Errorf("%s: %d tuples enumerated, %d distinct", text, len(got), n)
			}
			if want := bruteTuples(q, sig, bound); !slices.Equal(got, want) {
				t.Errorf("σ %s, bound %d, %s:\n got %d tuples %q\nwant %d tuples %q", sigma, bound, text, len(got), got, len(want), want)
			}
		}
	}
}

// TestClassBearingContainment: character classes in either query are
// compiled, not refused, and the partition Q2 refines finds the label a
// class of Q1 hides.
func TestClassBearingContainment(t *testing.T) {
	az := make([]rune, 0, 26)
	for a := 'a'; a <= 'z'; a++ {
		az = append(az, a)
	}
	env := ecrpq.Env{Sigma: az}
	cases := []struct {
		q1, q2   string
		contains bool
	}{
		{"Ans(x,y) <- (x,p,y), [a-c]+(p)", "Ans(x,y) <- (x,r,y), (a|b|c|d)+(r)", true},
		{"Ans(x,y) <- (x,p,y), (a|b|c|d)+(p)", "Ans(x,y) <- (x,r,y), [a-c]+(r)", false},
		{"Ans(x,y) <- (x,p,y), [a-z]+(p)", "Ans(x,y) <- (x,r,y), a+(r)", false},
		{"Ans(x,y) <- (x,p,y), a+(p)", "Ans(x,y) <- (x,r,y), [a-z]+(r)", true},
		{"Ans(x,y) <- (x,p1,z), (z,p2,y), [a-m]+(p1), [n-z]+(p2), el(p1,p2)", "Ans(x,y) <- (x,r,y), [a-m]+[n-z]+(r)", true},
		{"Ans(x,y) <- (x,p1,z), (z,p2,y), [a-m]+(p1), [n-z]+(p2), el(p1,p2)", "Ans(x,y) <- (x,r,y), [a-m]+q[n-z]*(r)", false},
	}
	for _, c := range cases {
		q1, q2 := ecrpq.MustParse(c.q1, env), ecrpq.MustParse(c.q2, env)
		res, err := Check(q1, q2, az, 4, 1000, ecrpq.Options{})
		if err != nil {
			t.Fatalf("%s ⊆ %s: %v", c.q1, c.q2, err)
		}
		if res.ContainedUpTo != c.contains {
			t.Errorf("%s ⊆ %s: contained up to 4 = %v, want %v (counter %+v)", c.q1, c.q2, res.ContainedUpTo, c.contains, res.Counter)
		}
		if res.Counter != nil {
			checkCounterexample(t, q1, q2, res.Counter)
		}
	}
}

// checkCounterexample verifies a counterexample with the naive
// evaluator: Q1 produces its head tuple on the canonical database and
// Q2 does not.
func checkCounterexample(t *testing.T, q1, q2 *ecrpq.Query, c *Counterexample) {
	t.Helper()
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
			t.Errorf("counterexample %q: Q%d produces the head tuple: %v", c.Words, i+1, found)
		}
	}
}

// TestBigAlphabetContainment runs a four-atom check over a ten-thousand
// label alphabet: class-bearing languages plus el, which the tuple
// alphabet (|σ|+1)⁴ − 1 could not spell.
func TestBigAlphabetContainment(t *testing.T) {
	sigma := workload.BigAlphabetSigma(10000)
	lo, mid, hi := sigma[0], sigma[4999], sigma[len(sigma)-1]
	band := func(a, b rune) *relations.Relation {
		return relations.FromLanguage("band", regex.Repeat(regex.ClassNode(regex.NewClass(false, regex.Range{Lo: a, Hi: b}))))
	}
	q1, err := ecrpq.NewBuilder().
		Path("x", "p1", "z1").Path("z1", "p2", "z2").Path("z2", "p3", "z3").Path("z3", "p4", "y").
		Rel(band(lo, hi), "p1").Rel(band(lo, mid), "p2").Rel(band(mid+1, hi), "p3").Rel(band(lo, hi), "p4").
		Rel(relations.EqualLength(sigma), "p1", "p2").
		HeadNodes("x", "y").Build()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ecrpq.NewBuilder().Path("x", "r", "y").Rel(band(lo, hi), "r").HeadNodes("x", "y").Build()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := Check(q1, q2, sigma, 3, 1000, ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ContainedUpTo || res.Tuples != 1000 {
		t.Errorf("contained up to 3 = %v after %d tuples, want true after 1000", res.ContainedUpTo, res.Tuples)
	}
	elapsed := time.Since(start)
	if elapsed > time.Second {
		t.Errorf("|σ| %d: %d canonical tuples took %v, over a second", len(sigma), res.Tuples, elapsed)
	}
	t.Logf("|σ| %d: %d canonical tuples in %v", len(sigma), res.Tuples, elapsed)
}
