package automata

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/regex"
)

func runes(s string) []rune { return []rune(s) }

func nfaFor(t *testing.T, src string) *NFA[rune] {
	t.Helper()
	return FromRegex(regex.MustParse(src))
}

func TestFromRegexAccepts(t *testing.T) {
	cases := []struct {
		re  string
		yes []string
		no  []string
	}{
		{"a", []string{"a"}, []string{"", "aa", "b"}},
		{"(a|b)*c", []string{"c", "abc", "bbac"}, []string{"", "ab", "cb"}},
		{"a+b?", []string{"a", "ab", "aaa", "aab"}, []string{"", "b", "abb"}},
		{"()", []string{""}, []string{"a"}},
		{"[]", nil, []string{"", "a"}},
		{"(ab)*", []string{"", "ab", "abab"}, []string{"a", "ba"}},
	}
	for _, c := range cases {
		n := nfaFor(t, c.re)
		for _, w := range c.yes {
			if !n.Accepts(runes(w)) {
				t.Errorf("NFA(%q) rejects %q", c.re, w)
			}
		}
		for _, w := range c.no {
			if n.Accepts(runes(w)) {
				t.Errorf("NFA(%q) accepts %q", c.re, w)
			}
		}
	}
}

// words enumerates all words over sigma of length ≤ maxLen.
func words(sigma []rune, maxLen int) [][]rune {
	out := [][]rune{{}}
	frontier := [][]rune{{}}
	for l := 0; l < maxLen; l++ {
		var next [][]rune
		for _, w := range frontier {
			for _, a := range sigma {
				nw := append(append([]rune(nil), w...), a)
				next = append(next, nw)
				out = append(out, nw)
			}
		}
		frontier = next
	}
	return out
}

func TestPropertyNFAMatchesDerivatives(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sigma := []rune{'a', 'b', 'c'}
	ws := words(sigma, 5)
	f := func() bool {
		node := randomExpr(r, 4)
		n := FromRegex(node)
		for _, w := range ws {
			if n.Accepts(w) != regex.Match(node, w) {
				t.Logf("mismatch for %s on %q", regex.String(node), string(w))
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// randomExpr mirrors the generator in package regex (not exported there).
func randomExpr(r *rand.Rand, depth int) *regex.Node[rune] {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return regex.Lit('a')
		case 1:
			return regex.Lit('b')
		case 2:
			return regex.Eps[rune]()
		default:
			return regex.Lit('c')
		}
	}
	switch r.Intn(3) {
	case 0:
		return regex.Seq(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 1:
		return regex.Or(randomExpr(r, depth-1), randomExpr(r, depth-1))
	default:
		return regex.Kleene(randomExpr(r, depth-1))
	}
}

func TestIntersect(t *testing.T) {
	a := nfaFor(t, "(a|b)*a") // ends with a
	b := nfaFor(t, "a(a|b)*") // starts with a
	both := Intersect(a, b)
	sigma := []rune{'a', 'b'}
	for _, w := range words(sigma, 5) {
		want := a.Accepts(w) && b.Accepts(w)
		if got := both.Accepts(w); got != want {
			t.Errorf("Intersect on %q = %v, want %v", string(w), got, want)
		}
	}
}

func TestUnion(t *testing.T) {
	a := nfaFor(t, "ab")
	b := nfaFor(t, "ba")
	sigma := []rune{'a', 'b'}
	u := Union(a, b)
	for _, w := range words(sigma, 5) {
		if got, want := u.Accepts(w), a.Accepts(w) || b.Accepts(w); got != want {
			t.Errorf("Union on %q = %v, want %v", string(w), got, want)
		}
	}
}

func TestDeterminizeComplement(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	sigma := []rune{'a', 'b', 'c'}
	ws := words(sigma, 5)
	for i := 0; i < 60; i++ {
		node := randomExpr(r, 4)
		n := FromRegex(node)
		d := Determinize(n, sigma)
		comp := d.Complement()
		for _, w := range ws {
			want := n.Accepts(w)
			if d.Accepts(w) != want {
				t.Fatalf("DFA disagrees with NFA for %s on %q", regex.String(node), string(w))
			}
			if comp.Accepts(w) == want {
				t.Fatalf("Complement wrong for %s on %q", regex.String(node), string(w))
			}
		}
	}
}

func TestSubsetEquivalent(t *testing.T) {
	sigma := []rune{'a', 'b'}
	a := nfaFor(t, "ab*")
	b := nfaFor(t, "a(a|b)*")
	if !Subset(a, b, sigma) {
		t.Error("ab* ⊆ a(a|b)* should hold")
	}
	if Subset(b, a, sigma) {
		t.Error("a(a|b)* ⊆ ab* should not hold")
	}
	c := nfaFor(t, "(a|b)*")
	d := nfaFor(t, "(b|a)*")
	if !Equivalent(c, d, sigma) {
		t.Error("(a|b)* ≡ (b|a)* should hold")
	}
}

func TestIsEmptyShortest(t *testing.T) {
	if !nfaFor(t, "[]").IsEmpty() {
		t.Error("∅ should be empty")
	}
	if nfaFor(t, "a*").IsEmpty() {
		t.Error("a* should be nonempty")
	}
	w, ok := nfaFor(t, "aa(b|c)").ShortestAccepted()
	if !ok || len(w) != 3 {
		t.Errorf("ShortestAccepted = %q, %v; want length 3", string(w), ok)
	}
	w, ok = nfaFor(t, "a*").ShortestAccepted()
	if !ok || len(w) != 0 {
		t.Errorf("ShortestAccepted(a*) = %q, want ε", string(w))
	}
	// Intersection of disjoint languages is empty.
	x := Intersect(nfaFor(t, "a+"), nfaFor(t, "b+"))
	if !x.IsEmpty() {
		t.Error("a+ ∩ b+ should be empty")
	}
}

func TestEnumerateAccepted(t *testing.T) {
	n := nfaFor(t, "a(b|c)")
	got := n.EnumerateAccepted(10, 4)
	if len(got) != 2 {
		t.Fatalf("EnumerateAccepted = %d words, want 2", len(got))
	}
	seen := map[string]bool{}
	for _, w := range got {
		seen[string(w)] = true
	}
	if !seen["ab"] || !seen["ac"] {
		t.Errorf("EnumerateAccepted = %v", got)
	}
	// limit respected
	inf := nfaFor(t, "a*")
	got = inf.EnumerateAccepted(5, 100)
	if len(got) != 5 {
		t.Errorf("limit not respected: %d", len(got))
	}
}

func TestTrim(t *testing.T) {
	n := NewNFA[rune]()
	q0 := n.AddState()
	q1 := n.AddState()
	dead := n.AddState()   // reachable, not co-reachable
	orphan := n.AddState() // unreachable
	n.SetStart(q0)
	n.SetFinal(q1, true)
	n.AddTransition(q0, 'a', q1)
	n.AddTransition(q0, 'b', dead)
	n.AddTransition(orphan, 'a', q1)
	tr := Trim(n)
	if tr.NumStates() != 2 {
		t.Errorf("Trim left %d states, want 2", tr.NumStates())
	}
	if !tr.Accepts(runes("a")) || tr.Accepts(runes("b")) {
		t.Error("Trim changed the language")
	}
}

func TestMapSymbolsProjection(t *testing.T) {
	// Automaton over pairs; project to first component.
	pair := func(x, y rune) string { return string([]rune{x, y}) }
	n := NewNFA[string]()
	q0, q1 := n.AddState(), n.AddState()
	n.SetStart(q0)
	n.SetFinal(q1, true)
	n.AddTransition(q0, pair('a', 'x'), q1)
	n.AddTransition(q0, pair('b', 'y'), q1)
	proj := MapSymbols(n, func(s string) rune { return []rune(s)[0] })
	if !proj.Accepts(runes("a")) || !proj.Accepts(runes("b")) || proj.Accepts(runes("x")) {
		t.Error("projection wrong")
	}
}

func TestLengthsBasic(t *testing.T) {
	cases := []struct {
		re      string
		inside  []int
		outside []int
	}{
		{"(aa)*", []int{0, 2, 4, 100}, []int{1, 3, 99}},
		{"a(bb)*", []int{1, 3, 5}, []int{0, 2, 4}},
		{"aaa", []int{3}, []int{0, 1, 2, 4, 5}},
		{"a*b*", []int{0, 1, 2, 7}, nil},
		{"[]", nil, []int{0, 1, 2}},
		{"(aaa)*|(aaaaa)*", []int{0, 3, 5, 6, 9, 10}, []int{1, 2, 4, 7}},
	}
	for _, c := range cases {
		ls := Lengths(nfaFor(t, c.re))
		for _, L := range c.inside {
			if !ls.Contains(L) {
				t.Errorf("Lengths(%q) should contain %d (set %+v)", c.re, L, ls)
			}
		}
		for _, L := range c.outside {
			if ls.Contains(L) {
				t.Errorf("Lengths(%q) should not contain %d (set %+v)", c.re, L, ls)
			}
		}
	}
}

func TestLengthsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		node := randomExpr(r, 4)
		n := FromRegex(node)
		ls := Lengths(n)
		// Brute force: for each length probe whether any accepted word of
		// that length exists, via subset BFS by length.
		cur := n.EpsClosure(n.Start())
		bound := ls.MaxFiniteProbe() + 3
		if bound > 60 {
			bound = 60
		}
		for L := 0; L <= bound; L++ {
			want := n.containsFinal(cur)
			if got := ls.Contains(L); got != want {
				t.Fatalf("Lengths(%s) at %d = %v, want %v", regex.String(node), L, got, want)
			}
			// step by all symbols
			succ := map[int]bool{}
			for _, q := range cur {
				for _, tos := range n.trans[q] {
					for _, to := range tos {
						succ[to] = true
					}
				}
			}
			cur = n.EpsClosure(sortedKeys(succ))
		}
	}
}

func TestProgressions(t *testing.T) {
	ls := Lengths(nfaFor(t, "a(bb)*"))
	ps := ls.Progressions()
	contains := func(x int) bool {
		for _, p := range ps {
			if p.Contains(x) {
				return true
			}
		}
		return false
	}
	for L := 0; L <= 30; L++ {
		if contains(L) != ls.Contains(L) {
			t.Errorf("progression decomposition differs at %d", L)
		}
	}
}

func TestIsFinalAndStates(t *testing.T) {
	n := NewNFA[rune]()
	q := n.AddState()
	if n.IsFinal(q) {
		t.Error("fresh state should not be final")
	}
	n.SetFinal(q, true)
	if !n.IsFinal(q) || len(n.FinalStates()) != 1 {
		t.Error("SetFinal not reflected")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := nfaFor(t, "ab")
	b := a.Clone()
	b.SetFinal(0, true) // mutate clone
	if a.IsFinal(0) {
		t.Error("Clone shares final slice")
	}
}

func TestPropertyTrimPreservesLanguage(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	sigma := []rune{'a', 'b', 'c'}
	ws := words(sigma, 4)
	for i := 0; i < 40; i++ {
		node := randomExpr(r, 4)
		n := FromRegex(node)
		tr := Trim(n)
		for _, w := range ws {
			if n.Accepts(w) != tr.Accepts(w) {
				t.Fatalf("Trim changed language of %s on %q", regex.String(node), string(w))
			}
		}
		if tr.NumStates() > n.NumStates() {
			t.Fatal("Trim grew the automaton")
		}
	}
}

func TestLengthSetIsEmpty(t *testing.T) {
	if !Lengths(nfaFor(t, "[]")).IsEmpty() {
		t.Error("∅ length set should be empty")
	}
	if Lengths(nfaFor(t, "a*")).IsEmpty() {
		t.Error("a* length set should not be empty")
	}
}
