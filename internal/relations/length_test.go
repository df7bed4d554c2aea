package relations

import (
	"fmt"
	"testing"

	"repro/internal/automata"
	"repro/internal/regex"
)

// lengthRelations are the relations built in class form, with the length
// comparison each defines.
var lengthRelations = []struct {
	name  string
	build func([]rune) *Relation
	holds func(n, m int) bool
}{
	{"el", EqualLength, func(n, m int) bool { return n == m }},
	{"lt", ShorterLen, func(n, m int) bool { return n < m }},
	{"le", ShorterEqLen, func(n, m int) bool { return n <= m }},
}

// allWords returns every word of length at most maxLen over letters.
func allWords(letters []rune, maxLen int) [][]rune {
	words := [][]rune{{}}
	for prev := words; maxLen > 0; maxLen-- {
		var next [][]rune
		for _, w := range prev {
			for _, a := range letters {
				next = append(next, append(append([]rune(nil), w...), a))
			}
		}
		words, prev = append(words, next...), next
	}
	return words
}

// TestLengthClassFormMatchesExpansion checks el, lt and le three ways on
// every pair of words of length ≤ 4 over Σ = {a, b}, a foreign label z
// and ⊥: the class form (Contains), its label-level expansion (Expand),
// and the class form compiled against a partition (CompileClassAtoms,
// with a+ beside it so that Σ splits into two cells), run on the words'
// classes. On pairs of Σ-words each must also be the length comparison
// itself.
func TestLengthClassFormMatchesExpansion(t *testing.T) {
	words := allWords([]rune{'a', 'b', 'z', Bot}, 4)
	for _, lr := range lengthRelations {
		rel := lr.build(ab)
		exp := rel.Expand()
		if exp == rel || exp.A == nil || rel.A != nil {
			t.Fatalf("%s: class form A %v, expansion %p of %p", lr.name, rel.A, exp, rel)
		}
		part, compiled, err := CompileClassAtoms([]Atom{
			{Rel: rel, Pos: []int{0, 1}},
			{Rel: FromLanguage("a+", regex.MustParse("a+")), Pos: []int{0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if part.NumClasses() != 2 {
			t.Fatalf("%s: partition %v, want the cells a and b", lr.name, part)
		}
		lifted := compiled[0].Rel
		classes := func(w []rune) []rune {
			out := make([]rune, len(w))
			for i, a := range w {
				out[i] = part.ClassOf(a)
			}
			return out
		}
		for _, s := range words {
			for _, u := range words {
				got := rel.Contains(s, u)
				if want := exp.Contains(s, u); got != want {
					t.Fatalf("%s(%q, %q): class form %v, expansion %v", lr.name, string(s), string(u), got, want)
				}
				if c := lifted.A.Accepts(Convolve(classes(s), classes(u))); c != got {
					t.Fatalf("%s(%q, %q): compiled over classes %v, class form %v", lr.name, string(s), string(u), c, got)
				}
				if lifted.Contains(s, u) != got {
					t.Fatalf("%s(%q, %q): the compiled relation's Contains disagrees", lr.name, string(s), string(u))
				}
				if overSigma(s) && overSigma(u) && got != lr.holds(len(s), len(u)) {
					t.Fatalf("%s(%q, %q) = %v", lr.name, string(s), string(u), got)
				}
			}
		}
	}
}

func overSigma(w []rune) bool {
	for _, a := range w {
		if a != 'a' && a != 'b' {
			return false
		}
	}
	return true
}

// TestLengthClassFormSize pins the size of the class forms — one state
// and one transition for el, two states and three transitions for lt and
// le, at every |Σ| — and of their expansions: |Σ|² transitions for el,
// |Σ|² + 2|Σ| for lt and le, on the class form's states, starts and
// accepting states.
func TestLengthClassFormSize(t *testing.T) {
	forms := map[string][2]int{"el": {1, 1}, "lt": {2, 3}, "le": {2, 3}}
	for _, k := range []int{1, 3, 32, 1000} {
		sigma := make([]rune, k)
		for i := range sigma {
			sigma[i] = rune('a' + i)
		}
		for _, lr := range lengthRelations {
			rel := lr.build(sigma)
			f := rel.cls
			if got := [2]int{f.a.NumStates(), f.a.NumTransitions()}; got != forms[lr.name] {
				t.Fatalf("%s over %d labels: class form has %d states and %d transitions, want %v", lr.name, k, got[0], got[1], forms[lr.name])
			}
			if k > 32 {
				continue
			}
			a := rel.Expand().A
			want := k * k
			if lr.name != "el" {
				want += 2 * k
			}
			if a.NumStates() != f.a.NumStates() || a.NumTransitions() != want ||
				fmt.Sprint(a.Start(), a.FinalStates()) != fmt.Sprint(f.a.Start(), f.a.FinalStates()) {
				t.Fatalf("%s over %d labels: expansion has %d states, %d transitions (want %d), starts/finals %v %v",
					lr.name, k, a.NumStates(), a.NumTransitions(), want, a.Start(), a.FinalStates())
			}
		}
	}
}

// TestLengthRelationsThroughLabelConsumers runs the class forms through
// the code that reads labels: the combinators and a raw NewJoint expand
// them, and Complement over Σ = {a, b} is the complement.
func TestLengthRelationsThroughLabelConsumers(t *testing.T) {
	el, lt, le := EqualLength(ab), ShorterLen(ab), ShorterEqLen(ab)
	if u := Union(lt, el); !automata.Equivalent(u.A, le.Expand().A, TupleAlphabet(ab, 2)) {
		t.Error("lt ∪ el differs from le")
	}
	gt := Complement(le, ab)
	for _, c := range [][2]string{{"", ""}, {"a", ""}, {"ab", "b"}, {"a", "ab"}, {"ba", "ab"}} {
		if got, want := gt.ContainsStrings(c[0], c[1]), len(c[0]) > len(c[1]); got != want {
			t.Errorf("¬le(%q, %q) = %v", c[0], c[1], got)
		}
	}
	j := newJoint(t, 2, Atom{Rel: el, Pos: []int{0, 1}})
	if j.Atoms[0].Rel == el || j.Atoms[0].Rel.A == nil {
		t.Fatal("NewJoint kept el in class form")
	}
	if !j.AcceptsTuple([][]rune{[]rune("ab"), []rune("ba")}) || j.AcceptsTuple([][]rune{[]rune("a"), []rune("ba")}) {
		t.Error("joint over expanded el wrong")
	}
}
