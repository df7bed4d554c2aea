package relations

import "repro/internal/automata"

// Equality returns the binary relation {(s,s) | s ∈ Σ*}: the path
// equality π₁ = π₂ of Section 3.
func Equality(sigma []rune) *Relation {
	n := automata.NewNFA[TupleSym]()
	q := n.AddState()
	n.SetStart(q)
	n.SetFinal(q, true)
	for _, a := range sigma {
		n.AddTransition(q, makeSym(a, a), q)
	}
	return &Relation{Name: "eq", Arity: 2, A: n}
}

// EqualLength returns the binary relation el = {(s,s') : |s| = |s'|}
// over sigma (Section 2), in class form: one state with a (Σ, Σ) loop,
// where Σ is sigma as one class. Expand spells it over labels, one loop
// per pair of labels.
func EqualLength(sigma []rune) *Relation {
	f := lengthForm(sigma, 1)
	f.a.SetFinal(0, true)
	f.a.AddTransition(0, makeSym(sigmaSym, sigmaSym), 0)
	return &Relation{Name: "el", Arity: 2, cls: f}
}

// Prefix returns the binary relation {(s,s') : s ⪯ s'} — s is a prefix of
// s' (Section 2: letters (a,a)* followed by (⊥,b)*).
func Prefix(sigma []rune) *Relation {
	n := automata.NewNFA[TupleSym]()
	q0 := n.AddState()
	q1 := n.AddState()
	n.SetStart(q0)
	n.SetFinal(q0, true)
	n.SetFinal(q1, true)
	for _, a := range sigma {
		n.AddTransition(q0, makeSym(a, a), q0)
		n.AddTransition(q0, makeSym(Bot, a), q1)
		n.AddTransition(q1, makeSym(Bot, a), q1)
	}
	return &Relation{Name: "prefix", Arity: 2, A: n}
}

// ShorterLen returns {(s,s') : |s| < |s'|}, the strict length comparison
// of Section 2 (definable in the universal automatic structure), in class
// form: (Σ, Σ)* then (⊥, Σ)⁺.
func ShorterLen(sigma []rune) *Relation {
	return &Relation{Name: "lt", Arity: 2, cls: longerTail(sigma, false)}
}

// ShorterEqLen returns {(s,s') : |s| ≤ |s'|}, in class form: (Σ, Σ)*
// then (⊥, Σ)*.
func ShorterEqLen(sigma []rune) *Relation {
	return &Relation{Name: "le", Arity: 2, cls: longerTail(sigma, true)}
}

// longerTail is the class form of lt (orEqual false) and le: state 0
// reads (Σ, Σ) pairs, state 1 the rest of the second string.
func longerTail(sigma []rune, orEqual bool) *classForm {
	f := lengthForm(sigma, 2)
	f.a.SetFinal(0, orEqual)
	f.a.SetFinal(1, true)
	f.a.AddTransition(0, makeSym(sigmaSym, sigmaSym), 0)
	f.a.AddTransition(0, makeSym(Bot, sigmaSym), 1)
	f.a.AddTransition(1, makeSym(Bot, sigmaSym), 1)
	return f
}

// Morphism returns the synchronous transformation relation of Section 1:
// {(a₁…aₙ, h(a₁)…h(aₙ))} for the letter map h. Letters of sigma missing
// from h are mapped to themselves.
func Morphism(sigma []rune, h map[rune]rune) *Relation {
	n := automata.NewNFA[TupleSym]()
	q := n.AddState()
	n.SetStart(q)
	n.SetFinal(q, true)
	for _, a := range sigma {
		b, ok := h[a]
		if !ok {
			b = a
		}
		n.AddTransition(q, makeSym(a, b), q)
	}
	return &Relation{Name: "morph", Arity: 2, A: n}
}

// RhoIso returns the ρ-isomorphism relation of Section 4 (Anyanwu–Sheth
// semantic associations): pairs of equal-length property sequences whose
// letters at each position are related by prec in either direction:
// (⋃_{a,b: a≺b ∨ b≺a} (a,b))*.
func RhoIso(sigma []rune, prec func(a, b rune) bool) *Relation {
	n := automata.NewNFA[TupleSym]()
	q := n.AddState()
	n.SetStart(q)
	n.SetFinal(q, true)
	for _, a := range sigma {
		for _, b := range sigma {
			if prec(a, b) || prec(b, a) {
				n.AddTransition(q, makeSym(a, b), q)
			}
		}
	}
	return &Relation{Name: "rho-iso", Arity: 2, A: n}
}

// MismatchOrGap returns the finite binary relation of Section 4's
// alignment query: all pairs (a, b) with a ≠ b, a, b ∈ Σ ∪ {ε}, excluding
// (ε, ε). The ε cases are the single-letter-to-empty-string pairs, i.e.
// convolutions (a,⊥) and (⊥,b).
func MismatchOrGap(sigma []rune) *Relation {
	n := automata.NewNFA[TupleSym]()
	q0 := n.AddState()
	q1 := n.AddState()
	n.SetStart(q0)
	n.SetFinal(q1, true)
	for _, a := range sigma {
		for _, b := range sigma {
			if a != b {
				n.AddTransition(q0, makeSym(a, b), q1)
			}
		}
		n.AddTransition(q0, makeSym(a, Bot), q1)
		n.AddTransition(q0, makeSym(Bot, a), q1)
	}
	return &Relation{Name: "mismatch", Arity: 2, A: n}
}

// NonEmptyPair returns the binary relation {(s, s') : s ≠ ε and s' ≠ ε};
// a guard used to exclude trivial empty-sequence answers from
// association queries (Section 4). It compares lengths only, so it is
// in class form: a (Σ, Σ) step, then any of (Σ, Σ), (Σ, ⊥) and (⊥, Σ).
func NonEmptyPair(sigma []rune) *Relation {
	f := lengthForm(sigma, 2)
	f.a.SetFinal(1, true)
	f.a.AddTransition(0, makeSym(sigmaSym, sigmaSym), 1)
	f.a.AddTransition(1, makeSym(sigmaSym, sigmaSym), 1)
	f.a.AddTransition(1, makeSym(sigmaSym, Bot), 1)
	f.a.AddTransition(1, makeSym(Bot, sigmaSym), 1)
	return &Relation{Name: "nonempty2", Arity: 2, cls: f}
}
