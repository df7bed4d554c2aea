// Package relations implements n-ary regular relations on strings — the
// path-comparison mechanism of ECRPQs (Section 2 of the paper).
//
// An n-ary relation S on Σ* is regular when the convolution language
// {[s̄] | s̄ ∈ S} over the tuple alphabet (Σ⊥)ⁿ is regular, where [s̄] pads
// the shorter strings with ⊥ and reads the n strings as one string of
// n-tuples. This package provides the convolution encoding, the Relation
// type (a synchronous automaton over tuple symbols), a library of the
// relations the paper uses (equality, equal length, prefix, length
// comparison, synchronous morphisms, ρ-isomorphism, edit distance ≤ k),
// boolean combinators, and the Joint stepper that implements the join
// S₁ ⋈ … ⋈ Sₜ over m tapes used by the convolution construction of
// Section 5.
//
// Relations that compare labels (eq, prefix, edit distance, morphisms)
// are automata over label tuples. The length relations el, lt, le and
// nonempty2 never tell two labels apart, so they are built in class form — an
// automaton over tuples of one class, Σ, and ⊥ — whose size does not
// depend on |Σ|; Expand spells such a relation over labels for the code
// that needs them, and the evaluator compiles it against a partition of
// the label space instead (CompileClassAtoms).
package relations

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/regex"
)

// Bot re-exports the padding symbol ⊥.
const Bot = regex.Bot

// TupleSym encodes an n-tuple of Σ⊥ runes as a string of length n; this
// is the symbol type of all synchronous automata in this package.
type TupleSym = string

// makeSym builds a tuple symbol from component runes.
func makeSym(rs ...rune) TupleSym { return string(rs) }

// AllBot reports whether every component of the symbol is ⊥.
func AllBot(sym TupleSym) bool {
	for _, r := range sym {
		if r != Bot {
			return false
		}
	}
	return true
}

// Convolve computes [s̄]: the convolution of the given strings, a word
// over tuple symbols whose length is the maximum of the input lengths
// (Section 2). Convolve of zero strings or of all-empty strings is the
// empty word.
func Convolve(ss ...[]rune) []TupleSym {
	maxLen := 0
	for _, s := range ss {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	word := make([]TupleSym, maxLen)
	buf := make([]rune, len(ss))
	for i := 0; i < maxLen; i++ {
		for j, s := range ss {
			if i < len(s) {
				buf[j] = s[i]
			} else {
				buf[j] = Bot
			}
		}
		word[i] = string(buf)
	}
	return word
}

// Relation is an n-ary regular relation over Σ, represented by a
// synchronous (letter-to-letter) automaton over tuple symbols. Name is a
// human-readable description used in query printing and errors.
//
// Unary relations built from a regular language keep their rune AST in
// Lang. When the AST contains character classes over a large label
// space (regex.OpClass), A is nil: the explicit automaton would need
// one transition per label, so class-bearing relations are compiled
// per query component against a label-space partition instead (see
// CompileClassAtoms) and membership is decided from the AST. The length
// relations (EqualLength, ShorterLen, ShorterEqLen, NonEmptyPair) have A
// nil too: they are held in class form, compiled the same way, and
// spelled over labels by Expand.
type Relation struct {
	Name  string
	Arity int
	A     *automata.NFA[TupleSym]

	// Lang is the rune AST of a unary language relation (nil for
	// relations built directly from tuple automata). It is the source
	// of truth for class-bearing relations and for the live-label
	// range analysis of the incremental layer.
	Lang *regex.Node[rune]

	// cls is the class form of a relation that reads labels only through
	// classes (length.go); nil for every other relation.
	cls *classForm

	// classSpace marks a relation recompiled over class runes by
	// CompileClassAtoms: A transitions on class IDs, not labels, so
	// Contains must go through Lang or cls.
	classSpace bool
}

// FromTupleRegex builds a relation from a regular expression over tuple
// symbols (see regex.ParseTuple for the concrete syntax).
func FromTupleRegex(name string, node *regex.Node[TupleSym], arity int) *Relation {
	return &Relation{Name: name, Arity: arity, A: automata.FromRegex(node)}
}

// FromLanguage wraps a regular language (a unary relation) as a Relation:
// the CRPQ case of single-path constraints L(ω). The rune AST is kept
// in Lang; when it contains character classes no explicit automaton is
// built (A stays nil) — the evaluator compiles the component's atoms
// against a shared label-space partition instead.
func FromLanguage(name string, node *regex.Node[rune]) *Relation {
	if regex.HasClass(node) {
		return &Relation{Name: name, Arity: 1, Lang: node}
	}
	lift := liftRegex(node)
	return &Relation{Name: name, Arity: 1, A: automata.FromRegex(lift), Lang: node}
}

// liftRegex converts a rune regex to a 1-tuple-symbol regex.
func liftRegex(n *regex.Node[rune]) *regex.Node[TupleSym] {
	switch n.Op {
	case regex.OpEmpty:
		return regex.None[TupleSym]()
	case regex.OpEps:
		return regex.Eps[TupleSym]()
	case regex.OpSym:
		return regex.Lit(TupleSym(string(n.Sym)))
	case regex.OpConcat:
		return regex.Seq(liftRegex(n.Left), liftRegex(n.Right))
	case regex.OpAlt:
		return regex.Or(liftRegex(n.Left), liftRegex(n.Right))
	case regex.OpClass:
		panic("relations: class nodes cannot be lifted to an explicit tuple automaton (use CompileClassAtoms)")
	default: // OpStar
		return regex.Kleene(liftRegex(n.Left))
	}
}

// Contains reports whether the tuple of strings belongs to the relation.
func (r *Relation) Contains(ss ...[]rune) bool {
	if len(ss) != r.Arity {
		panic(fmt.Sprintf("relations: %s has arity %d, got %d strings", r.Name, r.Arity, len(ss)))
	}
	if r.cls != nil {
		return r.cls.accepts(Convolve(ss...))
	}
	if r.A == nil || r.classSpace {
		if r.Lang == nil || r.Arity != 1 {
			panic(fmt.Sprintf("relations: %s has no automaton and no unary language", r.Name))
		}
		return regex.Match(r.Lang, ss[0])
	}
	return r.A.Accepts(Convolve(ss...))
}

// ContainsStrings is Contains on Go strings, a test convenience.
func (r *Relation) ContainsStrings(ss ...string) bool {
	rs := make([][]rune, len(ss))
	for i, s := range ss {
		rs[i] = []rune(s)
	}
	return r.Contains(rs...)
}

// TupleAlphabet enumerates all proper tuple symbols over Σ⊥ of the given
// arity (excluding the all-⊥ symbol): the alphabet (Σ⊥)ⁿ ∖ {⊥ⁿ}.
func TupleAlphabet(sigma []rune, arity int) []TupleSym {
	ext := append([]rune{Bot}, sigma...)
	var out []TupleSym
	buf := make([]rune, arity)
	var rec func(i int)
	rec = func(i int) {
		if i == arity {
			s := string(buf)
			if !AllBot(s) {
				out = append(out, s)
			}
			return
		}
		for _, r := range ext {
			buf[i] = r
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// PadValid returns an automaton over arity-tuples accepting exactly the
// proper convolutions: per coordinate Σ*⊥*, no all-⊥ symbols. Its states
// are the 2^arity "finished" masks.
func PadValid(sigma []rune, arity int) *automata.NFA[TupleSym] {
	n := automata.NewNFA[TupleSym]()
	numMasks := 1 << arity
	n.AddStates(numMasks)
	for mask := 0; mask < numMasks; mask++ {
		n.SetFinal(mask, true)
	}
	n.SetStart(0)
	for mask := 0; mask < numMasks; mask++ {
		for _, sym := range TupleAlphabet(sigma, arity) {
			next := mask
			ok := true
			for j, r := range []rune(sym) {
				if r == Bot {
					next |= 1 << j
				} else if mask&(1<<j) != 0 {
					ok = false
					break
				}
			}
			if ok {
				n.AddTransition(mask, sym, next)
			}
		}
	}
	return n
}

// Intersect returns the intersection of two relations of equal arity.
func Intersect(a, b *Relation) *Relation {
	mustSameArity(a, b)
	return &Relation{
		Name:  fmt.Sprintf("(%s∩%s)", a.Name, b.Name),
		Arity: a.Arity,
		A:     automata.Intersect(a.Expand().A, b.Expand().A),
	}
}

// Union returns the union of two relations of equal arity.
func Union(a, b *Relation) *Relation {
	mustSameArity(a, b)
	return &Relation{
		Name:  fmt.Sprintf("(%s∪%s)", a.Name, b.Name),
		Arity: a.Arity,
		A:     automata.Union(a.Expand().A, b.Expand().A),
	}
}

// Complement returns the complement of r relative to proper convolutions
// over the given alphabet: the relation (Σ*)ⁿ ∖ r. Regular relations are
// closed under complement (Section 2); the construction determinizes over
// the full tuple alphabet, so its cost is exponential in the worst case.
func Complement(r *Relation, sigma []rune) *Relation {
	alpha := TupleAlphabet(sigma, r.Arity)
	d := automata.Determinize(r.Expand().A, alpha)
	comp := d.Complement().ToNFA()
	proper := PadValid(sigma, r.Arity)
	return &Relation{
		Name:  fmt.Sprintf("¬%s", r.Name),
		Arity: r.Arity,
		A:     automata.Intersect(comp, proper),
	}
}

func mustSameArity(a, b *Relation) {
	if a.Arity != b.Arity {
		panic(fmt.Sprintf("relations: arity mismatch %s:%d vs %s:%d", a.Name, a.Arity, b.Name, b.Arity))
	}
}
