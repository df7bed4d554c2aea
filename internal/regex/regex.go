// Package regex implements regular expressions over arbitrary comparable
// symbol types.
//
// The ECRPQ paper (Barceló, Libkin, Lin, Wood; TODS 2012) uses regular
// expressions in two roles: ordinary expressions over an edge alphabet Σ
// (defining regular languages for CRPQ atoms L(ω)), and expressions over
// tuple alphabets (Σ⊥)ⁿ (defining n-ary regular relations R(ω̄), Section 2).
// Both are served by a single generic AST: languages instantiate S = rune,
// relations instantiate S = string where each symbol encodes an n-tuple of
// runes (see package relations).
//
// The package provides an AST with smart constructors, a parser for the
// rune instantiation (see Parse) and for tuple symbols (see ParseTuple), a
// Brzozowski-derivative matcher usable as an oracle independent of the
// automata pipeline, and pretty-printing.
package regex

import (
	"sort"
	"strings"
)

// Bot is the padding symbol ⊥ of the paper's extended alphabet Σ⊥. It is
// written "_" in the textual syntax accepted by Parse and ParseTuple.
const Bot rune = '\x00'

// Op identifies the kind of a regular-expression node.
type Op int

// Node kinds. Plus and optional are desugared by the constructors.
const (
	OpEmpty  Op = iota // ∅, the empty language
	OpEps              // ε
	OpSym              // a single symbol
	OpConcat           // Left·Right
	OpAlt              // Left|Right
	OpStar             // Left*
	OpClass            // a character class over rune ranges (rune ASTs only)
)

// Node is a regular-expression AST node over symbols of type S. Nodes are
// immutable after construction; always build them with the constructors
// (None, Eps, Lit, Seq, Or, Kleene, ...) which apply local simplifications.
//
// OpClass nodes carry a ClassExpr instead of an explicit symbol set and
// are only meaningful for the rune instantiation (S = rune); see
// classes.go for the class syntax and the partition compiler.
type Node[S comparable] struct {
	Op          Op
	Sym         S          // valid when Op == OpSym
	Left, Right *Node[S]   // children; OpStar uses Left only
	Class       *ClassExpr // valid when Op == OpClass
}

// None returns ∅.
func None[S comparable]() *Node[S] { return &Node[S]{Op: OpEmpty} }

// Eps returns ε.
func Eps[S comparable]() *Node[S] { return &Node[S]{Op: OpEps} }

// Lit returns the single-symbol expression a.
func Lit[S comparable](a S) *Node[S] { return &Node[S]{Op: OpSym, Sym: a} }

// Seq returns the concatenation of the given expressions, simplifying
// neutral and absorbing elements. Seq() is ε.
func Seq[S comparable](ns ...*Node[S]) *Node[S] {
	res := Eps[S]()
	for _, n := range ns {
		switch {
		case n.Op == OpEmpty || res.Op == OpEmpty:
			return None[S]()
		case res.Op == OpEps:
			res = n
		case n.Op == OpEps:
			// keep res
		default:
			res = &Node[S]{Op: OpConcat, Left: res, Right: n}
		}
	}
	return res
}

// Or returns the union of the given expressions, simplifying ∅. Or() is ∅.
func Or[S comparable](ns ...*Node[S]) *Node[S] {
	res := None[S]()
	for _, n := range ns {
		switch {
		case n.Op == OpEmpty:
			// keep res
		case res.Op == OpEmpty:
			res = n
		default:
			res = &Node[S]{Op: OpAlt, Left: res, Right: n}
		}
	}
	return res
}

// Kleene returns n*.
func Kleene[S comparable](n *Node[S]) *Node[S] {
	switch n.Op {
	case OpEmpty, OpEps:
		return Eps[S]()
	case OpStar:
		return n
	}
	return &Node[S]{Op: OpStar, Left: n}
}

// Repeat returns n⁺ = n·n*.
func Repeat[S comparable](n *Node[S]) *Node[S] { return Seq(n, Kleene(n)) }

// Opt returns n? = n|ε.
func Opt[S comparable](n *Node[S]) *Node[S] { return Or(n, Eps[S]()) }

// Pow returns n^k, the k-fold concatenation of n. Pow(n, 0) is ε.
func Pow[S comparable](n *Node[S], k int) *Node[S] {
	res := Eps[S]()
	for i := 0; i < k; i++ {
		res = Seq(res, n)
	}
	return res
}

// Word returns the expression matching exactly the given symbol sequence.
func Word[S comparable](w []S) *Node[S] {
	parts := make([]*Node[S], len(w))
	for i, a := range w {
		parts[i] = Lit(a)
	}
	return Seq(parts...)
}

// AnyOf returns the union of single-symbol expressions for the given
// symbols (a character class).
func AnyOf[S comparable](syms ...S) *Node[S] {
	parts := make([]*Node[S], len(syms))
	for i, a := range syms {
		parts[i] = Lit(a)
	}
	return Or(parts...)
}

// Nullable reports whether the language of n contains ε.
func (n *Node[S]) Nullable() bool {
	switch n.Op {
	case OpEps, OpStar:
		return true
	case OpConcat:
		return n.Left.Nullable() && n.Right.Nullable()
	case OpAlt:
		return n.Left.Nullable() || n.Right.Nullable()
	default:
		return false
	}
}

// Alphabet returns the set of symbols occurring in the expression, as a
// slice with no duplicates and unspecified order.
func Alphabet[S comparable](n *Node[S]) []S {
	seen := map[S]bool{}
	var out []S
	var walk func(*Node[S])
	walk = func(n *Node[S]) {
		switch n.Op {
		case OpSym:
			if !seen[n.Sym] {
				seen[n.Sym] = true
				out = append(out, n.Sym)
			}
		case OpConcat, OpAlt:
			walk(n.Left)
			walk(n.Right)
		case OpStar:
			walk(n.Left)
		}
	}
	walk(n)
	return out
}

// Deriv returns the Brzozowski derivative of n with respect to symbol a:
// an expression for { w | a·w ∈ L(n) }.
func Deriv[S comparable](n *Node[S], a S) *Node[S] {
	switch n.Op {
	case OpEmpty, OpEps:
		return None[S]()
	case OpSym:
		if n.Sym == a {
			return Eps[S]()
		}
		return None[S]()
	case OpClass:
		if r, ok := any(a).(rune); ok && n.Class.Contains(r) {
			return Eps[S]()
		}
		return None[S]()
	case OpConcat:
		d := Seq(Deriv(n.Left, a), n.Right)
		if n.Left.Nullable() {
			d = Or(d, Deriv(n.Right, a))
		}
		return d
	case OpAlt:
		return Or(Deriv(n.Left, a), Deriv(n.Right, a))
	default: // OpStar
		return Seq(Deriv(n.Left, a), Kleene(n.Left))
	}
}

// Match reports whether the word w belongs to L(n), by repeated
// derivatives. It is intended as a test oracle; the automata pipeline is
// the production path.
func Match[S comparable](n *Node[S], w []S) bool {
	for _, a := range w {
		n = Deriv(n, a)
		if n.Op == OpEmpty {
			return false
		}
	}
	return n.Nullable()
}

// String renders a rune-symbol expression in the concrete syntax accepted
// by Parse. Bot prints as "_".
func String(n *Node[rune]) string {
	var b strings.Builder
	writeRune(&b, n, 0)
	return b.String()
}

// precedence levels: 0 alt, 1 concat, 2 atom
func writeRune(b *strings.Builder, n *Node[rune], prec int) {
	switch n.Op {
	case OpEmpty:
		b.WriteString("[]") // empty class: matches nothing
	case OpEps:
		b.WriteString("()")
	case OpSym:
		writeSym(b, n.Sym)
	case OpConcat:
		if prec > 1 {
			b.WriteByte('(')
		}
		writeRune(b, n.Left, 1)
		writeRune(b, n.Right, 1)
		if prec > 1 {
			b.WriteByte(')')
		}
	case OpAlt:
		if prec > 0 {
			b.WriteByte('(')
		}
		writeRune(b, n.Left, 0)
		b.WriteByte('|')
		writeRune(b, n.Right, 0)
		if prec > 0 {
			b.WriteByte(')')
		}
	case OpStar:
		writeRune(b, n.Left, 2)
		b.WriteByte('*')
	case OpClass:
		b.WriteString(n.Class.String())
	}
}

func writeSym(b *strings.Builder, r rune) {
	if r == Bot {
		b.WriteByte('_')
		return
	}
	if strings.ContainsRune(`()[]|*+?\<>,_.`, r) {
		b.WriteByte('\\')
	}
	b.WriteRune(r)
}

// SortRunes sorts a rune slice in place and returns it; a convenience for
// deterministic alphabets in tests and printing.
func SortRunes(rs []rune) []rune {
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	return rs
}
