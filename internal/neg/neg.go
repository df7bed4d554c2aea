// Package neg implements ECRPQ¬ and CRPQ¬ — the extension of ECRPQs with
// negation and quantification of Section 8.1:
//
//	atom := π₁ = π₂ | x = y | (x, π, y) | R(π₁,…,πₙ)
//	ϕ, ψ := atom | ¬ϕ | ϕ ∧ ψ | ϕ ∨ ψ | ∃x ϕ | ∃π ϕ
//
// Evaluation follows the constructive proof of Claim 8.1.3: for a graph
// database G, a node assignment σ, and a formula ϕ with free path
// variables π̄, one builds an automaton over the alphabet V^|π̄| ∪ (Σ⊥)^|π̄|
// accepting exactly the representations of the path tuples satisfying ϕ.
// Atoms yield explicit automata; ∧ is intersection (after
// cylindrification to a common variable set), ¬ is complementation
// relative to the valid-representation language, ∃x is a union over V,
// and ∃π is coordinate projection with contraction of steps where only
// the projected path advances.
//
// The data complexity of this evaluation is non-elementary in the
// formula (Theorem 8.2): each negation may determinize. The package is
// therefore meant for small graphs and shallow formulas, which is
// exactly what the paper's lower bound says is unavoidable.
package neg

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/ecrpq"
	"repro/internal/regex"
	"repro/internal/relations"
)

// Formula is an ECRPQ¬ formula.
type Formula interface {
	freeNodeVars(set map[ecrpq.NodeVar]bool)
	freePathVars(set map[ecrpq.PathVar]bool)
	String() string
}

// nodeEq is the atom x = y.
type nodeEq struct{ X, Y ecrpq.NodeVar }

// pathEq is the atom π₁ = π₂ (label equality, as in the paper's grammar).
type pathEq struct{ P1, P2 ecrpq.PathVar }

// Edge is the atom (x, π, y).
type Edge struct {
	X ecrpq.NodeVar
	P ecrpq.PathVar
	Y ecrpq.NodeVar
}

// Rel is the atom R(π₁,…,πₙ) for a regular relation R.
type Rel struct {
	R    *relations.Relation
	Args []ecrpq.PathVar
}

// Lang is the unary convenience atom L(π).
func Lang(src string, p ecrpq.PathVar) Formula {
	return Rel{R: relations.FromLanguage(src, regex.MustParse(src)), Args: []ecrpq.PathVar{p}}
}

// Not is ¬F.
type Not struct{ F Formula }

// And is F ∧ G.
type And struct{ F, G Formula }

// or is F ∨ G (definable from ¬,∧; primitive here to avoid needless
// complementations).
type or struct{ F, G Formula }

// ExistsNode is ∃x F.
type ExistsNode struct {
	X ecrpq.NodeVar
	F Formula
}

// ExistsPath is ∃π F.
type ExistsPath struct {
	P ecrpq.PathVar
	F Formula
}

func (a nodeEq) freeNodeVars(s map[ecrpq.NodeVar]bool) { s[a.X] = true; s[a.Y] = true }
func (a pathEq) freeNodeVars(map[ecrpq.NodeVar]bool)   {}
func (a Edge) freeNodeVars(s map[ecrpq.NodeVar]bool)   { s[a.X] = true; s[a.Y] = true }
func (a Rel) freeNodeVars(map[ecrpq.NodeVar]bool)      {}
func (a Not) freeNodeVars(s map[ecrpq.NodeVar]bool)    { a.F.freeNodeVars(s) }
func (a And) freeNodeVars(s map[ecrpq.NodeVar]bool)    { a.F.freeNodeVars(s); a.G.freeNodeVars(s) }
func (a or) freeNodeVars(s map[ecrpq.NodeVar]bool)     { a.F.freeNodeVars(s); a.G.freeNodeVars(s) }
func (a ExistsNode) freeNodeVars(s map[ecrpq.NodeVar]bool) {
	inner := map[ecrpq.NodeVar]bool{}
	a.F.freeNodeVars(inner)
	delete(inner, a.X)
	for v := range inner {
		s[v] = true
	}
}
func (a ExistsPath) freeNodeVars(s map[ecrpq.NodeVar]bool) { a.F.freeNodeVars(s) }

func (a nodeEq) freePathVars(map[ecrpq.PathVar]bool)   {}
func (a pathEq) freePathVars(s map[ecrpq.PathVar]bool) { s[a.P1] = true; s[a.P2] = true }
func (a Edge) freePathVars(s map[ecrpq.PathVar]bool)   { s[a.P] = true }
func (a Rel) freePathVars(s map[ecrpq.PathVar]bool) {
	for _, p := range a.Args {
		s[p] = true
	}
}
func (a Not) freePathVars(s map[ecrpq.PathVar]bool)        { a.F.freePathVars(s) }
func (a And) freePathVars(s map[ecrpq.PathVar]bool)        { a.F.freePathVars(s); a.G.freePathVars(s) }
func (a or) freePathVars(s map[ecrpq.PathVar]bool)         { a.F.freePathVars(s); a.G.freePathVars(s) }
func (a ExistsNode) freePathVars(s map[ecrpq.PathVar]bool) { a.F.freePathVars(s) }
func (a ExistsPath) freePathVars(s map[ecrpq.PathVar]bool) {
	inner := map[ecrpq.PathVar]bool{}
	a.F.freePathVars(inner)
	delete(inner, a.P)
	for v := range inner {
		s[v] = true
	}
}

func (a nodeEq) String() string { return fmt.Sprintf("%s = %s", a.X, a.Y) }
func (a pathEq) String() string { return fmt.Sprintf("%s = %s", a.P1, a.P2) }
func (a Edge) String() string   { return fmt.Sprintf("(%s,%s,%s)", a.X, a.P, a.Y) }
func (a Rel) String() string {
	args := make([]string, len(a.Args))
	for i, p := range a.Args {
		args[i] = string(p)
	}
	return fmt.Sprintf("%s(%s)", a.R.Name, strings.Join(args, ","))
}
func (a Not) String() string        { return "¬(" + a.F.String() + ")" }
func (a And) String() string        { return "(" + a.F.String() + " ∧ " + a.G.String() + ")" }
func (a or) String() string         { return "(" + a.F.String() + " ∨ " + a.G.String() + ")" }
func (a ExistsNode) String() string { return fmt.Sprintf("∃%s %s", a.X, a.F.String()) }
func (a ExistsPath) String() string { return fmt.Sprintf("∃%s %s", a.P, a.F.String()) }

// freeNodeVarsOf returns the free node variables sorted by name.
func freeNodeVarsOf(f Formula) []ecrpq.NodeVar {
	s := map[ecrpq.NodeVar]bool{}
	f.freeNodeVars(s)
	return slices.Sorted(maps.Keys(s))
}

// freePathVarsOf returns the free path variables sorted by name.
func freePathVarsOf(f Formula) []ecrpq.PathVar {
	s := map[ecrpq.PathVar]bool{}
	f.freePathVars(s)
	return slices.Sorted(maps.Keys(s))
}
