// Package rdf implements the semantic-web association queries of
// Section 4 (after Anyanwu & Sheth's ρ-queries): RDF properties are edge
// labels, a subproperty order ≺ is declared on them, two property
// sequences are ρ-isomorphic when they have equal length and the
// properties at each position are ≺-comparable, and nodes are
// ρ-isoAssociated when they originate ρ-isomorphic property sequences.
// The paper shows both the association test and the path-returning
// ρ-query are ECRPQs; this package builds those queries over the
// Hierarchy type and runs them through the production engine.
package rdf

import (
	"maps"
	"slices"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/relations"
)

// Hierarchy is a subproperty order on edge labels: Sub(a, b) declares
// a ≺ b. The transitive closure is taken automatically; reflexivity is
// NOT assumed (declare it with Reflexive if wanted, as some RDF/S
// readings do).
type Hierarchy struct {
	sub   map[rune]map[rune]bool
	runes map[rune]bool

	// closure memoizes the transitive closure per source property,
	// built lazily by Prec and invalidated by Sub. RhoIso probes Prec
	// |Σ|² times; without the memo each probe walked the declaration
	// graph afresh.
	closure map[rune]map[rune]bool
}

// NewHierarchy returns an empty hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{sub: map[rune]map[rune]bool{}, runes: map[rune]bool{}}
}

// Sub declares a ≺ b (a is a subproperty of b).
func (h *Hierarchy) Sub(a, b rune) *Hierarchy {
	if h.sub[a] == nil {
		h.sub[a] = map[rune]bool{}
	}
	h.sub[a][b] = true
	h.runes[a] = true
	h.runes[b] = true
	h.closure = nil
	return h
}

// Reflexive declares a ≺ a for every known property.
func (h *Hierarchy) Reflexive() *Hierarchy {
	for a := range h.runes {
		h.Sub(a, a)
	}
	return h
}

// Prec reports whether a ≺ b in the transitive closure. The closure of
// each source is computed once (a DFS over the declaration graph) and
// reused until the next Sub declaration.
func (h *Hierarchy) Prec(a, b rune) bool {
	if h.closure == nil {
		h.closure = map[rune]map[rune]bool{}
	}
	reach, ok := h.closure[a]
	if !ok {
		reach = map[rune]bool{}
		stack := []rune{a}
		seen := map[rune]bool{a: true}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for y := range h.sub[x] {
				reach[y] = true
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		h.closure[a] = reach
	}
	return reach[b]
}

// Properties returns the declared properties, sorted.
func (h *Hierarchy) Properties() []rune {
	return slices.Sorted(maps.Keys(h.runes))
}

// RhoIso returns the ρ-isomorphism regular relation of Section 4 over
// the given alphabet (which may extend the declared properties):
// (⋃_{a≺b ∨ b≺a} (a,b))*.
func (h *Hierarchy) RhoIso(sigma []rune) *relations.Relation {
	return relations.RhoIso(sigma, h.Prec)
}

// IsoAssociated returns all pairs (x, y) of nodes that are
// ρ-isoAssociated in g: the ECRPQ
//
//	Ans(x, y) ← (x,π₁,z₁), (y,π₂,z₂), R(π₁,π₂)
//
// of Section 4, with R the ρ-isomorphism relation. Pairs reached only by
// the empty sequences (trivially ρ-isomorphic) are excluded by requiring
// nonempty sequences, matching the intent of semantic association. The
// relation's alphabet and the evaluation come from one snapshot of g.
func (h *Hierarchy) IsoAssociated(g graph.Snapshotter) ([][2]graph.Node, error) {
	s := g.Snapshot()
	sigma := s.Alphabet()
	rho := h.RhoIso(sigma)
	nonempty := relations.NonEmptyPair(sigma)
	q, err := ecrpq.NewBuilder().
		Path("x", "p1", "z1").
		Path("y", "p2", "z2").
		Rel(rho, "p1", "p2").
		Rel(nonempty, "p1", "p2").
		HeadNodes("x", "y").
		Build()
	if err != nil {
		return nil, err
	}
	res, err := ecrpq.Eval(q, s, ecrpq.Options{})
	if err != nil {
		return nil, err
	}
	out := make([][2]graph.Node, 0, len(res.Answers))
	for _, a := range res.Answers {
		out = append(out, [2]graph.Node{a.Nodes[0], a.Nodes[1]})
	}
	return out, nil
}

// RhoQuery returns the ρ-isomorphic property-sequence pairs originating
// at u and v — the path-returning ρ-query of Section 4:
//
//	Ans(π₁, π₂) ← (u,π₁,z₁), (v,π₂,z₂), R(π₁,π₂)
//
// Up to limit pairs with at most maxLen properties are enumerated from
// the answer automaton of Proposition 5.2, built on the same snapshot of
// g the relation's alphabet is read from.
func (h *Hierarchy) RhoQuery(g graph.Snapshotter, u, v graph.Node, limit, maxLen int) ([][2]graph.Path, error) {
	s := g.Snapshot()
	sigma := s.Alphabet()
	rho := h.RhoIso(sigma)
	q, err := ecrpq.NewBuilder().
		Path("x", "p1", "z1").
		Path("y", "p2", "z2").
		Rel(rho, "p1", "p2").
		HeadNodes("x", "y").
		HeadPaths("p1", "p2").
		Build()
	if err != nil {
		return nil, err
	}
	pa, err := ecrpq.BuildPathAutomaton(q, s, []graph.Node{u, v}, ecrpq.Options{})
	if err != nil {
		return nil, err
	}
	tuples := pa.Enumerate(limit, maxLen)
	out := make([][2]graph.Path, 0, len(tuples))
	for _, tp := range tuples {
		out = append(out, [2]graph.Path{tp[0], tp[1]})
	}
	return out, nil
}
