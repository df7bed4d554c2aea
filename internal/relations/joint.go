package relations

import (
	"fmt"
	"slices"

	"repro/internal/regex"
)

// Atom is one relation atom R(ω̄) positioned over the m tapes of a query:
// Pos[i] is the tape (0-based path-variable index) feeding the i'th
// coordinate of Rel.
type Atom struct {
	Rel *Relation
	Pos []int

	// part is set by CompileClassAtoms on an atom whose automaton stays on
	// raw labels while the joint's symbols are class runes of part: the
	// runner reads class c as a representative label of c's cell
	// (Partition.Label). Nil: the automaton reads the symbols as given.
	part *regex.Partition
}

// Joint is the m-ary joined relation S_Q = S₁(ω̄₁) ⋈ … ⋈ S_t(ω̄_t) of
// Section 5 as a validated set of atoms over m tapes: every atom has an
// explicit synchronous automaton, its arity matches its positions, and
// every position names one of the m tapes. A Joint does not step itself;
// JointRunner runs it as the automaton A_Q, stepping the tuple of
// constituent subset-states plus the per-tape padding mask on dense
// integer ids, and ClassDFA is the minimal table of what a runner
// explores.
//
// A_Q is never materialized for evaluation: its explicit size is the
// product of the constituent automata (exponential in the query,
// Lemma 6.4) over an alphabet of size |Σ⊥|^m, and evaluation only ever
// touches the states reachable from the tuple symbols that actually
// occur in Gᵐ.
type Joint struct {
	M     int
	Atoms []Atom
}

// NewJoint validates atom arities/positions and returns the joint.
// m is capped at 64 tapes: the padding state is a 64-bit mask, and a
// silent wrap of `1 << i` past bit 63 would corrupt the padding
// discipline, so larger joins are rejected up front.
//
// Every evaluating caller (the engine's components, containment's
// canonical search, neg's letters automaton) compiles its atoms with
// CompileClassAtoms first and steps class tuples. An atom in class form
// that was not compiled is spelled over its labels (Relation.Expand) in
// the joint's own copy of the atoms, for a caller that registers raw
// labels with AddSym: the relations probe of benchmark/probes.go builds
// its el joint that way.
func NewJoint(m int, atoms []Atom) (*Joint, error) {
	if m > 64 {
		return nil, fmt.Errorf("relations: joint over %d tapes exceeds the 64-tape limit (the ⊥-padding mask is 64-bit)", m)
	}
	if slices.ContainsFunc(atoms, func(at Atom) bool { return at.Rel.A == nil && at.Rel.cls != nil }) {
		atoms = slices.Clone(atoms)
		for i, at := range atoms {
			if at.Rel.A == nil {
				atoms[i].Rel = at.Rel.Expand()
			}
		}
	}
	for _, at := range atoms {
		if at.Rel.A == nil {
			return nil, fmt.Errorf("relations: atom %s carries character classes and no explicit automaton; compile it first (CompileClassAtoms)", at.Rel.Name)
		}
		if len(at.Pos) != at.Rel.Arity {
			return nil, fmt.Errorf("relations: atom %s has %d positions, arity %d",
				at.Rel.Name, len(at.Pos), at.Rel.Arity)
		}
		for _, p := range at.Pos {
			if p < 0 || p >= m {
				return nil, fmt.Errorf("relations: atom %s references tape %d of %d", at.Rel.Name, p, m)
			}
		}
	}
	return &Joint{M: m, Atoms: atoms}, nil
}

// AcceptsTuple reports whether the m-tuple of strings satisfies every
// atom; the reference semantics used by tests and by the naive evaluator.
func (j *Joint) AcceptsTuple(ss [][]rune) bool {
	if len(ss) != j.M {
		panic("relations: AcceptsTuple arity mismatch")
	}
	for _, at := range j.Atoms {
		proj := make([][]rune, len(at.Pos))
		for c, p := range at.Pos {
			proj[c] = ss[p]
		}
		if !at.Rel.Contains(proj...) {
			return false
		}
	}
	return true
}
