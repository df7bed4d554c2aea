package relations

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/automata"
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

// Joint implements the m-ary joined relation S_Q = S₁(ω̄₁) ⋈ … ⋈ S_t(ω̄_t)
// of Section 5 as a deterministic on-the-fly stepper: states are tuples
// of subset-states of the constituent synchronous automata plus the
// per-tape padding mask, and stepping by an m-tuple symbol advances every
// automaton by the projection of the symbol onto its tapes.
//
// This avoids materializing the automaton A_Q, whose explicit size is the
// product of the constituent automata (exponential in the query,
// Lemma 6.4) over an alphabet of size |Σ⊥|^m; evaluation only ever touches
// the states reachable from the tuple symbols that actually occur in Gᵐ.
type Joint struct {
	M     int
	Atoms []Atom
}

// NewJoint validates atom arities/positions and returns the joint stepper.
// m is capped at 64 tapes: the padding state is a 64-bit mask, and a
// silent wrap of `1 << i` past bit 63 would corrupt the padding
// discipline, so larger joins are rejected up front. An atom in class
// form that CompileClassAtoms has not compiled is spelled over its labels
// (Relation.Expand) in the joint's own copy of the atoms.
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

// JointState is a deterministic state of the joint stepper: the
// subset-state of each constituent automaton plus the mask of finished
// (⊥-padded) tapes. States are value-comparable via Key.
type JointState struct {
	sets [][]int // per atom: sorted subset of NFA states
	done uint64  // bit i set: tape i has started reading ⊥
}

// Key returns a hashable encoding of the state.
func (s JointState) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%x|", s.done)
	for _, set := range s.sets {
		for _, q := range set {
			fmt.Fprintf(&b, "%d,", q)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// Start returns the initial joint state.
func (j *Joint) Start() JointState {
	s := JointState{sets: make([][]int, len(j.Atoms))}
	for i, at := range j.Atoms {
		s.sets[i] = at.Rel.A.EpsClosure(at.Rel.A.Start())
	}
	return s
}

// Step advances the joint state by the m-tuple symbol. ok = false means
// the symbol leads to a dead state (some automaton has no continuation,
// or the padding discipline is violated, or the symbol is all-⊥).
func (j *Joint) Step(s JointState, sym TupleSym) (JointState, bool) {
	rs := []rune(sym)
	if len(rs) != j.M {
		panic(fmt.Sprintf("relations: symbol %q has %d components, want %d", sym, len(rs), j.M))
	}
	all := true
	done := s.done
	for i, r := range rs {
		if r == Bot {
			done |= 1 << i
		} else {
			if s.done&(1<<i) != 0 {
				return JointState{}, false // non-⊥ after padding started
			}
			all = false
		}
	}
	if all {
		return JointState{}, false
	}
	next := JointState{sets: make([][]int, len(j.Atoms)), done: done}
	for i, at := range j.Atoms {
		proj := make([]rune, len(at.Pos))
		allBot := true
		for c, p := range at.Pos {
			proj[c] = rs[p]
			if rs[p] != Bot {
				allBot = false
			}
		}
		if allBot {
			// All of this atom's tapes have finished; the atom's automaton
			// does not consume the all-⊥ projection (its own convolution
			// has ended), so its state set is unchanged.
			next.sets[i] = s.sets[i]
			continue
		}
		stepped := at.Rel.A.Step(s.sets[i], string(proj))
		if len(stepped) == 0 {
			return JointState{}, false
		}
		next.sets[i] = stepped
	}
	return next, true
}

// Accepting reports whether the joint state is accepting: every
// constituent automaton can accept its consumed projection.
func (j *Joint) Accepting(s JointState) bool {
	for i, at := range j.Atoms {
		ok := false
		for _, q := range s.sets[i] {
			if at.Rel.A.IsFinal(q) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
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

// Materialize builds the explicit automaton A_Q over the m-tuple alphabet
// restricted to the given symbols (plus any needed padding successors).
// Used by the answer-automaton construction of Proposition 5.2 and by
// tests; evaluation itself uses Step directly.
func (j *Joint) Materialize(symbols []TupleSym) *automata.NFA[TupleSym] {
	r := NewJointRunner(j)
	symIDs := make([]int, len(symbols))
	for i, sym := range symbols {
		symIDs[i] = r.AddSym([]rune(sym))
	}
	n := automata.NewNFA[TupleSym]()
	// Dense joint-state ids double as NFA state ids: the runner interns
	// states in first-reached order, matching the BFS below.
	n.AddState()
	n.SetFinal(0, r.Accepting(r.StartID()))
	n.SetStart(0)
	for from := 0; from < r.NumStates(); from++ {
		for i, sid := range symIDs {
			if to, ok := r.Step(from, sid); ok {
				for to >= n.NumStates() {
					q := n.AddState()
					n.SetFinal(q, r.Accepting(q))
				}
				n.AddTransition(from, symbols[i], to)
			}
		}
	}
	return n
}
