package relations

import (
	"strings"

	"repro/internal/automata"
	"repro/internal/regex"
)

// LiveSet describes, for one tape of a joint state, which moves can
// possibly advance the joint relation toward acceptance. The product-BFS
// evaluator intersects it with the labels actually present at the tape's
// current graph node, so move enumeration scales with the automaton's
// selectivity instead of raw degree.
type LiveSet struct {
	// All means no atom constrains the tape: every graph label is live.
	All bool
	// Bot means the ⊥ stay-move is admissible on the tape (a finished
	// tape admits only ⊥; an unfinished one admits ⊥ unless padding it
	// would freeze a non-accepting single-tape obligation forever).
	Bot bool
	// Labels holds the live non-⊥ labels, sorted, when All is false. An
	// empty set with Bot false means the tape — and with it the whole
	// state — is dead: no move from it can reach acceptance.
	Labels []rune
}

// String renders the set compactly for Explain-style output: "*" for an
// unconstrained tape, otherwise the live labels joined by "|" with "⊥"
// appended when the stay-move is admissible; "∅" marks a dead tape.
func (ls LiveSet) String() string {
	if ls.All {
		return "*"
	}
	var b strings.Builder
	for _, r := range ls.Labels {
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		b.WriteRune(r)
	}
	if ls.Bot {
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		b.WriteRune('⊥')
	}
	if b.Len() == 0 {
		return "∅"
	}
	return b.String()
}

// atomLiveInfo holds the per-atom label analysis backing Live: the
// static per-NFA-state tables built at runner construction, plus the
// per-interned-subset memos grown lazily as subsets appear.
type atomLiveInfo struct {
	coReach []bool
	// stateLive[q][c] lists, sorted, the non-⊥ runes at coordinate c of
	// symbols on transitions from q to a co-reachable target — the runes
	// that can advance the atom out of q without entering a dead end.
	stateLive [][][]rune

	// Per interned subset id (aligned with JointRunner.subsets[ai]):
	setLive  [][][]rune // union of stateLive over the subset's states
	setCo    []int8     // 0 unknown, 1 has co-reachable member, 2 none
	setFinal []int8     // 0 unknown, 1 has accepting member, 2 none
}

// newAtomLiveInfo builds the static tables of an atom with automaton a.
// When part is set the automaton reads raw labels and the joint class
// runes of part, so stateLive lists the classes of the labels.
func newAtomLiveInfo(a *automata.NFA[TupleSym], arity int, part *regex.Partition) atomLiveInfo {
	co := automata.CoReachable(a)
	al := atomLiveInfo{coReach: co, stateLive: make([][][]rune, a.NumStates())}
	acc := make([]regex.RuneSet, arity) // per coordinate: runes gathered from q
	for q := range al.stateLive {
		for c := range acc {
			acc[c].Reset()
		}
		a.TransitionsFrom(q, func(sym TupleSym, to int) {
			if !co[to] {
				return
			}
			c := 0
			for _, r := range sym {
				if r != Bot {
					if part != nil {
						r = part.ClassOf(r)
					}
					acc[c].Add(r)
				}
				c++
			}
		})
		per := make([][]rune, arity)
		for c := range acc {
			per[c] = acc[c].Sorted()
		}
		al.stateLive[q] = per
	}
	return al
}

// ensure grows the per-subset memos to cover setID.
func (al *atomLiveInfo) ensure(setID int) {
	for len(al.setLive) <= setID {
		al.setLive = append(al.setLive, nil)
		al.setCo = append(al.setCo, 0)
		al.setFinal = append(al.setFinal, 0)
	}
}

// anyCoReachable reports whether subset set has a co-reachable member.
func (al *atomLiveInfo) anyCoReachable(set []int) bool {
	for _, q := range set {
		if al.coReach[q] {
			return true
		}
	}
	return false
}

// subsetCoReachable is anyCoReachable memoized per interned subset id.
func (r *JointRunner) subsetCoReachable(ai, setID int) bool {
	al := &r.live[ai]
	al.ensure(setID)
	if v := al.setCo[setID]; v != 0 {
		return v == 1
	}
	ok := al.anyCoReachable(r.subsets[ai].At(setID))
	if ok {
		al.setCo[setID] = 1
	} else {
		al.setCo[setID] = 2
	}
	return ok
}

// subsetFinal reports (memoized) whether subset setID of atom ai
// contains an accepting NFA state.
func (r *JointRunner) subsetFinal(ai, setID int) bool {
	al := &r.live[ai]
	al.ensure(setID)
	if v := al.setFinal[setID]; v != 0 {
		return v == 1
	}
	a := r.J.Atoms[ai].Rel.A
	ok := false
	for _, q := range r.subsets[ai].At(setID) {
		if a.IsFinal(q) {
			ok = true
			break
		}
	}
	if ok {
		al.setFinal[setID] = 1
	} else {
		al.setFinal[setID] = 2
	}
	return ok
}

// atomSetLive returns the live runes of subset setID of atom ai at
// coordinate c: the union over the subset's states of stateLive,
// computed once per subset and memoized.
func (r *JointRunner) atomSetLive(ai, setID, c int) []rune {
	al := &r.live[ai]
	al.ensure(setID)
	if al.setLive[setID] == nil {
		arity := len(r.J.Atoms[ai].Pos)
		per := make([][]rune, arity)
		set := r.subsets[ai].At(setID)
		var acc regex.RuneSet
		for cc := 0; cc < arity; cc++ {
			acc.Reset()
			for _, q := range set {
				for _, x := range al.stateLive[q][cc] {
					acc.Add(x)
				}
			}
			per[cc] = acc.Sorted()
		}
		al.setLive[setID] = per
	}
	return al.setLive[setID][c]
}

// intersectRunes intersects two sorted rune slices into a fresh slice.
func intersectRunes(a, b []rune) []rune {
	var out []rune
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Live returns, per tape, the set of moves that can possibly advance the
// joint state toward acceptance — the guide of the label-directed
// product BFS. The result is memoized per state and shared; callers must
// not modify it. Like Step, Live is not safe for concurrent use.
//
// Soundness: any m-tuple symbol that Steps from state to a state from
// which acceptance is reachable has, at every tape, either a label in
// that tape's LiveSet or ⊥ with Bot true — so enumerating only live
// moves visits every product state that can contribute an answer, in the
// same order the exhaustive enumeration would.
func (r *JointRunner) Live(state int) []LiveSet {
	if ls := r.liveTab[state]; ls != nil {
		return ls
	}
	ls := r.computeLive(state)
	r.liveTab[state] = ls
	return ls
}

func (r *JointRunner) computeLive(state int) []LiveSet {
	// r.states.At aliases table storage; nothing below interns new joint
	// states (only per-atom memos grow), so reading tup throughout is
	// safe.
	tup := r.states.At(state)
	done := uint64(tup[0])
	m := r.J.M
	out := make([]LiveSet, m)
	for ai, at := range r.J.Atoms {
		if !r.subsetCoReachable(ai, tup[1+ai]) {
			// Dead state: some atom can never accept again. Every tape's
			// zero LiveSet (no labels, no ⊥) tells the BFS to expand
			// nothing.
			return out
		}
		frozen := true
		for _, p := range at.Pos {
			if done&(1<<uint(p)) == 0 {
				frozen = false
				break
			}
		}
		if frozen && !r.subsetFinal(ai, tup[1+ai]) {
			// Every tape of the atom is ⊥-padded but its subset does not
			// accept: the obligation is stranded forever.
			return out
		}
	}
	for p := 0; p < m; p++ {
		if done&(1<<uint(p)) != 0 {
			out[p] = LiveSet{Bot: true}
			continue
		}
		ls := LiveSet{All: true, Bot: true}
		for ai, at := range r.J.Atoms {
			covers := false
			for c, pos := range at.Pos {
				if pos != p {
					continue
				}
				covers = true
				lab := r.atomSetLive(ai, tup[1+ai], c)
				if ls.All {
					ls.All = false
					ls.Labels = lab
				} else {
					ls.Labels = intersectRunes(ls.Labels, lab)
				}
			}
			if !covers || !ls.Bot {
				continue
			}
			// ⊥ on tape p keeps this atom viable iff another of its tapes
			// can still advance it later, or its subset already accepts
			// (freezing an accepting obligation is harmless). Otherwise a
			// ⊥ here strands the atom before acceptance forever.
			viable := false
			for _, q := range at.Pos {
				if q != p && done&(1<<uint(q)) == 0 {
					viable = true
					break
				}
			}
			if !viable && !r.subsetFinal(ai, tup[1+ai]) {
				ls.Bot = false
			}
		}
		out[p] = ls
	}
	return out
}
