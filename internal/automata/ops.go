package automata

import (
	"fmt"
	"strings"
)

// Intersect returns an NFA for L(a) ∩ L(b) via the synchronized product.
// ε-transitions in either factor are handled by interleaving (one side
// moves on ε while the other stays).
func Intersect[S comparable](a, b *NFA[S]) *NFA[S] {
	type pair struct{ qa, qb int }
	out := NewNFA[S]()
	ids := map[pair]int{}
	var todo []pair
	stateOf := func(p pair) int {
		if id, ok := ids[p]; ok {
			return id
		}
		id := out.AddState()
		ids[p] = id
		out.SetFinal(id, a.final[p.qa] && b.final[p.qb])
		todo = append(todo, p)
		return id
	}
	for _, sa := range a.start {
		for _, sb := range b.start {
			out.SetStart(stateOf(pair{sa, sb}))
		}
	}
	for len(todo) > 0 {
		p := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		from := ids[p]
		for _, ra := range a.eps[p.qa] {
			out.AddEps(from, stateOf(pair{ra, p.qb}))
		}
		for _, rb := range b.eps[p.qb] {
			out.AddEps(from, stateOf(pair{p.qa, rb}))
		}
		for sym, tas := range a.trans[p.qa] {
			tbs := b.trans[p.qb][sym]
			for _, ta := range tas {
				for _, tb := range tbs {
					out.AddTransition(from, sym, stateOf(pair{ta, tb}))
				}
			}
		}
	}
	return out
}

// Union returns an NFA for L(a) ∪ L(b) (disjoint union of the automata).
func Union[S comparable](a, b *NFA[S]) *NFA[S] {
	out := a.Clone()
	off := out.AddStates(b.NumStates())
	b.EachTransition(func(from int, sym S, to int) { out.AddTransition(from+off, sym, to+off) })
	for q, es := range b.eps {
		for _, r := range es {
			out.AddEps(q+off, r+off)
		}
	}
	for _, s := range b.start {
		out.SetStart(s + off)
	}
	for q, f := range b.final {
		if f {
			out.SetFinal(q+off, true)
		}
	}
	return out
}

// MapSymbols returns the NFA obtained by renaming every transition symbol
// through f. If f merges symbols the language is the image of L(n) under
// the induced word map; this implements the projection step of the
// paper's constructions (e.g. projecting an m-tape automaton onto a subset
// of tapes, Section 5).
func MapSymbols[S, T comparable](n *NFA[S], f func(S) T) *NFA[T] {
	out := NewNFA[T]()
	out.AddStates(n.NumStates())
	n.EachTransition(func(from int, a S, to int) { out.AddTransition(from, f(a), to) })
	for q, es := range n.eps {
		for _, r := range es {
			out.AddEps(q, r)
		}
	}
	for _, s := range n.start {
		out.SetStart(s)
	}
	for q, fin := range n.final {
		if fin {
			out.SetFinal(q, true)
		}
	}
	return out
}

// Trim returns a copy of n restricted to states that are both reachable
// from a start state and co-reachable to a final state. Products grow
// multiplicatively, so trimming between constructions keeps the paper's
// pipelines (A_Q × Gᵐ, Section 6) tractable in practice.
func Trim[S comparable](n *NFA[S]) *NFA[S] {
	reach := make([]bool, n.NumStates())
	var stack []int
	for _, s := range n.start {
		if !reach[s] {
			reach[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		push := func(r int) {
			if !reach[r] {
				reach[r] = true
				stack = append(stack, r)
			}
		}
		for _, r := range n.eps[q] {
			push(r)
		}
		for _, tos := range n.trans[q] {
			for _, r := range tos {
				push(r)
			}
		}
	}
	// Reverse reachability from finals.
	rev := make([][]int, n.NumStates())
	n.EachTransition(func(from int, _ S, to int) { rev[to] = append(rev[to], from) })
	for q, es := range n.eps {
		for _, r := range es {
			rev[r] = append(rev[r], q)
		}
	}
	co := make([]bool, n.NumStates())
	for q, f := range n.final {
		if f && !co[q] {
			co[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range rev[q] {
			if !co[r] {
				co[r] = true
				stack = append(stack, r)
			}
		}
	}
	keep := make([]int, n.NumStates())
	out := NewNFA[S]()
	for q := range keep {
		if reach[q] && co[q] {
			keep[q] = out.AddState()
		} else {
			keep[q] = -1
		}
	}
	n.EachTransition(func(from int, a S, to int) {
		if keep[from] >= 0 && keep[to] >= 0 {
			out.AddTransition(keep[from], a, keep[to])
		}
	})
	for q, es := range n.eps {
		for _, r := range es {
			if keep[q] >= 0 && keep[r] >= 0 {
				out.AddEps(keep[q], keep[r])
			}
		}
	}
	for _, s := range n.start {
		if keep[s] >= 0 {
			out.SetStart(keep[s])
		}
	}
	for q, f := range n.final {
		if f && keep[q] >= 0 {
			out.SetFinal(keep[q], true)
		}
	}
	return out
}

// DFA is a deterministic, complete automaton over an explicit alphabet.
// State 0..NumStates-1; Delta is total over Alphabet.
type DFA[S comparable] struct {
	Alphabet []S
	Start    int
	Final    []bool
	Delta    []map[S]int
}

// NumStates returns the number of states.
func (d *DFA[S]) NumStates() int { return len(d.Delta) }

// Accepts reports whether the DFA accepts w. Symbols outside the alphabet
// reject.
func (d *DFA[S]) Accepts(w []S) bool {
	q := d.Start
	for _, a := range w {
		nq, ok := d.Delta[q][a]
		if !ok {
			return false
		}
		q = nq
	}
	return d.Final[q]
}

// Determinize converts n to a complete DFA over the given alphabet via the
// subset construction. Symbols of n outside alphabet are ignored.
func Determinize[S comparable](n *NFA[S], alphabet []S) *DFA[S] {
	keyOf := func(states []int) string {
		var b strings.Builder
		for _, q := range states {
			fmt.Fprintf(&b, "%d,", q)
		}
		return b.String()
	}
	d := &DFA[S]{Alphabet: append([]S(nil), alphabet...)}
	ids := map[string]int{}
	var sets [][]int
	stateOf := func(states []int) int {
		k := keyOf(states)
		if id, ok := ids[k]; ok {
			return id
		}
		id := len(d.Delta)
		ids[k] = id
		d.Delta = append(d.Delta, make(map[S]int, len(alphabet)))
		d.Final = append(d.Final, n.containsFinal(states))
		sets = append(sets, states)
		return id
	}
	d.Start = stateOf(n.EpsClosure(n.start))
	for i := 0; i < len(d.Delta); i++ {
		for _, a := range alphabet {
			d.Delta[i][a] = stateOf(n.Step(sets[i], a))
		}
	}
	return d
}

// Complement returns a DFA for the complement of d with respect to
// Alphabet*.
func (d *DFA[S]) Complement() *DFA[S] {
	out := &DFA[S]{Alphabet: d.Alphabet, Start: d.Start, Delta: d.Delta}
	out.Final = make([]bool, len(d.Final))
	for i, f := range d.Final {
		out.Final[i] = !f
	}
	return out
}

// ToNFA converts the DFA to an equivalent NFA.
func (d *DFA[S]) ToNFA() *NFA[S] {
	n := NewNFA[S]()
	n.AddStates(d.NumStates())
	for q, m := range d.Delta {
		for a, r := range m {
			n.AddTransition(q, a, r)
		}
	}
	n.SetStart(d.Start)
	for q, f := range d.Final {
		if f {
			n.SetFinal(q, true)
		}
	}
	return n
}

// Subset reports whether L(a) ⊆ L(b), both considered over the given
// alphabet: it checks emptiness of L(a) ∩ complement(L(b)). This is the
// decision procedure behind RPQ containment (Section 7 of the paper).
func Subset[S comparable](a, b *NFA[S], alphabet []S) bool {
	db := Determinize(b, alphabet)
	comp := db.Complement().ToNFA()
	return Intersect(a, comp).IsEmpty()
}

// Equivalent reports whether L(a) = L(b) over the given alphabet.
func Equivalent[S comparable](a, b *NFA[S], alphabet []S) bool {
	return Subset(a, b, alphabet) && Subset(b, a, alphabet)
}
