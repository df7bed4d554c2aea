// Package automata provides nondeterministic and deterministic finite
// automata over arbitrary comparable symbol types, together with the
// constructions the ECRPQ paper relies on: a linear construction from
// regular expressions that merges fragment states while it builds (see
// FromRegex), products, boolean operations via determinization,
// minimization, emptiness and witness extraction, symbol mapping
// (projection/cylindrification of synchronous multi-tape automata), and
// analysis of unary automata as ultimately periodic length sets
// (Chrobak 1986 / To 2009, used by Claim 6.7.2 of the paper).
//
// Automata over tuple alphabets (Σ⊥)ⁿ — the paper's letter-to-letter
// synchronous automata recognizing n-ary regular relations — instantiate
// S = string with each symbol a string of n runes; see package relations.
package automata

import (
	"fmt"
	"sort"
)

// NFA is a nondeterministic finite automaton with ε-transitions over
// symbols of type S. States are dense integers 0..NumStates()-1. Multiple
// start states are allowed, which keeps graph-database-as-automaton views
// (Section 2 of the paper) natural.
type NFA[S comparable] struct {
	trans []map[S][]int // trans[q][a] = successor states
	eps   [][]int       // eps[q] = ε-successor states
	start []int
	final []bool
}

// NewNFA returns an empty automaton with no states.
func NewNFA[S comparable]() *NFA[S] { return &NFA[S]{} }

// NumStates returns the number of states.
func (n *NFA[S]) NumStates() int { return len(n.trans) }

// AddState adds a fresh state and returns its id.
func (n *NFA[S]) AddState() int {
	n.trans = append(n.trans, nil)
	n.eps = append(n.eps, nil)
	n.final = append(n.final, false)
	return len(n.trans) - 1
}

// AddStates adds k fresh states, returning the id of the first.
func (n *NFA[S]) AddStates(k int) int {
	first := n.NumStates()
	for i := 0; i < k; i++ {
		n.AddState()
	}
	return first
}

// AddTransition adds the transition from --a--> to.
func (n *NFA[S]) AddTransition(from int, a S, to int) {
	if n.trans[from] == nil {
		n.trans[from] = make(map[S][]int)
	}
	n.trans[from][a] = append(n.trans[from][a], to)
}

// AddEps adds an ε-transition from → to.
func (n *NFA[S]) AddEps(from, to int) { n.eps[from] = append(n.eps[from], to) }

// SetStart marks q as a start state.
func (n *NFA[S]) SetStart(q int) { n.start = append(n.start, q) }

// SetFinal marks or unmarks q as accepting.
func (n *NFA[S]) SetFinal(q int, accepting bool) { n.final[q] = accepting }

// ClearFinal unmarks all accepting states.
func (n *NFA[S]) ClearFinal() {
	for i := range n.final {
		n.final[i] = false
	}
}

// Start returns the start states (shared slice; do not modify).
func (n *NFA[S]) Start() []int { return n.start }

// IsFinal reports whether q is accepting.
func (n *NFA[S]) IsFinal(q int) bool { return n.final[q] }

// FinalStates returns the accepting states in increasing order.
func (n *NFA[S]) FinalStates() []int {
	var out []int
	for q, f := range n.final {
		if f {
			out = append(out, q)
		}
	}
	return out
}

// Successors returns the states reachable from q by symbol a (shared
// slice; do not modify).
func (n *NFA[S]) Successors(q int, a S) []int { return n.trans[q][a] }

// EpsSuccessors returns the ε-successors of q (shared slice).
func (n *NFA[S]) EpsSuccessors(q int) []int { return n.eps[q] }

// TransitionsFrom calls f for every labeled transition leaving q.
func (n *NFA[S]) TransitionsFrom(q int, f func(a S, to int)) {
	for a, tos := range n.trans[q] {
		for _, to := range tos {
			f(a, to)
		}
	}
}

// EachTransition calls f for every labeled transition in the automaton.
func (n *NFA[S]) EachTransition(f func(from int, a S, to int)) {
	for q := range n.trans {
		for a, tos := range n.trans[q] {
			for _, to := range tos {
				f(q, a, to)
			}
		}
	}
}

// NumTransitions returns the number of labeled (non-ε) transitions.
func (n *NFA[S]) NumTransitions() int {
	c := 0
	n.EachTransition(func(int, S, int) { c++ })
	return c
}

// EachSymbol calls f for every (state, symbol) pair with a transition,
// in unspecified order: each symbol used on transitions is visited at
// least once (once per state that uses it). Callers that only need to see
// every symbol use it in place of Alphabet, which materialises the set.
func (n *NFA[S]) EachSymbol(f func(a S)) {
	for q := range n.trans {
		for a := range n.trans[q] {
			f(a)
		}
	}
}

// Alphabet returns the set of symbols used on transitions, deduplicated,
// in unspecified order.
func (n *NFA[S]) Alphabet() []S {
	seen := map[S]bool{}
	var out []S
	for q := range n.trans {
		for a := range n.trans[q] {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// EpsClosure expands the state set to its ε-closure. The input slice is
// not modified; the result is sorted and deduplicated.
func (n *NFA[S]) EpsClosure(states []int) []int {
	seen := make(map[int]bool, len(states))
	stack := append([]int(nil), states...)
	for _, q := range stack {
		seen[q] = true
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range n.eps[q] {
			if !seen[r] {
				seen[r] = true
				stack = append(stack, r)
			}
		}
	}
	return sortedKeys(seen)
}

// Step returns the ε-closed successor set of the ε-closed set states under
// symbol a.
func (n *NFA[S]) Step(states []int, a S) []int {
	seen := map[int]bool{}
	for _, q := range states {
		for _, r := range n.trans[q][a] {
			seen[r] = true
		}
	}
	return n.EpsClosure(sortedKeys(seen))
}

// Accepts reports whether the automaton accepts the word w.
func (n *NFA[S]) Accepts(w []S) bool {
	cur := n.EpsClosure(n.start)
	for _, a := range w {
		if len(cur) == 0 {
			return false
		}
		cur = n.Step(cur, a)
	}
	for _, q := range cur {
		if n.final[q] {
			return true
		}
	}
	return false
}

// containsFinal reports whether any state in the sorted set is accepting.
func (n *NFA[S]) containsFinal(states []int) bool {
	for _, q := range states {
		if n.final[q] {
			return true
		}
	}
	return false
}

// IsEmpty reports whether the accepted language is empty.
func (n *NFA[S]) IsEmpty() bool {
	_, ok := n.ShortestAccepted()
	return !ok
}

// ShortestAccepted returns a shortest accepted word, or ok=false if the
// language is empty. Ties are broken arbitrarily but deterministically for
// a fixed automaton. ε-transitions contribute no symbols, so the search is
// a 0-1 BFS: ε-successors are expanded at the current distance before any
// symbol transition is taken.
func (n *NFA[S]) ShortestAccepted() ([]S, bool) {
	type pred struct {
		state int
		sym   S
		has   bool // true if the edge into this state consumed sym
	}
	preds := make([]pred, n.NumStates())
	visited := make([]bool, n.NumStates())
	// Deque for 0-1 BFS: ε edges pushed to the front, symbol edges to the
	// back. Implemented as two stacks per level: simpler here, expand the
	// ε-closure of each newly visited state eagerly (all at the same word
	// length), then process symbol edges FIFO.
	var queue []int
	var addClosed func(q int, p pred)
	addClosed = func(q int, p pred) {
		if visited[q] {
			return
		}
		visited[q] = true
		preds[q] = p
		queue = append(queue, q)
		for _, r := range n.eps[q] {
			addClosed(r, pred{state: q, has: false})
		}
	}
	for _, q := range n.start {
		addClosed(q, pred{state: -1, has: false})
	}
	for head := 0; head < len(queue); head++ {
		q := queue[head]
		if n.final[q] {
			var rev []S
			for cur := q; cur != -1; {
				p := preds[cur]
				if p.has {
					rev = append(rev, p.sym)
				}
				cur = p.state
			}
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return rev, true
		}
		for a, tos := range n.trans[q] {
			for _, to := range tos {
				addClosed(to, pred{state: q, sym: a, has: true})
			}
		}
	}
	return nil, false
}

// EnumerateAccepted returns up to limit accepted words of length at most
// maxLen, in order of nondecreasing length. It is a breadth-first search
// over subset states and runs in time proportional to the number of
// distinct prefixes explored.
func (n *NFA[S]) EnumerateAccepted(limit, maxLen int) [][]S {
	type item struct {
		states []int
		word   []S
	}
	var out [][]S
	cur := []item{{states: n.EpsClosure(n.start)}}
	if n.containsFinal(cur[0].states) {
		out = append(out, []S{})
	}
	// Collect alphabet once.
	alpha := n.Alphabet()
	for depth := 0; depth < maxLen && len(out) < limit && len(cur) > 0; depth++ {
		// Deduplicate frontier by state set to avoid exponential blowup of
		// identical subsets with different words: we must NOT dedupe,
		// because different words matter. Instead we cap the frontier.
		var next []item
		for _, it := range cur {
			for _, a := range alpha {
				ns := n.Step(it.states, a)
				if len(ns) == 0 {
					continue
				}
				w := append(append([]S(nil), it.word...), a)
				next = append(next, item{states: ns, word: w})
				if n.containsFinal(ns) {
					out = append(out, w)
					if len(out) >= limit {
						return out
					}
				}
			}
		}
		cur = next
	}
	return out
}

// Clone returns a deep copy.
func (n *NFA[S]) Clone() *NFA[S] {
	m := NewNFA[S]()
	m.AddStates(n.NumStates())
	n.EachTransition(func(from int, a S, to int) { m.AddTransition(from, a, to) })
	for q, es := range n.eps {
		for _, r := range es {
			m.AddEps(q, r)
		}
	}
	m.start = append([]int(nil), n.start...)
	copy(m.final, n.final)
	return m
}

// String renders a compact description, useful in test failures.
func (n *NFA[S]) String() string {
	return fmt.Sprintf("NFA{states:%d, trans:%d, start:%v, final:%v}",
		n.NumStates(), n.NumTransitions(), n.start, n.FinalStates())
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
