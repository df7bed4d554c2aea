package relations

import (
	"fmt"

	"repro/internal/automata"
)

// EditDistance returns the binary relation D≤k = {(x,y) : de(x,y) ≤ k}
// with the standard edit operations of insertion, deletion and
// substitution (Section 4 of the paper). D≤k is regular because the
// length difference of related strings is bounded by k, so the rational
// edit transducer has bounded delay and can be synchronized
// (Frougny–Sakarovitch 1991); this function performs that synchronization
// constructively.
//
// Construction. The synchronous automaton reads one symbol of x and one
// of y per step (⊥ after a string ends). A state is (e, buf) where e ≤ k
// is the number of edits committed so far and buf holds the symbols of
// the tape that is "ahead" — consumed from the input but not yet aligned;
// sideX records which tape the buffer belongs to. The canonical invariant
// is that only one tape buffers: whenever both tapes have pending
// symbols, an alignment decision for the two heads (match, substitute,
// delete or insert) can be committed immediately, because alignments are
// monotone. Buffers never exceed k symbols: every unit of buffer imbalance
// eventually costs one insertion or deletion. A state accepts iff the
// remaining buffer can be disposed of within budget: e + len(buf) ≤ k.
//
// The automaton has O(k·|Σ|^k) states and is validated against the
// textbook dynamic-programming edit distance by property tests.
func EditDistance(sigma []rune, k int) *Relation {
	if k < 0 {
		panic("relations: EditDistance needs k ≥ 0")
	}
	type state struct {
		e     int    // edits used
		sideX bool   // true: buf holds pending x-symbols; false: pending y
		buf   string // pending symbols, |buf| ≤ k
	}
	n := automata.NewNFA[TupleSym]()
	ids := map[state]int{}
	var todo []state
	stateOf := func(s state) int {
		if s.buf == "" {
			s.sideX = true // normalize empty buffer
		}
		if id, ok := ids[s]; ok {
			return id
		}
		id := n.AddState()
		ids[s] = id
		n.SetFinal(id, s.e+len([]rune(s.buf)) <= k)
		todo = append(todo, s)
		return id
	}
	start := stateOf(state{})
	n.SetStart(start)

	// successors computes the canonical states reachable from (e, bufX,
	// bufY) by committing zero or more alignment operations, where at most
	// one of bufX/bufY is allowed to remain nonempty and no buffer may
	// exceed k.
	type raw struct {
		e          int
		bufX, bufY string
	}
	var closure func(r raw, out map[state]bool, seen map[raw]bool)
	closure = func(r raw, out map[state]bool, seen map[raw]bool) {
		// Buffers may transiently hold k+1 symbols right after the incoming
		// pair is pushed; canonical (emitted) states are capped at k below.
		if r.e > k || len([]rune(r.bufX)) > k+1 || len([]rune(r.bufY)) > k+1 || seen[r] {
			return
		}
		seen[r] = true
		if (r.bufX == "" && len([]rune(r.bufY)) <= k) || (r.bufY == "" && len([]rune(r.bufX)) <= k) {
			s := state{e: r.e}
			if r.bufX != "" {
				s.sideX, s.buf = true, r.bufX
			} else {
				s.sideX, s.buf = false, r.bufY
			}
			out[s] = true
		}
		bx, by := []rune(r.bufX), []rune(r.bufY)
		if len(bx) > 0 && len(by) > 0 {
			cost := 0
			if bx[0] != by[0] {
				cost = 1 // substitution
			}
			closure(raw{r.e + cost, string(bx[1:]), string(by[1:])}, out, seen)
		}
		if len(bx) > 0 { // delete head of x
			closure(raw{r.e + 1, string(bx[1:]), r.bufY}, out, seen)
		}
		if len(by) > 0 { // insert head of y
			closure(raw{r.e + 1, r.bufX, string(by[1:])}, out, seen)
		}
	}

	for len(todo) > 0 {
		s := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		from := ids[s]
		ext := append([]rune{Bot}, sigma...)
		for _, a := range ext {
			for _, b := range ext {
				if a == Bot && b == Bot {
					continue // never occurs in a proper convolution
				}
				r := raw{e: s.e}
				if s.sideX {
					r.bufX = s.buf
				} else {
					r.bufY = s.buf
				}
				if a != Bot {
					r.bufX += string(a)
				}
				if b != Bot {
					r.bufY += string(b)
				}
				out := map[state]bool{}
				closure(r, out, map[raw]bool{})
				for t := range out {
					n.AddTransition(from, makeSym(a, b), stateOf(t))
				}
			}
		}
	}
	return &Relation{Name: fmt.Sprintf("editdist≤%d", k), Arity: 2, A: n}
}

// EditDistanceDP computes the exact edit distance between x and y by the
// textbook dynamic program; the oracle used by tests and by the alignment
// package.
func EditDistanceDP(x, y []rune) int {
	m, n := len(x), len(y)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		prev[j] = j
	}
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if x[i-1] == y[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[n]
}
