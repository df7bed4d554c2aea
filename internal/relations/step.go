package relations

import (
	"math/bits"
	"unicode/utf8"

	"repro/internal/automata"
)

// atomStep is the integer subset step of one atom's automaton. The
// runner steps a subset by a symbol's projection onto the atom's tapes;
// here a projection is a column, built once when a symbol first projects
// to it (AddSym): the transitions on the projection, as (state, target)
// pairs in state order. A step marks the subset's members in a bitset,
// marks the targets of the column's pairs whose state is marked in a
// second one, closes that over the ε-edges, and scans it in order — no
// map lookup and no sort on the hot path.
type atomStep struct {
	a  *automata.NFA[TupleSym]
	co []uint64 // the co-reachable states

	// colOf maps a projection to its column, colDead when no state reads
	// it. Column c's pairs are edges[start[c]:start[c+1]], state and
	// target interleaved.
	colOf map[TupleSym]int32
	start []int32
	edges []int32

	in    []uint64 // scratch: the members of the subset being stepped
	acc   []uint64 // scratch: the stepped subset
	buf   []int    // scratch: the stepped subset, sorted
	stack []int    // scratch: the ε-walk
	key   []byte   // scratch: a projection's encoding
}

// Column ids of a symbol's projection beside the real ones: colDead
// leads nowhere, and colAllBot leaves the atom's subset as it is (every
// tape of the atom has finished).
const (
	colDead   = -1
	colAllBot = -2
)

func newAtomStep(a *automata.NFA[TupleSym], coReach []bool) atomStep {
	w := (a.NumStates() + 63) / 64
	s := atomStep{a: a, co: make([]uint64, w), in: make([]uint64, w),
		acc: make([]uint64, w), colOf: make(map[TupleSym]int32), start: []int32{0}}
	for q, ok := range coReach {
		if ok {
			s.co[q/64] |= 1 << (q % 64)
		}
	}
	return s
}

// walk closes set over the ε-edges, starting from the states on the
// stack, each of which set already holds.
func (s *atomStep) walk(set []uint64) {
	for len(s.stack) > 0 {
		q := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, r := range s.a.EpsSuccessors(q) {
			if set[r/64]&(1<<(r%64)) == 0 {
				set[r/64] |= 1 << (r % 64)
				s.stack = append(s.stack, r)
			}
		}
	}
}

// column returns the column of the projection proj, building it on first
// use.
func (s *atomStep) column(proj []rune) int32 {
	s.key = s.key[:0]
	for _, c := range proj {
		s.key = utf8.AppendRune(s.key, c)
	}
	if c, ok := s.colOf[string(s.key)]; ok {
		return c
	}
	sym := TupleSym(s.key)
	base := len(s.edges)
	for q := 0; q < s.a.NumStates(); q++ {
		for _, t := range s.a.Successors(q, sym) {
			s.edges = append(s.edges, int32(q), int32(t))
		}
	}
	c := int32(colDead)
	if len(s.edges) > base {
		c = int32(len(s.start) - 1)
		s.start = append(s.start, int32(len(s.edges)))
	}
	s.colOf[sym] = c
	return c
}

// step returns the ε-closed successor set of the ε-closed subset set by
// column col, sorted, or ok=false when it has no co-reachable member
// (dead-state elimination: the whole joint state would be stillborn).
// The result aliases scratch and is valid until the next step.
func (s *atomStep) step(set []int, col int32) ([]int, bool) {
	in, acc := s.in, s.acc
	for _, q := range set {
		in[uint(q)/64] |= 1 << (uint(q) % 64)
	}
	clear(acc)
	for e, edges := 0, s.edges[s.start[col]:s.start[col+1]]; e < len(edges); e += 2 {
		q, t := uint32(edges[e]), uint32(edges[e+1])
		if in[q/64]&(1<<(q%64)) != 0 && acc[t/64]&(1<<(t%64)) == 0 {
			acc[t/64] |= 1 << (t % 64)
			s.stack = append(s.stack, int(t))
		}
	}
	s.walk(acc)
	clear(in)
	live := false
	for i, x := range acc {
		if x&s.co[i] != 0 {
			live = true
			break
		}
	}
	if !live {
		return nil, false
	}
	buf := s.buf[:0]
	for i, x := range acc {
		for ; x != 0; x &= x - 1 {
			buf = append(buf, i*64+bits.TrailingZeros64(x))
		}
	}
	s.buf = buf
	return buf, true
}
