package ecrpq

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// startSpace is the start-assignment space of one component execution:
// one sorted candidate list per X variable — a bound variable's single
// node, a confined variable's propagated domain (domains.go), every node
// otherwise — enumerated in mixed-radix order, first variable most
// significant. It is the only enumeration of start assignments: the
// sequential evaluation, the fan-out's chunks, streaming and the delta
// pass all walk it, which is what keeps memo segments, row order and
// chunk boundaries aligned across execution modes.
type startSpace struct {
	vars  []NodeVar
	lists [][]graph.Node

	// forRange's odometer and the assignment it hands out, kept between
	// calls: an engine's space enumerates once per evaluation or chunk.
	digits []int
	assign map[NodeVar]graph.Node
}

// size is the number of assignments, saturating at MaxUint64 (a space
// nobody can finish enumerating; forRange still walks it in order).
func (sp *startSpace) size() uint64 {
	total := uint64(1)
	for _, l := range sp.lists {
		hi, lo := bits.Mul64(total, uint64(len(l)))
		if hi != 0 {
			return math.MaxUint64
		}
		total = lo
	}
	return total
}

// forRange calls f for the assignments with dense indices [lo, hi) in
// enumeration order, stopping early at the end of the space or on f's
// first error. The assign map is reused between calls.
func (sp *startSpace) forRange(lo, hi uint64, f func(idx uint64, assign map[NodeVar]graph.Node) error) error {
	k := len(sp.vars)
	if lo >= hi || slices.ContainsFunc(sp.lists, func(l []graph.Node) bool { return len(l) == 0 }) {
		return nil
	}
	// Decode lo once, least significant variable first; from there the
	// digits advance like an odometer.
	if sp.assign == nil {
		sp.digits, sp.assign = make([]int, k), make(map[NodeVar]graph.Node, k)
	}
	digits, assign := sp.digits, sp.assign
	rem := lo
	for i := k - 1; i >= 0; i-- {
		n := uint64(len(sp.lists[i]))
		digits[i] = int(rem % n)
		rem /= n
	}
	if rem != 0 {
		return nil // lo is past the end of the space
	}
	for i, v := range sp.vars {
		assign[v] = sp.lists[i][digits[i]]
	}
	for idx := lo; idx < hi; idx++ {
		if err := f(idx, assign); err != nil {
			return err
		}
		i := k - 1
		for ; i >= 0; i-- {
			digits[i]++
			if digits[i] < len(sp.lists[i]) {
				assign[sp.vars[i]] = sp.lists[i][digits[i]]
				break
			}
			digits[i] = 0
			assign[sp.vars[i]] = sp.lists[i][0]
		}
		if i < 0 {
			return nil // wrapped: the space is exhausted
		}
	}
	return nil
}

// indexOf returns the dense index of the assignment in the space, or
// false when some variable's node is not among its candidates. Candidate
// lists are sorted, so each variable is one binary search.
func (sp *startSpace) indexOf(assign map[NodeVar]graph.Node) (uint64, bool) {
	idx := uint64(0)
	for i, v := range sp.vars {
		d, ok := slices.BinarySearch(sp.lists[i], assign[v])
		if !ok {
			return 0, false
		}
		idx = idx*uint64(len(sp.lists[i])) + uint64(d)
	}
	return idx, true
}

// nodeRange returns the nodes 0..n-1 — the candidate list of an
// unconfined start variable — reusing buf when it already holds them.
func nodeRange(buf []graph.Node, n int) []graph.Node {
	if len(buf) != n {
		buf = buf[:0]
		for i := 0; i < n; i++ {
			buf = append(buf, graph.Node(i))
		}
	}
	return buf
}
