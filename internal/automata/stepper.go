package automata

import "sort"

// Stepper performs repeated subset-construction steps over one NFA with
// reusable scratch space. NFA.Step allocates a visited map and result
// slice per call; on hot paths (the joint relation stepper of package
// relations, determinization loops) that dominates the profile. A
// Stepper amortizes: one boolean mark array sized to the automaton and
// one growable buffer serve every call.
//
// A Stepper is not safe for concurrent use; create one per goroutine.
type Stepper[S comparable] struct {
	n    *NFA[S]
	mark []bool
	buf  []int
}

// NewStepper returns a stepper for n. The automaton must not gain states
// after the stepper is created.
func NewStepper[S comparable](n *NFA[S]) *Stepper[S] {
	return &Stepper[S]{n: n, mark: make([]bool, n.NumStates())}
}

// Step returns the ε-closed successor set of the ε-closed state set
// under symbol a, sorted and deduplicated. The returned slice aliases
// the stepper's scratch buffer and is only valid until the next Step
// call; copy it (or intern it) to retain.
func (st *Stepper[S]) Step(states []int, a S) []int {
	buf := st.buf[:0]
	for _, q := range states {
		for _, r := range st.n.trans[q][a] {
			if !st.mark[r] {
				st.mark[r] = true
				buf = append(buf, r)
			}
		}
	}
	// ε-closure: buf doubles as the work stack; newly reached states are
	// appended and processed in turn.
	for i := 0; i < len(buf); i++ {
		for _, r := range st.n.eps[buf[i]] {
			if !st.mark[r] {
				st.mark[r] = true
				buf = append(buf, r)
			}
		}
	}
	for _, q := range buf {
		st.mark[q] = false
	}
	sort.Ints(buf)
	st.buf = buf
	return buf
}
