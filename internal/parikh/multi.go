package parikh

import (
	"repro/internal/automata"
	"repro/internal/ilp"
)

// Multi couples the Parikh images of several automata through shared
// count variables: block k contributes its own flow variables and flow
// conservation, and — for every count dimension the block covers (has a
// nonzero weight on some transition) — the block's weighted flow must
// EQUAL the shared count. This implements the conjunctions of existential
// Presburger formulas arising in Theorems 6.7 and 8.5, where one formula
// per query atom constrains a common tuple of length/occurrence
// variables: e.g. the length ℓ_π is simultaneously realized by the graph
// walk of π's atom, by the unary language automaton constraining π, and
// by the mask automaton of every relation involving π.
//
// Variable layout: [0, Dims) shared counts, then each block's flow
// variables consecutively.
type Multi struct {
	Dims    int
	blocks  []*blockSys
	numVars int
}

type blockSys struct {
	offset  int // first flow variable index
	edges   []edge
	nStates int
	src     int
	covers  []int // count dimensions this block must equal
}

// NewMulti returns a system with the given number of shared count
// variables and no blocks.
func NewMulti(dims int) *Multi {
	return &Multi{Dims: dims, numVars: dims}
}

// AddBlock adds an automaton block: an accepted run of n must exist whose
// summed weights equal the shared counts on every dimension in covers.
// Coverage is declared, not inferred: a block covering d with an automaton
// that can contribute nothing to d forces count_d = 0.
func AddBlock[S comparable](m *Multi, n *automata.NFA[S], covers []int, weight func(S) []int64) {
	b := &blockSys{offset: m.numVars, covers: append([]int(nil), covers...)}
	var snk int
	b.edges, b.src, snk = flowEdges(n, m.Dims, weight)
	b.nStates = snk + 1
	m.numVars += len(b.edges)
	m.blocks = append(m.blocks, b)
}

// NumVars returns the total ILP variable count.
func (m *Multi) NumVars() int { return m.numVars }

// Solve searches for a joint assignment: one accepted run per block whose
// summed weights equal the shared counts, subject to the extra
// constraints. Returns the count vector of a witness.
func (m *Multi) Solve(extra []ilp.Constraint, opts ilp.Options) ([]int64, bool, error) {
	p := ilp.Problem{NumVars: m.numVars}
	// Per-block count definitions: for each covered dimension d,
	// count_d − Σ_t w[d]·y_t = 0.
	for _, b := range m.blocks {
		for _, d := range b.covers {
			coef := make([]int64, m.numVars)
			coef[d] = 1
			for i, e := range b.edges {
				coef[b.offset+i] -= e.weight[d]
			}
			p.Add(ilp.Constraint{Coef: coef, Rel: ilp.EQ, RHS: 0})
		}
	}
	// Per-block flow conservation.
	for _, b := range m.blocks {
		snk := b.nStates - 1
		for q := 0; q < b.nStates; q++ {
			coef := make([]int64, m.numVars)
			for i, e := range b.edges {
				if e.to == q {
					coef[b.offset+i]++
				}
				if e.from == q {
					coef[b.offset+i]--
				}
			}
			rhs := int64(0)
			switch q {
			case snk:
				rhs = 1
			case b.src:
				rhs = -1
			}
			p.Add(ilp.Constraint{Coef: coef, Rel: ilp.EQ, RHS: rhs})
		}
	}
	p.Cons = append(p.Cons, extra...)
	userCheck := opts.Check
	opts.Check = func(sol []int64) ([][]ilp.Constraint, bool) {
		for _, b := range m.blocks {
			if branches, ok := connectivityCut(b.edges, b.src, b.offset, m.numVars, sol); !ok {
				return branches, false
			}
		}
		if userCheck != nil {
			return userCheck(sol)
		}
		return nil, true
	}
	sol, ok, err := p.Solve(opts)
	if err != nil || !ok {
		return nil, ok, err
	}
	return sol[:m.Dims], true, nil
}

// AddVars reserves k fresh ILP variables (beyond counts and flows) and
// returns the index of the first; used by callers that need auxiliary
// integer variables in extra constraints (e.g. arithmetic-progression
// offsets in Claim 6.7.2 encodings). Must be called before Solve.
func (m *Multi) AddVars(k int) int {
	base := m.numVars
	m.numVars += k
	return base
}
