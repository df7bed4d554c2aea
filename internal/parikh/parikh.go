// Package parikh decides queries about Parikh images of regular
// languages: does some accepted word have a given vector of symbol counts
// (or lengths) satisfying linear constraints?
//
// The paper relies on Parikh-style reasoning twice. Theorem 6.7 lowers
// the complexity of ECRPQs with length-abstracted relations (Q_len) to NP
// by translating unary automata into arithmetic progressions and solving
// existential Presburger constraints; Theorem 8.5 evaluates ECRPQs with
// linear constraints on label occurrences by converting automata to
// existential Presburger formulas for their Parikh images (following
// Verma, Seidl, Schwentick 2005). This package implements the flow
// encoding of those translations exactly: one flow variable per
// transition, flow conservation between a super-source and super-sink,
// count variables tied to the flows, and the connectivity side condition
// enforced lazily through disjunctive cuts in the ILP solver — if the
// support of a candidate flow is disconnected, the solver branches on
// "silence the stray component" versus "connect it".
package parikh

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/automata"
	"repro/internal/ilp"
)

// System is a Parikh-image feasibility system for one automaton: Dims
// count variables (ILP variables 0..Dims-1) followed by one flow variable
// per transition. Callers add linear constraints over the count variables
// and call Solve.
type System struct {
	Dims int
	// transitions: from, to state (with super-source S and super-sink T
	// appended after the automaton's states), and the weight vector
	// contributed to each count dimension.
	edges    []edge
	nStates  int // including super-source and super-sink
	src, snk int
	problem  ilp.Problem
}

type edge struct {
	from, to int
	weight   []int64
}

// NewSystem builds the flow system for the automaton with the given count
// weighting: weight(sym) gives the vector (length dims) added to the
// counts each time a sym-transition is taken. ε-transitions carry zero
// weight. The resulting ILP decides: is there an accepted word whose
// count vector satisfies the added constraints?
func NewSystem[S comparable](n *automata.NFA[S], dims int, weight func(S) []int64) *System {
	sys := &System{Dims: dims}
	sys.edges, sys.src, sys.snk = flowEdges(n, dims, weight)
	sys.nStates = sys.snk + 1
	sys.build()
	return sys
}

// flowEdges collects the flow edges of automaton n: one per labelled
// transition, weighted by weight, one per ε-move, one from the
// super-source src to each start state and one from each final state to
// the super-sink snk (src and snk follow n's states). The automaton hands
// out its labelled transitions in map order, so they are sorted by
// (from, to, weight): the ILP's variable order, and with it the
// branch-and-bound search, is then the same on every run.
func flowEdges[S comparable](n *automata.NFA[S], dims int, weight func(S) []int64) (edges []edge, src, snk int) {
	ns := n.NumStates()
	src, snk = ns, ns+1
	n.EachTransition(func(from int, sym S, to int) {
		w := weight(sym)
		if len(w) != dims {
			panic(fmt.Sprintf("parikh: weight vector has %d dims, want %d", len(w), dims))
		}
		edges = append(edges, edge{from: from, to: to, weight: w})
	})
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to), slices.Compare(a.weight, b.weight))
	})
	for q := 0; q < ns; q++ {
		for _, r := range n.EpsSuccessors(q) {
			edges = append(edges, edge{from: q, to: r, weight: make([]int64, dims)})
		}
	}
	for _, s := range n.Start() {
		edges = append(edges, edge{from: src, to: s, weight: make([]int64, dims)})
	}
	for _, f := range n.FinalStates() {
		edges = append(edges, edge{from: f, to: snk, weight: make([]int64, dims)})
	}
	return edges, src, snk
}

// flowVar returns the ILP variable index of edge i.
func (s *System) flowVar(i int) int { return s.Dims + i }

// NumVars returns the total ILP variable count.
func (s *System) NumVars() int { return s.Dims + len(s.edges) }

func (s *System) build() {
	s.problem.NumVars = s.NumVars()
	// Count definitions: count_d − Σ w_t[d]·y_t = 0.
	for d := 0; d < s.Dims; d++ {
		coef := make([]int64, s.NumVars())
		coef[d] = 1
		for i, e := range s.edges {
			coef[s.flowVar(i)] = -e.weight[d]
		}
		s.problem.Add(ilp.Constraint{Coef: coef, Rel: ilp.EQ, RHS: 0})
	}
	// Flow conservation: in(q) − out(q) = [q=snk] − [q=src].
	for q := 0; q < s.nStates; q++ {
		coef := make([]int64, s.NumVars())
		for i, e := range s.edges {
			if e.to == q {
				coef[s.flowVar(i)]++
			}
			if e.from == q {
				coef[s.flowVar(i)]--
			}
		}
		rhs := int64(0)
		switch q {
		case s.snk:
			rhs = 1
		case s.src:
			rhs = -1
		}
		s.problem.Add(ilp.Constraint{Coef: coef, Rel: ilp.EQ, RHS: rhs})
	}
}

// Solve searches for an accepted word whose counts satisfy the extra
// constraints (over variables 0..Dims-1, or any system variable). It
// returns the count vector of a witness.
func (s *System) Solve(extra []ilp.Constraint, opts ilp.Options) ([]int64, bool, error) {
	p := ilp.Problem{NumVars: s.problem.NumVars}
	p.Cons = append(append([]ilp.Constraint(nil), s.problem.Cons...), extra...)
	userCheck := opts.Check
	opts.Check = func(sol []int64) ([][]ilp.Constraint, bool) {
		if branches, ok := connectivityCut(s.edges, s.src, s.flowVar(0), s.NumVars(), sol); !ok {
			return branches, false
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
	return sol[:s.Dims], true, nil
}

// connectivityCut verifies that the support of a block's flow is weakly
// connected (standard Euler-walk condition: a balanced flow from source
// to sink corresponds to an actual run iff its support is connected to
// the source). The block's edges carry the flows sol[offset+i]; numVars
// sizes the cut's coefficient vectors. On failure it returns the
// disjunctive cut for one stray component S: either all edges inside S
// are silenced, or some edge crossing into S∪out-of-S is used. S is the
// component of the first active edge the source does not reach, so a
// solve branches the same way, and explores the same number of nodes, on
// every run.
func connectivityCut(edges []edge, src, offset, numVars int, sol []int64) ([][]ilp.Constraint, bool) {
	active := func(i int) bool { return sol[offset+i] > 0 }
	// Undirected support of the active edges.
	adj := map[int][]int{}
	for i, e := range edges {
		if active(i) {
			adj[e.from] = append(adj[e.from], e.to)
			adj[e.to] = append(adj[e.to], e.from)
		}
	}
	// component collects the weak component of root.
	component := func(root int) map[int]bool {
		comp := map[int]bool{root: true}
		stack := []int{root}
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, r := range adj[q] {
				if !comp[r] {
					comp[r] = true
					stack = append(stack, r)
				}
			}
		}
		return comp
	}
	reach := component(src)
	// An active edge's endpoints share a component, so the first active
	// edge whose tail the source does not reach roots a stray component.
	strayRoot := -1
	for i, e := range edges {
		if active(i) && !reach[e.from] {
			strayRoot = e.from
			break
		}
	}
	if strayRoot == -1 {
		return nil, true
	}
	comp := component(strayRoot)
	// Disjunctive cut.
	inside := make([]int64, numVars)
	crossing := make([]int64, numVars)
	hasCrossing := false
	for i, e := range edges {
		fIn, tIn := comp[e.from], comp[e.to]
		switch {
		case fIn && tIn:
			inside[offset+i] = 1
		case fIn != tIn:
			crossing[offset+i] = 1
			hasCrossing = true
		}
	}
	branches := [][]ilp.Constraint{
		{{Coef: inside, Rel: ilp.LE, RHS: 0}},
	}
	if hasCrossing {
		branches = append(branches, []ilp.Constraint{{Coef: crossing, Rel: ilp.GE, RHS: 1}})
	}
	return branches, false
}

// OccurrenceWeights returns the weight function counting occurrences of
// each symbol of sigma: dimension i counts sigma[i].
func OccurrenceWeights(sigma []rune) (int, func(rune) []int64) {
	idx := map[rune]int{}
	for i, r := range sigma {
		idx[r] = i
	}
	dims := len(sigma)
	return dims, func(sym rune) []int64 {
		w := make([]int64, dims)
		if i, ok := idx[sym]; ok {
			w[i] = 1
		}
		return w
	}
}

// LengthWeight returns the 1-dimensional weight counting word length.
func LengthWeight[S comparable]() (int, func(S) []int64) {
	return 1, func(S) []int64 { return []int64{1} }
}
