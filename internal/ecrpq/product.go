package ecrpq

import (
	"repro/internal/automata"
	"repro/internal/graph"
)

// ProductNFA builds the full m-tape product automaton of the query over
// g: an NFA over tuple symbols (strings of m runes over Σ⊥) accepting
// exactly the convolutions [λ(ρ₁),…,λ(ρₘ)] of path tuples that satisfy
// the relational part and all relation atoms, for some node assignment
// consistent with opts.Bind. This is the automaton A_Q × Gᵐ of Theorem
// 6.3, with one copy per start assignment σ (the paper's union over Θ)
// and Q-compatibility folded into acceptance.
//
// The construction draws on opts.MaxProductStates (default 4,000,000)
// and fails with ErrBudget beyond it, like the evaluator.
//
// The second return value gives the tape order (path variables).
// ProductNFA is the substrate for the extensions of Section 8.2: package
// linconstr attaches Parikh-image counters to its transitions. It is
// the take-current-snapshot shim over ProductNFASnapshot.
func ProductNFA(q *Query, g *graph.DB, opts Options) (*automata.NFA[string], []PathVar, error) {
	return ProductNFASnapshot(q, g.Snapshot(), opts)
}

// ProductNFASnapshot builds the product automaton over a pinned
// immutable snapshot, isolating the construction from concurrent
// writers of the underlying DB.
func ProductNFASnapshot(q *Query, s *graph.Snapshot, opts Options) (*automata.NFA[string], []PathVar, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	comps, err := decompose(q, true, opts.NoClasses)
	if err != nil {
		return nil, nil, err
	}
	c := comps[0]
	out := automata.NewNFA[string]()
	_, xvars := c.nodeVars()
	bind := opts.Bind
	candidates := func(v NodeVar) []graph.Node {
		if n, ok := bind[v]; ok {
			return []graph.Node{n}
		}
		all := make([]graph.Node, s.NumNodes())
		for i := range all {
			all[i] = graph.Node(i)
		}
		return all
	}
	pb := newProductBuilder(s, c, newStateBudget(opts.MaxProductStates), opts.NoPrune)
	assign := map[NodeVar]graph.Node{}
	var enumerate func(i int) error
	enumerate = func(i int) error {
		if i == len(xvars) {
			return pb.addProductCopy(out, assign, bind)
		}
		for _, n := range candidates(xvars[i]) {
			assign[xvars[i]] = n
			if err := enumerate(i + 1); err != nil {
				return err
			}
		}
		delete(assign, xvars[i])
		return nil
	}
	if err := enumerate(0); err != nil {
		return nil, nil, err
	}
	return automata.Trim(out), c.vars, nil
}

// productBuilder shares the dense joint runner, symbol interning and
// pinned graph snapshot (prodCore) across the per-start-assignment
// product copies of ProductNFA and BuildPathAutomaton, and enforces the
// product state budget across all copies.
type productBuilder struct {
	prodCore

	bud *stateBudget

	// Per-copy product-state interning: (jointID, nodes...).
	states tupleSet
	nfaIDs []int32 // product state id → NFA state id
	curs   []graph.Node
	joints []int32
}

func newProductBuilder(s *graph.Snapshot, c *component, bud *stateBudget, noPrune bool) *productBuilder {
	pb := &productBuilder{
		prodCore: newProdCore(s, c),
		bud:      bud,
	}
	pb.noPrune = noPrune
	return pb
}

// stateOf interns the product state (jointID, nodes) for the current
// copy, adding an NFA state via addNFA on first sight. It returns the
// product id, whether it was new, and ErrBudget when the fresh state
// exceeds the builder's budget.
func (pb *productBuilder) stateOf(jointID int, nodes []graph.Node, addNFA func(jointID int, cur []graph.Node) int32) (int, bool, error) {
	id, added := pb.internState(&pb.states, jointID, nodes)
	if !added {
		return id, false, nil
	}
	if !pb.bud.spend() {
		return 0, false, ErrBudget
	}
	pb.curs = append(pb.curs, nodes...)
	pb.joints = append(pb.joints, int32(jointID))
	pb.nfaIDs = append(pb.nfaIDs, addNFA(jointID, nodes))
	return id, true, nil
}

// resetCopy clears the per-copy product-state tables.
func (pb *productBuilder) resetCopy() {
	pb.planStates()
	pb.states.reset(pb.statesPacked)
	pb.nfaIDs = pb.nfaIDs[:0]
	pb.curs = pb.curs[:0]
	pb.joints = pb.joints[:0]
}

// addProductCopy adds one start-assignment copy of the product to out.
// Expansion is label-directed exactly like the evaluator's BFS (see
// prodCore.prepareMoves); the pruned transitions all lead to states that
// cannot reach acceptance, so the accepted language is unchanged.
func (pb *productBuilder) addProductCopy(out *automata.NFA[string], assign, bind map[NodeVar]graph.Node) error {
	start, ok := pb.startTuple(assign)
	if !ok {
		return nil
	}
	pb.resetCopy()
	addNFA := func(jointID int, cur []graph.Node) int32 {
		id := out.AddState()
		out.SetFinal(id, acceptingState(pb.c, pb.runner.Accepting(jointID), cur, assign, bind))
		return int32(id)
	}
	s0, _, err := pb.stateOf(pb.runner.StartID(), start, addNFA)
	if err != nil {
		return err
	}
	out.SetStart(int(pb.nfaIDs[s0]))
	cnt := pb.cnt
	var from, joint int
	step := func() error {
		sid := pb.symID()
		js, ok := pb.runner.Step(joint, sid)
		if !ok {
			return nil
		}
		to, _, err := pb.stateOf(js, pb.next, addNFA)
		if err != nil {
			return err
		}
		out.AddTransition(from, string(pb.symLabs[:cnt]), int(pb.nfaIDs[to]))
		return nil
	}
	for head := 0; head < len(pb.joints); head++ {
		cur := pb.curs[head*cnt : head*cnt+cnt]
		from = int(pb.nfaIDs[head])
		joint = int(pb.joints[head])
		if !pb.prepareMoves(joint, cur) {
			continue
		}
		if err := pb.forEachMove(cur, step); err != nil {
			return err
		}
	}
	return nil
}

// acceptingState checks joint acceptance plus Y-consistency against the
// start assignment and external bindings.
func acceptingState(c *component, jointAccepting bool, cur []graph.Node, assign, bind map[NodeVar]graph.Node) bool {
	if !jointAccepting {
		return false
	}
	nodes := make(map[NodeVar]graph.Node, 4)
	for v, n := range assign {
		nodes[v] = n
	}
	for i, atoms := range c.atomsOf {
		for _, a := range atoms {
			if prev, ok := nodes[a.Y]; ok {
				if prev != cur[i] {
					return false
				}
			} else {
				if b, ok := bind[a.Y]; ok && b != cur[i] {
					return false
				}
				nodes[a.Y] = cur[i]
			}
		}
	}
	return true
}
