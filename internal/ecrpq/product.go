package ecrpq

import (
	"math"

	"repro/internal/automata"
	"repro/internal/graph"
)

// ProductNFA builds the full m-tape product automaton of the query over
// the snapshot g yields: an NFA over tuple symbols (strings of m runes
// over Σ⊥) accepting exactly the convolutions [λ(ρ₁),…,λ(ρₘ)] of path
// tuples that satisfy the relational part and all relation atoms, for
// some node assignment consistent with opts.Bind. This is the automaton A_Q × Gᵐ of Theorem
// 6.3, with one copy per start assignment σ (the paper's union over Θ)
// and Q-compatibility folded into acceptance.
//
// The construction draws on opts.MaxProductStates (default 4,000,000)
// and fails with ErrBudget beyond it, like the evaluator.
//
// The second return value gives the tape order (path variables).
// ProductNFA is the substrate for the extensions of Section 8.2: package
// linconstr attaches Parikh-image counters to its transitions.
func ProductNFA(q *Query, g graph.Snapshotter, opts Options) (*automata.NFA[string], []PathVar, error) {
	s := g.Snapshot()
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	comps, err := decompose(q, true)
	if err != nil {
		return nil, nil, err
	}
	c := comps[0]
	out := automata.NewNFA[string]()
	pb := newProductBuilder(s, c, opts, opts.Bind, out)
	err = pb.build(
		func(_ []graph.Node, s0 int) { out.SetStart(s0) },
		func(from, to int) { out.AddTransition(from, string(pb.symLabs), to) })
	if err != nil {
		return nil, nil, err
	}
	return automata.Trim(out), c.vars, nil
}

// productBuilder is the product-BFS driver of the explicit-automaton
// constructions (ProductNFA and the answer automaton of Proposition
// 5.2): one copy of the product per start assignment, every product
// state an NFA state of out, with the dense joint runner, symbol
// interning and pinned snapshot (prodCore) shared across the copies and
// one product-state budget enforced over all of them. Expansion is
// label-directed exactly like the evaluator's BFS (the same move
// kernel); the pruned transitions all lead to states that cannot reach
// acceptance, so the accepted language is unchanged. The constructions
// differ only in the two hooks build takes.
type productBuilder struct {
	prodCore

	bud  *stateBudget
	out  *automata.NFA[string]
	bind map[NodeVar]graph.Node

	// start wires a copy's initial NFA state s0 (at node tuple nodes)
	// into out; edge adds the transitions of one product move between
	// NFA states, reading its labels from symLabs and its target nodes
	// from next.
	start func(nodes []graph.Node, s0 int)
	edge  func(from, to int)

	// The copy in progress: its start assignment, product-state
	// interning (jointID, nodes...) and the state being expanded.
	assign map[NodeVar]graph.Node
	states tupleSet
	nfaIDs []int32 // product state id → NFA state id
	curs   []graph.Node
	joints []int32
	head   int
}

func newProductBuilder(s *graph.Snapshot, c *component, opts Options, bind map[NodeVar]graph.Node, out *automata.NFA[string]) *productBuilder {
	pb := &productBuilder{
		prodCore: newProdCore(s, c),
		bud:      newStateBudget(opts.MaxProductStates),
		out:      out,
		bind:     bind,
	}
	pb.noPrune = opts.NoPrune
	// The explicit automata keep the lazy runner's states: their sizes are
	// what the product constructions report and budget.
	pb.bindJoint(false)
	pb.emit = pb
	return pb
}

// build adds one product copy per start assignment: a start variable in
// bind has its bound node, any other every node of the snapshot.
func (pb *productBuilder) build(start func(nodes []graph.Node, s0 int), edge func(from, to int)) error {
	pb.start, pb.edge = start, edge
	xvars := pb.c.xvars
	space := startSpace{vars: xvars}
	var all []graph.Node
	for _, v := range xvars {
		if n, ok := pb.bind[v]; ok {
			space.lists = append(space.lists, []graph.Node{n})
			continue
		}
		if all == nil {
			all = nodeRange(nil, pb.snap.NumNodes())
		}
		space.lists = append(space.lists, all)
	}
	return space.forRange(0, math.MaxUint64, func(_ uint64, assign map[NodeVar]graph.Node) error {
		return pb.addCopy(assign)
	})
}

// stateOf interns the product state (jointID, nodes) for the current
// copy and returns its NFA state, added on first sight — accepting iff
// the joint state accepts and the Y-consistency conditions hold (the
// "Q-compatible" filter of Section 5). It fails with ErrBudget when a
// fresh state exceeds the builder's budget.
func (pb *productBuilder) stateOf(jointID int, nodes []graph.Node) (int, error) {
	id, added := pb.internState(&pb.states, jointID, nodes)
	if !added {
		return int(pb.nfaIDs[id]), nil
	}
	if !pb.bud.spend() {
		return 0, ErrBudget
	}
	pb.curs = append(pb.curs, nodes...)
	pb.joints = append(pb.joints, int32(jointID))
	nfa := pb.out.AddState()
	pb.out.SetFinal(nfa, acceptingState(pb.c, pb.src.Accepting(jointID), nodes, pb.assign, pb.bind))
	pb.nfaIDs = append(pb.nfaIDs, int32(nfa))
	return nfa, nil
}

// addCopy explores the product from one start assignment, adding its
// states and transitions to out.
func (pb *productBuilder) addCopy(assign map[NodeVar]graph.Node) error {
	start, ok := pb.startTuple(assign)
	if !ok {
		return nil
	}
	pb.assign = assign
	pb.planStates()
	pb.states.reset(pb.statesPacked)
	pb.nfaIDs = pb.nfaIDs[:0]
	pb.curs = pb.curs[:0]
	pb.joints = pb.joints[:0]
	s0, err := pb.stateOf(pb.src.StartID(), start)
	if err != nil {
		return err
	}
	pb.start(start, s0)
	cnt := pb.cnt
	for pb.head = 0; pb.head < len(pb.joints); pb.head++ {
		cur := pb.curs[pb.head*cnt : pb.head*cnt+cnt]
		joint := int(pb.joints[pb.head])
		if !pb.prepareMoves(joint, cur) {
			continue
		}
		if err := pb.forEachMove(joint, cur); err != nil {
			return err
		}
	}
	return nil
}

// emitMove is the builders' emitter: add the NFA edge of the enumerated
// move to its successor's state (joint state js).
func (pb *productBuilder) emitMove(js int) error {
	to, err := pb.stateOf(js, pb.next)
	if err != nil {
		return err
	}
	pb.edge(int(pb.nfaIDs[pb.head]), to)
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
