package neg

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/automata"
	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/relations"
)

// Evaluator evaluates ECRPQ¬ formulas over one graph database. It pins
// the graph snapshot (and its alphabet) at construction time, so every
// formula evaluated through one Evaluator reads a single epoch,
// isolated from concurrent writers; build a fresh Evaluator to see
// later writes. It exposes the Claim 8.1.3 automaton construction.
type Evaluator struct {
	Snap  *graph.Snapshot
	Sigma []rune
	// MaxStates aborts evaluation when an intermediate automaton exceeds
	// this many states (the construction is non-elementary, Theorem 8.2).
	// Zero means the default of 200000.
	MaxStates int
}

// NewEvaluator returns an evaluator pinned to the snapshot g yields.
func NewEvaluator(g graph.Snapshotter) *Evaluator {
	s := g.Snapshot()
	return &Evaluator{Snap: s, Sigma: s.Alphabet(), MaxStates: 200000}
}

// ErrTooLarge is returned when an intermediate automaton exceeds
// MaxStates.
var ErrTooLarge = fmt.Errorf("neg: intermediate automaton exceeds the state budget (the problem is non-elementary; shrink the formula or graph)")

// Holds evaluates a sentence (no free variables) with a background
// context; see HoldsContext.
func (e *Evaluator) Holds(f Formula) (bool, error) {
	return e.HoldsContext(context.Background(), f)
}

// HoldsContext evaluates a sentence (no free variables). The automaton
// construction is non-elementary (Theorem 8.2), so ctx cancellation is
// checked between construction steps and aborts with ctx.Err() — the
// same deadline discipline as the planner-backed ECRPQ executor.
func (e *Evaluator) HoldsContext(ctx context.Context, f Formula) (bool, error) {
	if vs := freeNodeVarsOf(f); len(vs) != 0 {
		return false, fmt.Errorf("neg: formula has free node variables %v", vs)
	}
	if vs := freePathVarsOf(f); len(vs) != 0 {
		return false, fmt.Errorf("neg: formula has free path variables %v", vs)
	}
	a, err := e.build(ctx, f, map[ecrpq.NodeVar]graph.Node{}, nil)
	if err != nil {
		return false, err
	}
	return !a.IsEmpty(), nil
}

// EvalNodes is EvalNodesContext with a background context.
func (e *Evaluator) EvalNodes(f Formula) ([][]graph.Node, error) {
	return e.EvalNodesContext(context.Background(), f)
}

// EvalNodesContext returns the assignments to the free node variables
// (in freeNodeVarsOf order) under which the formula is satisfiable; free
// path variables are existentially interpreted. Cancellation of ctx is
// checked per assignment.
func (e *Evaluator) EvalNodesContext(ctx context.Context, f Formula) ([][]graph.Node, error) {
	nv := freeNodeVarsOf(f)
	pv := freePathVarsOf(f)
	var out [][]graph.Node
	assign := map[ecrpq.NodeVar]graph.Node{}
	var rec func(i int) error
	rec = func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if i < len(nv) {
			for v := 0; v < e.Snap.NumNodes(); v++ {
				assign[nv[i]] = graph.Node(v)
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			delete(assign, nv[i])
			return nil
		}
		a, err := e.build(ctx, f, assign, pv)
		if err != nil {
			return err
		}
		if !a.IsEmpty() {
			row := make([]graph.Node, len(nv))
			for j, v := range nv {
				row[j] = assign[v]
			}
			out = append(out, row)
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

// PathAutomaton builds the Claim 8.1.3 automaton A_ϕ^{(G,v̄)} for the
// given assignment of the free node variables: it accepts exactly the
// representations of the free-path-variable tuples satisfying ϕ.
func (e *Evaluator) PathAutomaton(f Formula, assign map[ecrpq.NodeVar]graph.Node) (*automata.NFA[string], []ecrpq.PathVar, error) {
	pv := freePathVarsOf(f)
	a, err := e.build(context.Background(), f, assign, pv)
	if err != nil {
		return nil, nil, err
	}
	return a, pv, nil
}

// build returns the representation automaton of f over exactly the
// coordinate set vars (a superset of f's free path variables), under the
// node assignment.
func (e *Evaluator) build(ctx context.Context, f Formula, assign map[ecrpq.NodeVar]graph.Node, vars []ecrpq.PathVar) (*automata.NFA[string], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch f := f.(type) {
	case nodeEq:
		vx, ok1 := assign[f.X]
		vy, ok2 := assign[f.Y]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("neg: unbound node variable in %s", f)
		}
		return e.boolAutomaton(vx == vy, vars)
	case Edge:
		vx, ok1 := assign[f.X]
		vy, ok2 := assign[f.Y]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("neg: unbound node variable in %s", f)
		}
		a := e.edgeAutomaton(vx, vy, f.P, vars)
		return e.guard(a)
	case pathEq:
		return e.build(ctx, Rel{R: relations.Equality(e.Sigma), Args: []ecrpq.PathVar{f.P1, f.P2}}, assign, vars)
	case Rel:
		a, err := e.relAutomaton(f, vars)
		if err != nil {
			return nil, err
		}
		return e.guard(a)
	case And:
		l, err := e.build(ctx, f.F, assign, vars)
		if err != nil {
			return nil, err
		}
		r, err := e.build(ctx, f.G, assign, vars)
		if err != nil {
			return nil, err
		}
		return e.guard(automata.Trim(automata.Intersect(l, r)))
	case or:
		l, err := e.build(ctx, f.F, assign, vars)
		if err != nil {
			return nil, err
		}
		r, err := e.build(ctx, f.G, assign, vars)
		if err != nil {
			return nil, err
		}
		return e.guard(automata.Union(l, r))
	case Not:
		inner, err := e.build(ctx, f.F, assign, vars)
		if err != nil {
			return nil, err
		}
		return e.complement(inner, vars)
	case ExistsNode:
		var result *automata.NFA[string]
		for v := 0; v < e.Snap.NumNodes(); v++ {
			a2 := cloneAssign(assign)
			a2[f.X] = graph.Node(v)
			a, err := e.build(ctx, f.F, a2, vars)
			if err != nil {
				return nil, err
			}
			if result == nil {
				result = a
			} else {
				result = automata.Union(result, a)
			}
		}
		if result == nil {
			return e.boolAutomaton(false, vars)
		}
		return e.guard(automata.Trim(result))
	case ExistsPath:
		innerVars := addVar(vars, f.P)
		a, err := e.build(ctx, f.F, assign, innerVars)
		if err != nil {
			return nil, err
		}
		return e.project(a, innerVars, f.P, vars)
	}
	return nil, fmt.Errorf("neg: unknown formula node %T", f)
}

func cloneAssign(a map[ecrpq.NodeVar]graph.Node) map[ecrpq.NodeVar]graph.Node {
	out := make(map[ecrpq.NodeVar]graph.Node, len(a)+1)
	for k, v := range a {
		out[k] = v
	}
	return out
}

// addVar inserts p into the sorted variable list (no-op if present;
// variable shadowing is not supported and callers must use fresh names).
func addVar(vars []ecrpq.PathVar, p ecrpq.PathVar) []ecrpq.PathVar {
	out := slices.Clone(vars)
	if i, found := slices.BinarySearch(out, p); !found {
		out = slices.Insert(out, i, p)
	}
	return out
}

// guard enforces the state budget.
func (e *Evaluator) guard(a *automata.NFA[string]) (*automata.NFA[string], error) {
	max := e.MaxStates
	if max == 0 {
		max = 200000
	}
	if a.NumStates() > max {
		return nil, ErrTooLarge
	}
	return a, nil
}

// boolAutomaton returns the automaton accepting every valid
// representation over vars (truth) or nothing (falsity). With no
// coordinates, the representation of the empty tuple is the empty word.
func (e *Evaluator) boolAutomaton(b bool, vars []ecrpq.PathVar) (*automata.NFA[string], error) {
	if !b {
		return automata.NewNFA[string](), nil
	}
	if len(vars) == 0 {
		n := automata.NewNFA[string]()
		q := n.AddState()
		n.SetStart(q)
		n.SetFinal(q, true)
		return n, nil
	}
	return e.guard(e.validRep(len(vars)))
}
