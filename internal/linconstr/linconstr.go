// Package linconstr implements ECRPQs extended with linear constraints on
// the numbers of occurrences of labels and on path lengths — Section 8.2
// of the paper (Theorem 8.5): queries of the form
//
//	Ans(z̄) ← ⋀ᵢ (xᵢ, πᵢ, yᵢ), ⋀ⱼ Rⱼ(ω̄ⱼ), A·ℓ̄ ≥ b
//
// where ℓ̄ ranges over the occurrence counts ℓ_{π,a} of each label a on
// each path π (path lengths are the per-path sums, so length constraints
// are the special case the paper also isolates).
//
// Evaluation follows the proof of Theorem 8.5: the product automaton of
// the base ECRPQ over Gᵐ (ecrpq.ProductNFA) is equipped with one counter
// per (path, label) pair, and satisfiability of the counter constraints
// over accepted runs is decided exactly by the Parikh-image flow encoding
// of package parikh (Verma–Seidl–Schwentick translation) with the ILP
// substrate of package ilp — the NP procedure the theorem describes.
//
// The base-ECRPQ evaluation is routed through the plan/execute layer
// (internal/plan): the query is compiled once per Eval call and run with
// context cancellation, so deadlines abort both the product BFS and the
// per-answer feasibility checks.
package linconstr

import (
	"context"
	"fmt"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/ilp"
	"repro/internal/parikh"
	"repro/internal/plan"
)

// Term is one summand Coef·ℓ_{Path,Label}. A zero Label denotes the
// length of the path: Coef·|Path|.
type Term struct {
	Path  ecrpq.PathVar
	Label rune
	Coef  int64
}

// Constraint is a linear constraint Σ Terms REL RHS.
type Constraint struct {
	Terms []Term
	Rel   ilp.Rel
	RHS   int64
}

// Options tune evaluation.
type Options struct {
	// Base options are forwarded to the base-ECRPQ evaluation.
	Base ecrpq.Options
	// VarBound bounds counter and flow variables in the ILP (default 1<<20).
	VarBound int64
	// MaxNodes bounds ILP branch-and-bound nodes (default 200000).
	MaxNodes int
}

// Feasible decides whether the query with the linear constraints is
// satisfiable over the snapshot g yields under the given (possibly
// empty) binding of node variables: the Boolean query evaluation of
// Theorem 8.5. The product construction honors the base
// MaxProductStates budget.
func Feasible(q *ecrpq.Query, cons []Constraint, g graph.Snapshotter, sigma []rune, bind map[ecrpq.NodeVar]graph.Node, opts Options) (bool, error) {
	nfa, tapes, err := ecrpq.ProductNFA(q, g, ecrpq.Options{
		Bind:             bind,
		MaxProductStates: opts.Base.MaxProductStates,
	})
	if err != nil {
		return false, err
	}
	tapeIdx := map[ecrpq.PathVar]int{}
	for i, v := range tapes {
		tapeIdx[v] = i
	}
	sigIdx := map[rune]int{}
	for i, r := range sigma {
		sigIdx[r] = i
	}
	m := len(tapes)
	dims := m * len(sigma)
	weight := func(sym string) []int64 {
		w := make([]int64, dims)
		for i, r := range sym {
			if j, ok := sigIdx[r]; ok {
				w[i*len(sigma)+j] = 1
			}
		}
		return w
	}
	multi := parikh.NewMulti(dims)
	allDims := make([]int, dims)
	for i := range allDims {
		allDims[i] = i
	}
	parikh.AddBlock(multi, nfa, allDims, weight)
	var extra []ilp.Constraint
	for _, c := range cons {
		coef := make([]int64, dims)
		for _, t := range c.Terms {
			ti, ok := tapeIdx[t.Path]
			if !ok {
				return false, fmt.Errorf("linconstr: unknown path variable %s", t.Path)
			}
			if t.Label == 0 {
				for j := range sigma {
					coef[ti*len(sigma)+j] += t.Coef
				}
				continue
			}
			j, ok := sigIdx[t.Label]
			if !ok {
				return false, fmt.Errorf("linconstr: label %q not in alphabet", t.Label)
			}
			coef[ti*len(sigma)+j] += t.Coef
		}
		extra = append(extra, ilp.Constraint{Coef: coef, Rel: c.Rel, RHS: c.RHS})
	}
	_, ok, err := multi.Solve(extra, ilp.Options{VarBound: opts.VarBound, MaxNodes: opts.MaxNodes})
	return ok, err
}

// Eval evaluates the query with linear constraints with a background
// context; see EvalContext.
func Eval(q *ecrpq.Query, cons []Constraint, g graph.Snapshotter, sigma []rune, opts Options) ([]ecrpq.Answer, error) {
	return EvalContext(context.Background(), q, cons, g, sigma, opts)
}

// EvalContext evaluates the query with linear constraints over the
// snapshot g yields: the base ECRPQ is compiled once and evaluated, and
// each candidate head tuple is kept iff the counter constraints are
// feasible for that binding. Witness paths of the base evaluation are not
// retained (they may violate the constraints); answers carry node
// values only. Cancellation of ctx aborts the base evaluation mid-BFS
// and the per-answer checks between answers.
func EvalContext(ctx context.Context, q *ecrpq.Query, cons []Constraint, g graph.Snapshotter, sigma []rune, opts Options) ([]ecrpq.Answer, error) {
	if len(q.HeadPaths) > 0 {
		return nil, fmt.Errorf("linconstr: path outputs are not supported with linear constraints; project to nodes")
	}
	p, err := plan.Compile(q, ecrpq.Env{Sigma: sigma})
	if err != nil {
		return nil, err
	}
	// Pin one snapshot for the base evaluation and every per-answer
	// feasibility product: the whole mixed pipeline reads one epoch.
	snap := g.Snapshot()
	base, err := p.EvalSnapshot(ctx, snap, opts.Base)
	if err != nil {
		return nil, err
	}
	if len(cons) == 0 {
		return base.Answers, nil
	}
	var out []ecrpq.Answer
	for _, a := range base.Answers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bind := map[ecrpq.NodeVar]graph.Node{}
		okBind := true
		for i, z := range q.HeadNodes {
			if prev, exists := bind[z]; exists && prev != a.Nodes[i] {
				okBind = false
				break
			}
			bind[z] = a.Nodes[i]
		}
		if !okBind {
			continue
		}
		// Merge any caller-level binding.
		for v, n := range opts.Base.Bind {
			if prev, exists := bind[v]; exists && prev != n {
				okBind = false
				break
			}
			bind[v] = n
		}
		if !okBind {
			continue
		}
		ok, err := Feasible(q, cons, snap, sigma, bind, opts)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, a)
		}
	}
	return out, nil
}
