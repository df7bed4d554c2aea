// Package lenabs implements the length abstraction Q_len of Section 6.3:
// every regular relation R in an ECRPQ is replaced by
//
//	Rlen = {(s₁,…,sₙ) | ∃(s'₁,…,s'ₙ) ∈ R : |sᵢ| = |s'ᵢ| for all i},
//
// which is again regular (Lemma 6.6; Rlen is built here constructively
// from R's automaton via its ⊥-mask image). The paper's point (Theorem
// 6.7) is that evaluation of Q_len drops from PSPACE to NP: only the
// lengths of paths matter, so the query reduces to integer feasibility
// over length variables constrained by unary automata (arithmetic
// progressions, Claim 6.7.2) and by the mask automata of the relations.
//
// EvalLen implements that NP procedure on top of the Parikh/ILP
// substrate: one flow block per path atom (lengths of σ(x)→σ(y) walks in
// G), one per length-abstracted unary atom, and one per relation mask
// automaton, all sharing the per-path length variables. Its results are
// tested equal to evaluating the abstracted query with the generic PSPACE
// engine.
package lenabs

import (
	"context"
	"fmt"

	"repro/internal/automata"
	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/ilp"
	"repro/internal/parikh"
	"repro/internal/plan"
	"repro/internal/regex"
	"repro/internal/relations"
)

// maskOf maps a tuple symbol to its ⊥-mask: '1' where a letter is
// present, '_' where the coordinate is padded.
func maskOf(sym string) string {
	out := make([]rune, 0, len(sym))
	for _, r := range sym {
		if r == regex.Bot {
			out = append(out, '_')
		} else {
			out = append(out, '1')
		}
	}
	return string(out)
}

// properize restricts a relation automaton to proper convolutions (per
// coordinate Σ*⊥*, no all-⊥ symbols) so that mask reasoning is sound even
// for user-supplied tuple regexes that accept junk paddings.
func properize(rel *relations.Relation) *automata.NFA[string] {
	a := rel.Expand().A
	letters := map[rune]bool{}
	for _, sym := range a.Alphabet() {
		for _, r := range sym {
			if r != regex.Bot {
				letters[r] = true
			}
		}
	}
	var sigma []rune
	for r := range letters {
		sigma = append(sigma, r)
	}
	regex.SortRunes(sigma)
	if len(sigma) == 0 {
		return a.Clone()
	}
	return automata.Intersect(a, relations.PadValid(sigma, rel.Arity))
}

// Rlen constructs the length abstraction of rel over sigma (Lemma 6.6):
// the automaton of rel is mapped onto mask symbols and each mask is
// re-expanded to every tuple symbol carrying letters of sigma in the
// same positions.
func Rlen(rel *relations.Relation, sigma []rune) *relations.Relation {
	masked := automata.MapSymbols(properize(rel), maskOf)
	out := automata.NewNFA[string]()
	out.AddStates(masked.NumStates())
	for _, s := range masked.Start() {
		out.SetStart(s)
	}
	for _, f := range masked.FinalStates() {
		out.SetFinal(f, true)
	}
	for q := 0; q < masked.NumStates(); q++ {
		for _, r := range masked.EpsSuccessors(q) {
			out.AddEps(q, r)
		}
	}
	buf := make([]rune, rel.Arity)
	masked.EachTransition(func(from int, mask string, to int) {
		var rec func(i int)
		ms := []rune(mask)
		rec = func(i int) {
			if i == rel.Arity {
				out.AddTransition(from, string(buf), to)
				return
			}
			if ms[i] == '_' {
				buf[i] = regex.Bot
				rec(i + 1)
				return
			}
			for _, a := range sigma {
				buf[i] = a
				rec(i + 1)
			}
		}
		rec(0)
	})
	return &relations.Relation{Name: rel.Name + "_len", Arity: rel.Arity, A: out}
}

// AbstractQuery returns Q_len: q with every relation replaced by its
// length abstraction.
func AbstractQuery(q *ecrpq.Query, sigma []rune) *ecrpq.Query {
	out := *q
	out.RelAtoms = make([]ecrpq.RelAtom, len(q.RelAtoms))
	for i, ra := range q.RelAtoms {
		out.RelAtoms[i] = ecrpq.RelAtom{Rel: Rlen(ra.Rel, sigma), Args: ra.Args}
	}
	return &out
}

// Options tune EvalLen.
type Options struct {
	// Bind fixes node variables before evaluation.
	Bind map[ecrpq.NodeVar]graph.Node
	// VarBound and MaxNodes bound the ILP (defaults 1<<20, 200000).
	VarBound int64
	MaxNodes int
}

// EvalAbstract evaluates Q_len over the snapshot g yields with the
// generic PSPACE engine: the abstracted query (AbstractQuery) is
// compiled through the plan/execute layer and run with ctx
// cancellation. It is the reference implementation EvalLen is tested
// against, exposed so callers can pick either procedure behind the same
// planner. The abstraction is built and compiled on every call; callers
// that evaluate one abstraction repeatedly should AbstractQuery once
// and Prepare it themselves.
func EvalAbstract(ctx context.Context, q *ecrpq.Query, g graph.Snapshotter, sigma []rune, opts ecrpq.Options) ([]ecrpq.Answer, error) {
	p, err := plan.Compile(AbstractQuery(q, sigma), ecrpq.Env{Sigma: sigma})
	if err != nil {
		return nil, err
	}
	res, err := p.EvalSnapshot(ctx, g.Snapshot(), opts)
	if err != nil {
		return nil, err
	}
	return res.Answers, nil
}

// EvalLen evaluates Q_len(G) with a background context; see
// EvalLenContext.
func EvalLen(q *ecrpq.Query, g graph.Snapshotter, opts Options) ([]ecrpq.Answer, error) {
	return EvalLenContext(context.Background(), q, g, opts)
}

// EvalLenContext evaluates Q_len over the snapshot g yields by the NP
// procedure of Theorem 6.7 and returns the node answers (Q_len path
// outputs are not supported; the abstraction concerns lengths, so
// project heads to nodes).
// Cancellation of ctx is checked between node assignments, so deadlines
// abort the (exponential in the query) enumeration promptly.
func EvalLenContext(ctx context.Context, q *ecrpq.Query, g graph.Snapshotter, opts Options) ([]ecrpq.Answer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.HeadPaths) > 0 {
		return nil, fmt.Errorf("lenabs: path outputs are not supported under the length abstraction")
	}
	if q.AllowRepeatedPathVars {
		return nil, fmt.Errorf("lenabs: repeated path variables are not supported by EvalLen")
	}
	nodeVars := q.NodeVars()
	tapes := q.PathVars()
	tapeIdx := map[ecrpq.PathVar]int{}
	for i, v := range tapes {
		tapeIdx[v] = i
	}
	m := len(tapes)

	var answers []ecrpq.Answer
	seen := map[string]bool{}
	// Pin one snapshot for the whole enumeration: every per-assignment
	// feasibility check reads the same epoch, isolated from writers.
	snap := g.Snapshot()
	sigma := snap.Alphabet()

	assign := map[ecrpq.NodeVar]graph.Node{}
	var enumerate func(i int) error
	enumerate = func(i int) error {
		if i < len(nodeVars) {
			v := nodeVars[i]
			if n, ok := opts.Bind[v]; ok {
				assign[v] = n
				return enumerate(i + 1)
			}
			for n := 0; n < snap.NumNodes(); n++ {
				assign[v] = graph.Node(n)
				if err := enumerate(i + 1); err != nil {
					return err
				}
			}
			delete(assign, v)
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		ok, err := feasibleLengths(q, snap, sigma, assign, tapeIdx, m, opts)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		ans := ecrpq.Answer{}
		for _, z := range q.HeadNodes {
			ans.Nodes = append(ans.Nodes, assign[z])
		}
		if k := ans.Key(); !seen[k] {
			seen[k] = true
			answers = append(answers, ans)
		}
		return nil
	}
	if err := enumerate(0); err != nil {
		return nil, err
	}
	return answers, nil
}

// feasibleLengths decides, for a full node assignment, whether lengths
// ℓ₁..ℓₘ exist such that every path atom has a σ(x)→σ(y) walk of length
// ℓᵢ, every unary atom's language has a word of length ℓᵢ, and every
// relation atom's mask automaton accepts the induced mask word.
//
// Following Claim 6.7.2, the per-tape length constraints (walk lengths in
// G, lengths of unary languages) are ultimately periodic and are encoded
// as arithmetic progressions ℓ = base + step·t with a fresh offset
// variable per constraint; one progression per constraint is guessed (the
// claim's "guess the witnessing progression") by enumerating the small
// product of choices. Only the genuinely coupling constraints — the mask
// automata of relations of arity ≥ 2 — need Parikh flow blocks.
func feasibleLengths(q *ecrpq.Query, s *graph.Snapshot, sigma []rune, assign map[ecrpq.NodeVar]graph.Node, tapeIdx map[ecrpq.PathVar]int, m int, opts Options) (bool, error) {
	// Per-tape progression constraint sources.
	type source struct {
		tape  int
		progs []automata.Progression
	}
	var sources []source
	for _, a := range q.PathAtoms {
		ls := automata.Lengths(graphAutomaton(s, assign[a.X], assign[a.Y]))
		progs := ls.Progressions()
		if len(progs) == 0 {
			return false, nil // no walk at all between the endpoints
		}
		sources = append(sources, source{tape: tapeIdx[a.Pi], progs: progs})
	}
	multi := parikh.NewMulti(m)
	for _, ra := range q.RelAtoms {
		if ra.Rel.Arity == 1 {
			ls := automata.Lengths(ra.Rel.A)
			progs := ls.Progressions()
			if len(progs) == 0 {
				return false, nil // empty language
			}
			sources = append(sources, source{tape: tapeIdx[ra.Args[0]], progs: progs})
			continue
		}
		// Mask automaton block: each mask symbol advances the tapes whose
		// coordinate is present.
		masked := automata.MapSymbols(properize(ra.Rel), maskOf)
		pos := make([]int, len(ra.Args))
		for i, v := range ra.Args {
			pos[i] = tapeIdx[v]
		}
		parikh.AddBlock(multi, masked, pos, func(mask string) []int64 {
			w := make([]int64, m)
			for i, r := range mask {
				if r == '1' {
					w[pos[i]]++
				}
			}
			return w
		})
	}
	// One fresh offset variable per periodic source.
	tBase := multi.AddVars(len(sources))
	// Enumerate progression choices per source.
	choice := make([]int, len(sources))
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i < len(sources) {
			for c := range sources[i].progs {
				choice[i] = c
				ok, err := rec(i + 1)
				if err != nil || ok {
					return ok, err
				}
			}
			return false, nil
		}
		var extra []ilp.Constraint
		for si, src := range sources {
			p := src.progs[choice[si]]
			// ℓ_tape − step·t_si = base
			coef := make([]int64, multi.NumVars())
			coef[src.tape] = 1
			coef[tBase+si] = -int64(p.Step)
			extra = append(extra, ilp.Constraint{Coef: coef, Rel: ilp.EQ, RHS: int64(p.Base)})
		}
		_, ok, err := multi.Solve(extra, ilp.Options{VarBound: opts.VarBound, MaxNodes: opts.MaxNodes})
		return ok, err
	}
	return rec(0)
}

// graphAutomaton views a graph snapshot as an NFA from u to v.
func graphAutomaton(s *graph.Snapshot, u, v graph.Node) *automata.NFA[rune] {
	n := automata.NewNFA[rune]()
	n.AddStates(s.NumNodes())
	s.EachEdge(func(from graph.Node, a rune, to graph.Node) {
		n.AddTransition(int(from), a, int(to))
	})
	n.SetStart(int(u))
	n.SetFinal(int(v), true)
	return n
}

// LengthsBetween returns the exact ultimately periodic set of walk
// lengths from u to v in the snapshot g yields — the unary-automaton
// analysis of Claim 6.7.2.
func LengthsBetween(g graph.Snapshotter, u, v graph.Node) automata.LengthSet {
	return automata.Lengths(graphAutomaton(g.Snapshot(), u, v))
}
