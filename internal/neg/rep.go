package neg

import (
	"fmt"
	"slices"

	"repro/internal/automata"
	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/relations"
)

// eachNodeTuple calls fn on every tuple of V^k whose coordinates agree
// with constr, in lexicographic order; fn must not keep the slice.
func (e *Evaluator) eachNodeTuple(k int, constr map[int]graph.Node, fn func([]graph.Node)) {
	buf := make([]graph.Node, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			fn(buf)
		} else if v, ok := constr[i]; ok {
			buf[i] = v
			rec(i + 1)
		} else {
			for v := 0; v < e.Snap.NumNodes(); v++ {
				buf[i] = graph.Node(v)
				rec(i + 1)
			}
		}
	}
	rec(0)
}

// nodeSyms enumerates the node alphabet V^k as representation symbols.
func (e *Evaluator) nodeSyms(k int) []string {
	var out []string
	e.eachNodeTuple(k, nil, func(vs []graph.Node) { out = append(out, ecrpq.NodeSym(vs)) })
	return out
}

// repAlphabet is the full representation alphabet V^k ∪ (Σ⊥)^k, in the
// encoded form used on transitions ("N:..." and "L:...").
func (e *Evaluator) repAlphabet(k int) []string {
	out := e.nodeSyms(k)
	for _, ls := range relations.TupleAlphabet(e.Sigma, k) {
		out = append(out, ecrpq.LetterSym([]rune(ls)))
	}
	return out
}

// validRep builds the automaton of valid k-tuple representations over G:
// alternating node/letter symbols starting and ending with a node symbol,
// per-coordinate edge consistency (⊥ = stay), per-coordinate ⊥ only as a
// suffix, no all-⊥ letters.
func (e *Evaluator) validRep(k int) *automata.NFA[string] {
	return e.validRepConstrained(k, nil, nil)
}

// validRepConstrained additionally pins coordinates of the first node
// symbol (startConstr) and of the final node symbol (finalConstr).
func (e *Evaluator) validRepConstrained(k int, startConstr, finalConstr map[int]graph.Node) *automata.NFA[string] {
	n := automata.NewNFA[string]()
	start := n.AddState()
	n.SetStart(start)
	type key struct {
		nodes string // encoded tuple
		mask  int
	}
	ids := map[key]int{}
	var tuples = map[key][]graph.Node{}
	var queue []key
	stateOf := func(vs []graph.Node, mask int) int {
		kk := key{nodes: ecrpq.NodeSym(vs), mask: mask}
		if id, ok := ids[kk]; ok {
			return id
		}
		id := n.AddState()
		ids[kk] = id
		tuples[kk] = append([]graph.Node(nil), vs...)
		queue = append(queue, kk)
		final := true
		for c, want := range finalConstr {
			if vs[c] != want {
				final = false
				break
			}
		}
		n.SetFinal(id, final)
		return id
	}
	// Start transitions: every node tuple consistent with startConstr.
	e.eachNodeTuple(k, startConstr, func(vs []graph.Node) {
		n.AddTransition(start, ecrpq.NodeSym(vs), stateOf(vs, 0))
	})
	// Steps.
	for head := 0; head < len(queue); head++ {
		kk := queue[head]
		vs := tuples[kk]
		from := ids[kk]
		// Enumerate per-coordinate moves: ⊥ (stay, sets done bit) or an
		// outgoing edge (only if not done).
		type move struct {
			letter rune
			to     graph.Node
		}
		moves := make([][]move, k)
		for i := 0; i < k; i++ {
			ms := []move{{regex.Bot, vs[i]}}
			if kk.mask&(1<<i) == 0 {
				e.Snap.EdgesFrom(vs[i], func(a rune, to graph.Node) {
					ms = append(ms, move{a, to})
				})
			}
			moves[i] = ms
		}
		letters := make([]rune, k)
		next := make([]graph.Node, k)
		var rec func(i int, mask int)
		rec = func(i, mask int) {
			if i == k {
				sym := string(letters)
				if relations.AllBot(sym) {
					return
				}
				to := stateOf(next, mask)
				mid := n.AddState()
				n.AddTransition(from, ecrpq.LetterSym(letters), mid)
				n.AddTransition(mid, ecrpq.NodeSym(next), to)
				return
			}
			for _, m := range moves[i] {
				letters[i] = m.letter
				next[i] = m.to
				nm := mask
				if m.letter == regex.Bot {
					nm |= 1 << i
				}
				rec(i+1, nm)
			}
		}
		rec(0, kk.mask)
	}
	return n
}

// edgeAutomaton builds the atom automaton for (x, π, y) over the
// coordinate set vars: valid representations where π's coordinate starts
// at vx and ends at vy (other coordinates are free — built-in
// cylindrification).
func (e *Evaluator) edgeAutomaton(vx, vy graph.Node, p ecrpq.PathVar, vars []ecrpq.PathVar) *automata.NFA[string] {
	idx := slices.Index(vars, p)
	return automata.Trim(e.validRepConstrained(len(vars),
		map[int]graph.Node{idx: vx}, map[int]graph.Node{idx: vy}))
}

// relAutomaton builds the atom automaton for R(args) over vars: valid
// representations whose letter projection onto the args coordinates is a
// convolution in R.
func (e *Evaluator) relAutomaton(f Rel, vars []ecrpq.PathVar) (*automata.NFA[string], error) {
	k := len(vars)
	pos := make([]int, len(f.Args))
	for i, a := range f.Args {
		pos[i] = slices.Index(vars, a)
		if pos[i] < 0 {
			return nil, fmt.Errorf("neg: %s uses unknown path variable %s", f, a)
		}
	}
	// Letters automaton: tracks the joint state on letter symbols and
	// ignores node symbols. Runner ids double as NFA state ids: the
	// runner interns states in first-reached order, so the loop below
	// visits each state after the step that discovered it.
	r, alpha, symOf, err := classRunner(f.R, pos, e.Sigma, k)
	if err != nil {
		return nil, err
	}
	nodeAlpha := e.nodeSyms(k)
	letters := automata.NewNFA[string]()
	letters.SetStart(r.StartID())
	for from := 0; from < r.NumStates(); from++ {
		letters.AddState()
		letters.SetFinal(from, r.Accepting(from))
		for _, ns := range nodeAlpha {
			letters.AddTransition(from, ns, from)
		}
		for i, ls := range alpha {
			if to, ok := r.Step(from, symOf[i]); ok {
				letters.AddTransition(from, ecrpq.LetterSym([]rune(ls)), to)
			}
		}
	}
	return automata.Trim(automata.Intersect(e.validRep(k), letters)), nil
}

// classRunner compiles the atom R(pos) over k tapes the way every
// evaluating caller builds a joint — CompileClassAtoms, then a
// JointRunner stepping class tuples — and registers each letter of
// (Σ⊥)^k by the tuple of its labels' classes, once however many letters
// share it. It returns the runner, the letters and each one's symbol id.
func classRunner(rel *relations.Relation, pos []int, sigma []rune, k int) (*relations.JointRunner, []string, []int, error) {
	part, atoms, err := relations.CompileClassAtoms([]relations.Atom{{Rel: rel, Pos: pos}})
	if err != nil {
		return nil, nil, nil, err
	}
	joint, err := relations.NewJoint(k, atoms)
	if err != nil {
		return nil, nil, nil, err
	}
	r := relations.NewJointRunner(joint)
	alpha := relations.TupleAlphabet(sigma, k)
	symOf := make([]int, len(alpha))
	for i, ls := range alpha {
		cls := []rune(ls)
		for p, a := range cls {
			cls[p] = part.ClassOf(a)
		}
		symOf[i] = r.AddSym(cls)
	}
	return r, alpha, symOf, nil
}

// complement returns the complement of a relative to the valid
// representations over vars (the ¬ case of Claim 8.1.3).
func (e *Evaluator) complement(a *automata.NFA[string], vars []ecrpq.PathVar) (*automata.NFA[string], error) {
	k := len(vars)
	if k == 0 {
		return e.boolAutomaton(a.IsEmpty(), nil)
	}
	alpha := e.repAlphabet(k)
	d := automata.Determinize(a, alpha)
	if _, err := e.guardDFA(d); err != nil {
		return nil, err
	}
	comp := d.Complement().ToNFA()
	return e.guard(automata.Trim(automata.Intersect(comp, e.validRep(k))))
}

func (e *Evaluator) guardDFA(d *automata.DFA[string]) (*automata.DFA[string], error) {
	max := e.MaxStates
	if max == 0 {
		max = 200000
	}
	if d.NumStates() > max {
		return nil, ErrTooLarge
	}
	return d, nil
}

// project eliminates the coordinate of p (the ∃π case): node and letter
// symbols drop the coordinate; steps whose remaining letters are all ⊥
// contract to ε together with their following node symbol.
func (e *Evaluator) project(a *automata.NFA[string], innerVars []ecrpq.PathVar, p ecrpq.PathVar, outerVars []ecrpq.PathVar) (*automata.NFA[string], error) {
	if len(outerVars) == 0 {
		return e.boolAutomaton(!a.IsEmpty(), nil)
	}
	idx := slices.Index(innerVars, p)
	out := automata.NewNFA[string]()
	out.AddStates(a.NumStates())
	for _, s := range a.Start() {
		out.SetStart(s)
	}
	for q := 0; q < a.NumStates(); q++ {
		if a.IsFinal(q) {
			out.SetFinal(q, true)
		}
		for _, r := range a.EpsSuccessors(q) {
			out.AddEps(q, r)
		}
	}
	a.EachTransition(func(from int, sym string, to int) {
		switch {
		case len(sym) > 2 && sym[:2] == "N:":
			vs := ecrpq.DecodeNodeSym(sym)
			out.AddTransition(from, ecrpq.NodeSym(slices.Delete(vs, idx, idx+1)), to)
		case len(sym) > 2 && sym[:2] == "L:":
			rs := []rune(sym[2:])
			rest := slices.Delete(rs, idx, idx+1)
			if relations.AllBot(string(rest)) {
				// Contract: skip this letter and the following node symbol.
				a.TransitionsFrom(to, func(_ string, to2 int) {
					out.AddEps(from, to2)
				})
			} else {
				out.AddTransition(from, ecrpq.LetterSym(rest), to)
			}
		}
	})
	return e.guard(automata.Trim(out))
}
