// Package containment implements the static-analysis problems of
// Section 7 of the paper.
//
// The landscape there is: containment of RPQs (regular languages) is
// decidable; containment of CRPQs is EXPSPACE-complete (Calvanese et al.
// 2000); containment of an ECRPQ in a CRPQ is EXPSPACE-complete
// (Theorem 7.2); and containment between ECRPQs is undecidable
// (Theorem 7.1, by encoding pattern-language containment, which
// Freydenberger–Reidenbach 2010 proved undecidable — see
// pattern.MarkedQuery for the encoding).
//
// Accordingly this package offers: an exact decision procedure for RPQ
// containment, and a canonical-database search for (E)CRPQ containment
// based on the semantic characterization of Claim 7.2.1 — Q ⊈ Q' iff some
// σ-canonical database of Q (one fresh path per atom, whose labels
// jointly satisfy Q's relations) fails Q'. The search enumerates
// canonical databases with paths up to a length bound: a found
// counterexample is always genuine; "contained" verdicts are certified
// only up to the bound (the theoretical bound that would make the search
// complete is exponential in the queries, per the EXPSPACE upper bound).
package containment

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/automata"
	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/relations"
)

// RPQContained decides L(r1) ⊆ L(r2) exactly, over the given alphabet.
func RPQContained(r1, r2 string, sigma []rune) (bool, error) {
	n1, err := regex.Parse(r1)
	if err != nil {
		return false, err
	}
	n2, err := regex.Parse(r2)
	if err != nil {
		return false, err
	}
	return automata.Subset(automata.FromRegex(n1), automata.FromRegex(n2), sigma), nil
}

// Counterexample witnesses non-containment: a canonical database of Q on
// which Q's canonical head tuple is not in Q'(G).
type Counterexample struct {
	G     *graph.DB
	Head  []graph.Node
	Words []string // the path labels instantiating Q's atoms
}

// Result reports the outcome of the bounded canonical-database search.
type Result struct {
	// ContainedUpTo is true when no counterexample with canonical paths
	// of length ≤ Bound exists; this certifies containment only up to
	// that bound (see the package comment).
	ContainedUpTo bool
	Bound         int
	Counter       *Counterexample

	// Tuples counts the canonical word tuples checked against Q2, and
	// Compiled the times Q2 was compiled for them: once per Check.
	Tuples, Compiled int
}

// Check searches for a counterexample to Q1 ⊆ Q2 among the canonical
// databases of Q1 whose paths have length at most bound; limit caps the
// number of canonical word tuples tried. Q1 may be a full ECRPQ; head
// path variables are not supported (project heads to nodes).
func Check(q1, q2 *ecrpq.Query, sigma []rune, bound, limit int, opts ecrpq.Options) (*Result, error) {
	if err := q1.Validate(); err != nil {
		return nil, err
	}
	if err := q2.Validate(); err != nil {
		return nil, err
	}
	if len(q1.HeadPaths) > 0 || len(q2.HeadPaths) > 0 {
		return nil, fmt.Errorf("containment: head path variables are not supported")
	}
	if len(q1.HeadNodes) != len(q2.HeadNodes) {
		return nil, fmt.Errorf("containment: head arities differ (%d vs %d)", len(q1.HeadNodes), len(q2.HeadNodes))
	}
	if q1.AllowRepeatedPathVars {
		return nil, fmt.Errorf("containment: repeated path variables are not supported in Q1")
	}
	refine := make([]*relations.Relation, len(q2.RelAtoms))
	for i, ra := range q2.RelAtoms {
		refine[i] = ra.Rel
	}
	tuples, err := canonicalTuples(q1, refine, sigma, bound, limit)
	if err != nil {
		return nil, err
	}
	// Every canonical database is checked against Q2: compile it once.
	prog2, err := ecrpq.CompileProgram(q2, false)
	if err != nil {
		return nil, err
	}
	res := &Result{Bound: bound, Compiled: 1}
	for _, words := range tuples {
		res.Tuples++
		g, head := canonicalDB(q1, words)
		// Q2 must produce the canonical head tuple; a head variable Q2
		// repeats must meet equal components.
		o, ok := opts, true
		o.Bind = map[ecrpq.NodeVar]graph.Node{}
		for i, z := range q2.HeadNodes {
			if prev, seen := o.Bind[z]; seen && prev != head[i] {
				ok = false
			}
			o.Bind[z] = head[i]
		}
		if ok {
			ans, err := prog2.Eval(context.Background(), g, o)
			if err != nil {
				return nil, err
			}
			ok = ans.Bool()
		}
		if !ok {
			res.Counter = &Counterexample{G: g, Head: head, Words: words}
			return res, nil
		}
	}
	res.ContainedUpTo = true
	return res, nil
}

// canonicalTuples enumerates word tuples (one word per path atom of q)
// that jointly satisfy q's relation atoms, with each word of length at
// most bound, up to limit tuples, in nondecreasing length. q's relation
// atoms are compiled as the evaluator compiles a component
// (CompileClassAtoms), over a partition that refine's relations refine
// too, and the search steps the joint runner on class tuples: per tape
// only the classes Live admits, and ⊥ where it admits ⊥. A class stands
// for one label of sigma, the first that falls in it: neither q nor the
// refining query tells a class's members apart, so a tuple with other
// members of the same classes satisfies q and fails the refining query
// exactly when this one does. Classes no label of sigma falls in are
// never read.
func canonicalTuples(q *ecrpq.Query, refine []*relations.Relation, sigma []rune, bound, limit int) ([][]string, error) {
	m := len(q.PathAtoms)
	idx := map[ecrpq.PathVar]int{}
	for i, a := range q.PathAtoms {
		idx[a.Pi] = i
	}
	var atoms []relations.Atom
	for _, ra := range q.RelAtoms {
		pos := make([]int, len(ra.Args))
		for i, v := range ra.Args {
			pos[i] = idx[v]
		}
		atoms = append(atoms, relations.Atom{Rel: ra.Rel, Pos: pos})
	}
	part, atoms, err := relations.CompileClassAtoms(atoms, refine...)
	if err != nil {
		return nil, err
	}
	joint, err := relations.NewJoint(m, atoms)
	if err != nil {
		return nil, err
	}
	r := relations.NewJointRunner(joint)
	// label[c] is the σ label class c stands for (0: none); classes lists
	// the classes that have one.
	label := make([]rune, part.DeadClass()+1)
	var classes []rune
	for _, a := range sigma {
		if c := part.ClassOf(a); a != relations.Bot && label[c] == 0 {
			label[c] = a
			classes = append(classes, c)
		}
	}
	slices.Sort(classes)

	type node struct {
		state int
		words []string
	}
	var out [][]string
	if r.Accepting(r.StartID()) {
		out = append(out, make([]string, m))
	}
	choices := make([][]rune, m)
	sym := make([]rune, m)
	// step tries every tuple of the tapes' choices from position p on,
	// all-⊥ excluded, in lexicographic order.
	var from node
	var next []node
	var step func(p int)
	step = func(p int) {
		if p < m {
			for _, c := range choices[p] {
				sym[p] = c
				step(p + 1)
			}
			return
		}
		if len(out) >= limit || !slices.ContainsFunc(sym, func(c rune) bool { return c != relations.Bot }) {
			return
		}
		to, ok := r.Step(from.state, r.AddSym(sym))
		if !ok {
			return
		}
		n := node{state: to, words: slices.Clone(from.words)}
		for p, c := range sym {
			if c != relations.Bot {
				n.words[p] += string(label[c])
			}
		}
		next = append(next, n)
		if r.Accepting(to) {
			out = append(out, n.words)
		}
	}
	cur := []node{{state: r.StartID(), words: make([]string, m)}}
	for depth := 0; depth < bound && len(cur) > 0 && len(out) < limit; depth++ {
		next = nil
		for _, from = range cur {
			// Per tape: ⊥ first where Live admits it, then the live classes.
			for p, ls := range r.Live(from.state) {
				choices[p] = choices[p][:0]
				if ls.Bot {
					choices[p] = append(choices[p], relations.Bot)
				}
				for _, c := range ls.Labels {
					if c < rune(len(label)) && label[c] != 0 {
						choices[p] = append(choices[p], c)
					}
				}
				if ls.All {
					choices[p] = append(choices[p], classes...)
				}
			}
			step(0)
		}
		cur = next
	}
	return out, nil
}

// canonicalDB builds the σ-canonical database of q for the given word
// tuple: one fresh simple path per atom spelling its word, glued at the
// nodes named by q's node variables (Claim 7.2.1). It returns the graph
// and the values of q's head node variables.
func canonicalDB(q *ecrpq.Query, words []string) (*graph.DB, []graph.Node) {
	// ε-words collapse their endpoints: union-find on node variables.
	alias := map[ecrpq.NodeVar]ecrpq.NodeVar{}
	find := func(v ecrpq.NodeVar) ecrpq.NodeVar {
		for alias[v] != "" {
			v = alias[v]
		}
		return v
	}
	for i, a := range q.PathAtoms {
		if x, y := find(a.X), find(a.Y); words[i] == "" && x != y {
			alias[x] = y
		}
	}
	g := graph.NewDB()
	varNode := map[ecrpq.NodeVar]graph.Node{}
	nodeOf := func(v ecrpq.NodeVar) graph.Node {
		v = find(v)
		if _, ok := varNode[v]; !ok {
			varNode[v] = g.AddNode("var:" + string(v))
		}
		return varNode[v]
	}
	for i, a := range q.PathAtoms {
		prev, to := nodeOf(a.X), nodeOf(a.Y)
		rs := []rune(words[i])
		for j, r := range rs {
			next := to
			if j < len(rs)-1 {
				next = g.AddNode(fmt.Sprintf("p%d_%d", i, j+1))
			}
			g.AddEdge(prev, r, next)
			prev = next
		}
	}
	head := make([]graph.Node, len(q.HeadNodes))
	for i, z := range q.HeadNodes {
		head[i] = nodeOf(z)
	}
	return g, head
}
