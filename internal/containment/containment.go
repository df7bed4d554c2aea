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
	tuples, err := canonicalTuples(q1, sigma, bound, limit)
	if err != nil {
		return nil, err
	}
	// Every canonical database is checked against Q2: compile it once.
	prog2, err := ecrpq.CompileProgram(q2, false)
	if err != nil {
		return nil, err
	}
	for _, words := range tuples {
		g, headVals := canonicalDB(q1, words)
		// Check the canonical head tuple against Q2.
		bind := map[ecrpq.NodeVar]graph.Node{}
		ok := true
		for i, z := range q2.HeadNodes {
			if prev, exists := bind[z]; exists && prev != headVals[i] {
				ok = false
				break
			}
			bind[z] = headVals[i]
		}
		if !ok {
			// Q2's head requires equal components that differ here: the
			// canonical tuple cannot be produced by Q2.
			return &Result{Bound: bound, Counter: &Counterexample{G: g, Head: headVals, Words: words}}, nil
		}
		o := opts
		o.Bind = bind
		res, err := prog2.Eval(context.Background(), g, o)
		if err != nil {
			return nil, err
		}
		if !res.Bool() {
			return &Result{Bound: bound, Counter: &Counterexample{G: g, Head: headVals, Words: words}}, nil
		}
	}
	return &Result{ContainedUpTo: true, Bound: bound}, nil
}

// canonicalTuples enumerates word tuples (one word per path atom of q)
// that jointly satisfy q's relation atoms, with each word of length at
// most bound, up to limit tuples. Enumeration runs over the materialized
// joint relation automaton so only satisfying tuples are generated.
func canonicalTuples(q *ecrpq.Query, sigma []rune, bound, limit int) ([][]string, error) {
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
	joint, err := relations.NewJoint(m, atoms)
	if err != nil {
		return nil, err
	}
	auto := joint.Materialize(relations.TupleAlphabet(sigma, m))
	words := auto.EnumerateAccepted(limit, bound)
	out := make([][]string, 0, len(words)+1)
	// The all-empty tuple is a valid convolution of length 0 (accepted iff
	// the joint start state accepts); EnumerateAccepted covers it via the
	// empty word.
	for _, w := range words {
		parts := relations.Deconvolve(w, m)
		tuple := make([]string, m)
		for i, rs := range parts {
			tuple[i] = string(rs)
		}
		out = append(out, tuple)
	}
	return out, nil
}

// canonicalDB builds the σ-canonical database of q for the given word
// tuple: one fresh simple path per atom spelling its word, glued at the
// nodes named by q's node variables (Claim 7.2.1). It returns the graph
// and the values of q's head node variables.
func canonicalDB(q *ecrpq.Query, words []string) (*graph.DB, []graph.Node) {
	g := graph.NewDB()
	varNode := map[ecrpq.NodeVar]graph.Node{}
	nodeOf := func(v ecrpq.NodeVar) graph.Node {
		if n, ok := varNode[v]; ok {
			return n
		}
		n := g.AddNode("var:" + string(v))
		varNode[v] = n
		return n
	}
	// ε-words collapse their endpoints: pre-process with union-find on
	// node variables.
	alias := map[ecrpq.NodeVar]ecrpq.NodeVar{}
	var find func(v ecrpq.NodeVar) ecrpq.NodeVar
	find = func(v ecrpq.NodeVar) ecrpq.NodeVar {
		if alias[v] == "" || alias[v] == v {
			alias[v] = v
			return v
		}
		r := find(alias[v])
		alias[v] = r
		return r
	}
	for i, a := range q.PathAtoms {
		if words[i] == "" {
			alias[find(a.X)] = find(a.Y)
		}
	}
	for i, a := range q.PathAtoms {
		from := nodeOf(find(a.X))
		to := nodeOf(find(a.Y))
		rs := []rune(words[i])
		if len(rs) == 0 {
			continue
		}
		prev := from
		for j, r := range rs {
			var next graph.Node
			if j == len(rs)-1 {
				next = to
			} else {
				next = g.AddNode(fmt.Sprintf("p%d_%d", i, j+1))
			}
			g.AddEdge(prev, r, next)
			prev = next
		}
	}
	head := make([]graph.Node, len(q.HeadNodes))
	for i, z := range q.HeadNodes {
		head[i] = nodeOf(find(z))
	}
	return g, head
}
