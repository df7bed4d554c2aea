package ecrpq

import (
	"fmt"
	"strings"

	"repro/internal/automata"
	"repro/internal/graph"
	"repro/internal/regex"
)

// PathAutomaton is the compact representation of the (possibly infinite)
// set of path tuples in a query answer, per Proposition 5.2: an automaton
// over the alphabet V^k ∪ (Σ⊥)^k that accepts exactly the representations
// v̄₀ā₁v̄₁⋯āₚv̄ₚ of the k-tuples of paths in Q(G, v̄).
//
// Representation symbols are encoded as strings: "N:v1,v2,...," for a
// node tuple and "L:" followed by the k runes for a letter tuple.
// Snap is the immutable graph snapshot the automaton was built over.
type PathAutomaton struct {
	A    *automata.NFA[string]
	K    int
	Snap *graph.Snapshot
}

// NodeSym encodes a k-tuple of nodes as a representation symbol.
func NodeSym(vs []graph.Node) string {
	var b strings.Builder
	b.WriteString("N:")
	for _, v := range vs {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// LetterSym encodes a k-tuple of Σ⊥ runes as a representation symbol.
func LetterSym(rs []rune) string { return "L:" + string(rs) }

// decodeSym splits a representation symbol; isNode selects which decoding
// applies.
func decodeNodeSym(s string) []graph.Node {
	parts := strings.Split(strings.TrimSuffix(strings.TrimPrefix(s, "N:"), ","), ",")
	out := make([]graph.Node, len(parts))
	for i, p := range parts {
		fmt.Sscanf(p, "%d", &out[i])
	}
	return out
}

// PathAutomaton builds the answer automaton A_Q^{(G,v̄)} for the given
// head-node values: it accepts precisely the representations of the head
// path tuples χ̄ with (v̄, χ̄) ∈ Q(G) (Proposition 5.2). The construction
// runs the m-tape product for every assignment of the non-head node
// variables, emits the alternating node/letter representation over all m
// tapes, marks Q-compatible accepting states, and projects onto the head
// path coordinates (all-⊥ projected steps become ε).
//
// The automaton is polynomial in |E| for a fixed query, as the
// proposition states; the constant is exponential in the query.
func (r *Result) PathAutomaton(headNodes []graph.Node) (*PathAutomaton, error) {
	return BuildPathAutomatonSnapshot(r.Query, r.Snap, headNodes, Options{})
}

// BuildPathAutomaton is the standalone form of Result.PathAutomaton —
// the take-current-snapshot shim over BuildPathAutomatonSnapshot.
func BuildPathAutomaton(q *Query, g *graph.DB, headNodes []graph.Node, opts Options) (*PathAutomaton, error) {
	return BuildPathAutomatonSnapshot(q, g.Snapshot(), headNodes, opts)
}

// BuildPathAutomatonSnapshot builds the answer automaton over a pinned
// immutable snapshot. The construction explores the same kind of
// product as the evaluator and honors opts.MaxProductStates (default
// 4,000,000) across all start assignments, failing with ErrBudget
// beyond it; opts.Bind is ignored (the head nodes are the binding).
func BuildPathAutomatonSnapshot(q *Query, s *graph.Snapshot, headNodes []graph.Node, opts Options) (*PathAutomaton, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(headNodes) != len(q.HeadNodes) {
		return nil, fmt.Errorf("ecrpq: PathAutomaton needs %d head nodes, got %d", len(q.HeadNodes), len(headNodes))
	}
	if len(q.HeadPaths) == 0 {
		return nil, fmt.Errorf("ecrpq: query has no head path variables")
	}
	bind := map[NodeVar]graph.Node{}
	for i, z := range q.HeadNodes {
		if prev, ok := bind[z]; ok && prev != headNodes[i] {
			// Inconsistent duplicate binding: empty automaton.
			return &PathAutomaton{A: automata.NewNFA[string](), K: len(q.HeadPaths), Snap: s}, nil
		}
		bind[z] = headNodes[i]
	}
	comps, err := decompose(q, true) // monolithic: all m tapes at once
	if err != nil {
		return nil, err
	}
	c := comps[0]
	m := len(c.vars)
	headIdx := make([]int, len(q.HeadPaths))
	for i, chi := range q.HeadPaths {
		headIdx[i] = c.varIdx[chi]
	}

	full := automata.NewNFA[string]()
	globalStart := full.AddState()
	full.SetStart(globalStart)

	// The representation automaton of each product run: globalStart
	// --N(v̄₀)--> s(p₀), and s(p) --L(ā)--> mid --N(v̄')--> s(p') for
	// each product transition.
	pb := newProductBuilder(s, c, opts, bind, full)
	err = pb.build(
		func(start []graph.Node, s0 int) { full.AddTransition(globalStart, NodeSym(start), s0) },
		func(from, to int) {
			mid := full.AddState()
			full.AddTransition(from, LetterSym(pb.symLabs), mid)
			full.AddTransition(mid, NodeSym(pb.next), to)
		})
	if err != nil {
		return nil, err
	}

	// Project the m-tape representation onto the head coordinates.
	proj := projectRep(full, m, headIdx)
	return &PathAutomaton{A: automata.Trim(proj), K: len(q.HeadPaths), Snap: s}, nil
}

// projectRep maps an m-tape representation automaton onto the head
// coordinates: node symbols are projected, letter symbols whose head
// projection is all-⊥ vanish together with the following node symbol
// (they represent steps where no head path advances).
func projectRep(full *automata.NFA[string], m int, headIdx []int) *automata.NFA[string] {
	out := automata.NewNFA[string]()
	out.AddStates(full.NumStates())
	for _, s := range full.Start() {
		out.SetStart(s)
	}
	for q := 0; q < full.NumStates(); q++ {
		if full.IsFinal(q) {
			out.SetFinal(q, true)
		}
	}
	full.EachTransition(func(from int, sym string, to int) {
		switch {
		case strings.HasPrefix(sym, "N:"):
			vs := decodeNodeSym(sym)
			proj := make([]graph.Node, len(headIdx))
			for i, h := range headIdx {
				proj[i] = vs[h]
			}
			out.AddTransition(from, NodeSym(proj), to)
		case strings.HasPrefix(sym, "L:"):
			rs := []rune(strings.TrimPrefix(sym, "L:"))
			proj := make([]rune, len(headIdx))
			allBot := true
			for i, h := range headIdx {
				proj[i] = rs[h]
				if rs[h] != regex.Bot {
					allBot = false
				}
			}
			if allBot {
				// Skip the letter and the following node symbol: from -ε->
				// target of the mid state's single N-transition.
				full.TransitionsFrom(to, func(_ string, to2 int) {
					out.AddEps(from, to2)
				})
			} else {
				out.AddTransition(from, LetterSym(proj), to)
			}
		}
	})
	return out
}

// Representation builds the representation word of a tuple of paths: the
// alternating node-tuple / letter-tuple string whose letters are the
// convolution of the path labels (Section 5).
func Representation(paths []graph.Path) []string {
	k := len(paths)
	maxLen := 0
	for _, p := range paths {
		if p.Len() > maxLen {
			maxLen = p.Len()
		}
	}
	var out []string
	nodes := make([]graph.Node, k)
	letters := make([]rune, k)
	for i := 0; i <= maxLen; i++ {
		for j, p := range paths {
			if i < len(p.Nodes) {
				nodes[j] = p.Nodes[i]
			} else {
				nodes[j] = p.Nodes[len(p.Nodes)-1]
			}
		}
		out = append(out, NodeSym(nodes))
		if i == maxLen {
			break
		}
		for j, p := range paths {
			if i < p.Len() {
				letters[j] = p.Labels[i]
			} else {
				letters[j] = regex.Bot
			}
		}
		out = append(out, LetterSym(letters))
	}
	return out
}

// AcceptsTuple reports whether the automaton accepts the representation
// of the given path tuple.
func (pa *PathAutomaton) AcceptsTuple(paths []graph.Path) bool {
	if len(paths) != pa.K {
		return false
	}
	return pa.A.Accepts(Representation(paths))
}

// Enumerate returns up to limit path tuples whose longest member has at
// most maxPathLen edges, decoded from the automaton's accepted words.
func (pa *PathAutomaton) Enumerate(limit, maxPathLen int) [][]graph.Path {
	words := pa.A.EnumerateAccepted(limit, 2*maxPathLen+1)
	var out [][]graph.Path
	for _, w := range words {
		if tuple, ok := decodeRepresentation(w, pa.K); ok {
			out = append(out, tuple)
		}
	}
	return out
}

// decodeRepresentation parses a representation word back into a path
// tuple, stripping per-coordinate ⊥ steps.
func decodeRepresentation(w []string, k int) ([]graph.Path, bool) {
	if len(w) == 0 || len(w)%2 == 0 {
		return nil, false
	}
	paths := make([]graph.Path, k)
	first := decodeNodeSym(w[0])
	if len(first) != k {
		return nil, false
	}
	for j := range paths {
		paths[j] = graph.Path{Nodes: []graph.Node{first[j]}}
	}
	for i := 1; i < len(w); i += 2 {
		if !strings.HasPrefix(w[i], "L:") || !strings.HasPrefix(w[i+1], "N:") {
			return nil, false
		}
		rs := []rune(strings.TrimPrefix(w[i], "L:"))
		vs := decodeNodeSym(w[i+1])
		if len(rs) != k || len(vs) != k {
			return nil, false
		}
		for j := 0; j < k; j++ {
			if rs[j] == regex.Bot {
				continue
			}
			paths[j].Nodes = append(paths[j].Nodes, vs[j])
			paths[j].Labels = append(paths[j].Labels, rs[j])
		}
	}
	return paths, true
}

// Member decides the ECRPQ-EVAL problem of Section 6: does (v̄, ρ̄) belong
// to Q(G)? Nodes instantiate the head node variables and paths the head
// path variables. For queries without head paths this reduces to node
// evaluation with bound constants; otherwise the answer automaton of
// Proposition 5.2 is built for v̄ and tested on the representation of ρ̄.
func Member(q *Query, g *graph.DB, nodes []graph.Node, paths []graph.Path, opts Options) (bool, error) {
	if err := q.Validate(); err != nil {
		return false, err
	}
	if len(nodes) != len(q.HeadNodes) || len(paths) != len(q.HeadPaths) {
		return false, fmt.Errorf("ecrpq: Member needs %d nodes and %d paths, got %d and %d",
			len(q.HeadNodes), len(q.HeadPaths), len(nodes), len(paths))
	}
	for _, p := range paths {
		if err := p.Validate(g); err != nil {
			return false, err
		}
	}
	if len(q.HeadPaths) == 0 {
		bind := map[NodeVar]graph.Node{}
		for i, z := range q.HeadNodes {
			if prev, ok := bind[z]; ok && prev != nodes[i] {
				return false, nil
			}
			bind[z] = nodes[i]
		}
		o := opts
		o.Bind = bind
		res, err := Eval(q, g, o)
		if err != nil {
			return false, err
		}
		return res.Bool(), nil
	}
	pa, err := BuildPathAutomaton(q, g, nodes, opts)
	if err != nil {
		return false, err
	}
	return pa.AcceptsTuple(paths), nil
}
