package neg

import (
	"fmt"
	"maps"

	"repro/internal/automata"
	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/relations"
)

// This file implements the dedicated CRPQ¬ evaluation of Theorem 8.1
// (first part): for formulas whose relation atoms are all unary (regular
// languages), evaluation is PSPACE in combined complexity — far below the
// non-elementary generic automaton construction, which must be used as
// soon as proper relations appear.
//
// The proof replaces the infinite structure M_G (whose domain contains
// every path of G) by a finite substructure M'_{G,v̄,ρ̄}: paths are
// indistinguishable beyond their endpoints and the subset of the
// formula's languages they satisfy, provided enough representatives of
// each class are kept — k + |ρ̄| of them, where k is the quantifier rank
// (Claim 8.1.1, by an Ehrenfeucht–Fraïssé argument). Our evaluator
// quantifies path variables over path *classes* (endpoints, language
// profile, representative index < min(count, k)), computing the number
// of concrete paths in each class exactly up to the threshold via
// DAG-counting on the product of G with the profile's DFAs.

// CRPQNegEvaluator evaluates CRPQ¬ formulas by the Theorem 8.1 finite
// substructure. Like Evaluator, it pins the graph snapshot at
// construction time and reads only that epoch.
type CRPQNegEvaluator struct {
	Snap  *graph.Snapshot
	Sigma []rune
}

// NewCRPQNegEvaluator returns the dedicated CRPQ¬ evaluator pinned to
// the snapshot g yields.
func NewCRPQNegEvaluator(g graph.Snapshotter) *CRPQNegEvaluator {
	s := g.Snapshot()
	return &CRPQNegEvaluator{Snap: s, Sigma: s.Alphabet()}
}

// pathClass identifies one equivalence class of paths: endpoints and the
// exact subset of formula languages the path's label satisfies, plus a
// representative index (two paths of the same class with different
// indexes are distinct concrete paths).
type pathClass struct {
	from, to graph.Node
	profile  int // bitmask over the formula's language atoms
	index    int // 0 ≤ index < count(class) capped at the threshold
}

// HoldsCRPQ evaluates a CRPQ¬ sentence. It errors if the formula uses a
// relation of arity ≥ 2 (use the generic Evaluator then).
func (e *CRPQNegEvaluator) HoldsCRPQ(f Formula) (bool, error) {
	if vs := freeNodeVarsOf(f); len(vs) != 0 {
		return false, fmt.Errorf("neg: formula has free node variables %v", vs)
	}
	if vs := freePathVarsOf(f); len(vs) != 0 {
		return false, fmt.Errorf("neg: formula has free path variables %v", vs)
	}
	langs, idx, err := collectLanguages(f, e.Sigma)
	if err != nil {
		return false, err
	}
	k := quantRank(f)
	if k == 0 {
		k = 1
	}
	ctx := &crpqNegCtx{
		e:      e,
		langs:  langs,
		thresh: k,
		counts: map[classKey]int{},
		idx:    idx,
	}
	return ctx.eval(f, map[ecrpq.NodeVar]graph.Node{}, map[ecrpq.PathVar]pathClass{})
}

// collectLanguages gathers the unary language atoms as DFAs over sigma,
// erroring on arity ≥ 2 relations, and assigns each distinct Rel value
// its profile bit index (stable across collection and evaluation).
// pathEq counts as a binary relation and is rejected: the paper's CRPQ¬
// fragment has no path comparisons.
func collectLanguages(f Formula, sigma []rune) ([]*automata.DFA[rune], map[string]int, error) {
	var dfas []*automata.DFA[rune]
	idx := map[string]int{}
	var walk func(f Formula) error
	walk = func(f Formula) error {
		switch f := f.(type) {
		case Rel:
			if f.R.Arity != 1 {
				return fmt.Errorf("neg: %s has arity %d; CRPQ¬ admits only regular languages", f.R.Name, f.R.Arity)
			}
			key := fmt.Sprintf("%p", f.R)
			if _, ok := idx[key]; ok {
				return nil
			}
			d, err := languageDFA(f.R, sigma)
			if err != nil {
				return err
			}
			idx[key] = len(dfas)
			dfas = append(dfas, d)
			return nil
		case pathEq:
			return fmt.Errorf("neg: path equality is a binary relation; not allowed in CRPQ¬")
		case Not:
			return walk(f.F)
		case And:
			if err := walk(f.F); err != nil {
				return err
			}
			return walk(f.G)
		case or:
			if err := walk(f.F); err != nil {
				return err
			}
			return walk(f.G)
		case ExistsNode:
			return walk(f.F)
		case ExistsPath:
			return walk(f.F)
		}
		return nil
	}
	if err := walk(f); err != nil {
		return nil, nil, err
	}
	return dfas, idx, nil
}

// languageDFA compiles a unary language as relAutomaton compiles an
// atom (classRunner) and expands it over sigma: the DFA's states are the
// runner's, and each label steps by its class. A label the language
// cannot read has no transition, so its paths are rejected.
func languageDFA(rel *relations.Relation, sigma []rune) (*automata.DFA[rune], error) {
	r, alpha, symOf, err := classRunner(rel, []int{0}, sigma, 1)
	if err != nil {
		return nil, err
	}
	d := &automata.DFA[rune]{Alphabet: sigma, Start: r.StartID()}
	// The runner interns states in first-reached order, so the loop
	// visits each state after the step that discovered it.
	for q := 0; q < r.NumStates(); q++ {
		row := map[rune]int{}
		for i, ls := range alpha {
			if to, ok := r.Step(q, symOf[i]); ok {
				row[[]rune(ls)[0]] = to
			}
		}
		d.Delta = append(d.Delta, row)
		d.Final = append(d.Final, r.Accepting(q))
	}
	return d, nil
}

// quantRank returns the quantifier rank of f: the deepest nesting of
// node and path quantifiers.
func quantRank(f Formula) int {
	switch f := f.(type) {
	case Not:
		return quantRank(f.F)
	case And:
		return max(quantRank(f.F), quantRank(f.G))
	case or:
		return max(quantRank(f.F), quantRank(f.G))
	case ExistsNode:
		return 1 + quantRank(f.F)
	case ExistsPath:
		return 1 + quantRank(f.F)
	default:
		return 0
	}
}

type classKey struct {
	from, to graph.Node
	profile  int
}

type crpqNegCtx struct {
	e      *CRPQNegEvaluator
	langs  []*automata.DFA[rune]
	thresh int
	counts map[classKey]int // count capped at thresh+1; memoized
	idx    map[string]int   // Rel identity -> profile bit, from collection
}

// eval recursively evaluates the formula over the finite substructure.
func (c *crpqNegCtx) eval(f Formula, sigma map[ecrpq.NodeVar]graph.Node, mu map[ecrpq.PathVar]pathClass) (bool, error) {
	switch f := f.(type) {
	case nodeEq:
		return sigma[f.X] == sigma[f.Y], nil
	case Edge:
		pc, ok := mu[f.P]
		if !ok {
			return false, fmt.Errorf("neg: unbound path variable %s", f.P)
		}
		return pc.from == sigma[f.X] && pc.to == sigma[f.Y], nil
	case Rel:
		pc, ok := mu[f.Args[0]]
		if !ok {
			return false, fmt.Errorf("neg: unbound path variable %s", f.Args[0])
		}
		i, ok := c.idx[fmt.Sprintf("%p", f.R)]
		if !ok {
			return false, fmt.Errorf("neg: internal: unregistered language atom %s", f)
		}
		return pc.profile&(1<<i) != 0, nil
	case Not:
		v, err := c.eval(f.F, sigma, mu)
		return !v, err
	case And:
		l, err := c.eval(f.F, sigma, mu)
		if err != nil || !l {
			return false, err
		}
		return c.eval(f.G, sigma, mu)
	case or:
		l, err := c.eval(f.F, sigma, mu)
		if err != nil || l {
			return l, err
		}
		return c.eval(f.G, sigma, mu)
	case ExistsNode:
		for v := 0; v < c.e.Snap.NumNodes(); v++ {
			s2 := cloneAssign(sigma)
			s2[f.X] = graph.Node(v)
			ok, err := c.eval(f.F, s2, mu)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case ExistsPath:
		n := c.e.Snap.NumNodes()
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				for profile := 0; profile < 1<<len(c.langs); profile++ {
					cnt := c.classCount(classKey{graph.Node(from), graph.Node(to), profile})
					if cnt > c.thresh {
						cnt = c.thresh
					}
					for index := 0; index < cnt; index++ {
						mu2 := maps.Clone(mu)
						mu2[f.P] = pathClass{graph.Node(from), graph.Node(to), profile, index}
						ok, err := c.eval(f.F, sigma, mu2)
						if err != nil {
							return false, err
						}
						if ok {
							return true, nil
						}
					}
				}
			}
		}
		return false, nil
	case pathEq:
		return false, fmt.Errorf("neg: path equality not allowed in CRPQ¬")
	}
	return false, fmt.Errorf("neg: unknown formula %T", f)
}

// classCount returns the number of concrete paths from k.from to k.to
// whose label satisfies exactly the languages in k.profile, capped at
// thresh+1 (all counts beyond the threshold are equivalent, per the
// Ehrenfeucht–Fraïssé argument of Claim 8.1.1).
func (c *crpqNegCtx) classCount(k classKey) int {
	if cnt, ok := c.counts[k]; ok {
		return cnt
	}
	cnt := c.countPaths(k)
	c.counts[k] = cnt
	return cnt
}

// countPaths counts accepting paths in the product of G with all profile
// DFAs (membership for set bits, non-membership for clear bits): the
// product is deterministic given the G-path, so distinct G-paths
// correspond 1:1 to distinct product paths. If the trimmed product has a
// cycle the count is infinite (returned as thresh+1); otherwise a DAG
// count, capped.
func (c *crpqNegCtx) countPaths(k classKey) int {
	cap := c.thresh + 1
	nLangs := len(c.langs)
	type pstate struct {
		v   graph.Node
		dfa string // encoded DFA state vector
	}
	encode := func(states []int) string {
		b := make([]byte, 0, 2*nLangs)
		for _, s := range states {
			b = append(b, byte(s), byte(s>>8))
		}
		return string(b)
	}
	startStates := make([]int, nLangs)
	for i, d := range c.langs {
		startStates[i] = d.Start
	}
	accepting := func(states []int) bool {
		for i, d := range c.langs {
			inLang := states[i] >= 0 && d.Final[states[i]]
			want := k.profile&(1<<i) != 0
			if inLang != want {
				return false
			}
		}
		return true
	}
	// Forward exploration from (k.from, start); memoize state vectors.
	type nodeID int
	ids := map[pstate]nodeID{}
	var vecs [][]int
	var nodes []pstate
	var adj [][]nodeID
	var stack []nodeID
	getID := func(v graph.Node, states []int) nodeID {
		ps := pstate{v, encode(states)}
		if id, ok := ids[ps]; ok {
			return id
		}
		id := nodeID(len(nodes))
		ids[ps] = id
		nodes = append(nodes, ps)
		vecs = append(vecs, append([]int(nil), states...))
		adj = append(adj, nil)
		stack = append(stack, id)
		return id
	}
	startID := getID(k.from, startStates)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ps := nodes[id]
		states := vecs[id]
		c.e.Snap.EdgesFrom(ps.v, func(a rune, to graph.Node) {
			next := make([]int, nLangs)
			for i, d := range c.langs {
				if states[i] < 0 {
					next[i] = -1
					continue
				}
				nx, ok := d.Delta[states[i]][a]
				if !ok {
					// Symbol outside this DFA's alphabet: the word is not
					// in the language; mark rejected but keep going (the
					// profile may still require non-membership).
					next[i] = -1
					continue
				}
				next[i] = nx
			}
			adj[id] = append(adj[id], getID(to, next))
		})
	}
	// Final states: right node and exact profile.
	isFinal := make([]bool, len(nodes))
	anyFinal := false
	for id, ps := range nodes {
		if ps.v == k.to && accepting(vecs[id]) {
			isFinal[id] = true
			anyFinal = true
		}
	}
	if !anyFinal {
		return 0
	}
	// Co-reachability.
	co := make([]bool, len(nodes))
	rev := make([][]nodeID, len(nodes))
	for id := range adj {
		for _, to := range adj[id] {
			rev[to] = append(rev[to], nodeID(id))
		}
	}
	var cstack []nodeID
	for id := range isFinal {
		if isFinal[id] {
			co[id] = true
			cstack = append(cstack, nodeID(id))
		}
	}
	for len(cstack) > 0 {
		id := cstack[len(cstack)-1]
		cstack = cstack[:len(cstack)-1]
		for _, p := range rev[id] {
			if !co[p] {
				co[p] = true
				cstack = append(cstack, p)
			}
		}
	}
	if !co[startID] {
		return 0
	}
	// Cycle detection restricted to useful states (reachable ∧ co-reachable):
	// any cycle there lies on an accepting path ⇒ infinitely many paths.
	color := make([]int, len(nodes)) // 0 white, 1 gray, 2 black
	var hasCycle bool
	var dfs func(id nodeID)
	dfs = func(id nodeID) {
		color[id] = 1
		for _, to := range adj[id] {
			if !co[to] || hasCycle {
				continue
			}
			switch color[to] {
			case 0:
				dfs(to)
			case 1:
				hasCycle = true
			}
		}
		color[id] = 2
	}
	dfs(startID)
	if hasCycle {
		return cap
	}
	// DAG count of paths start → finals (counts capped at cap).
	memo := make([]int, len(nodes))
	visited := make([]bool, len(nodes))
	var count func(id nodeID) int
	count = func(id nodeID) int {
		if visited[id] {
			return memo[id]
		}
		visited[id] = true
		total := 0
		if isFinal[id] {
			total++
		}
		for _, to := range adj[id] {
			if !co[to] {
				continue
			}
			total += count(to)
			if total >= cap {
				total = cap
				break
			}
		}
		memo[id] = total
		return total
	}
	return count(startID)
}
