package ecrpq

import (
	"repro/internal/graph"
)

// NaiveEval evaluates q by direct enumeration of the semantics of
// Definition 3.1: it ranges over all mappings μ assigning each path atom
// a path of at most maxLen edges (and σ the induced endpoints), checks
// every relation atom by membership, and collects head tuples.
//
// Paths longer than maxLen are not considered, so NaiveEval is a sound
// but incomplete approximation whose answer set grows to Q(G) as maxLen
// increases; on DAGs any maxLen ≥ the longest simple path is exact. It
// exists as the correctness oracle for the production evaluator and for
// tests, and its cost is exponential in maxLen and the atom count. It
// reads the one snapshot g yields, so passing the snapshot the
// production evaluator saw makes the oracle see exactly that epoch.
func NaiveEval(q *Query, g graph.Snapshotter, maxLen int) ([]Answer, error) {
	s := g.Snapshot()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Pre-enumerate all paths from every node.
	var allPaths []graph.Path
	for v := 0; v < s.NumNodes(); v++ {
		allPaths = append(allPaths, s.AllPaths(graph.Node(v), maxLen)...)
	}
	m := len(q.PathAtoms)
	choice := make([]graph.Path, m)
	var out []Answer
	seen := map[string]int{}

	var rec func(i int)
	rec = func(i int) {
		if i < m {
			for _, p := range allPaths {
				choice[i] = p
				if consistentPrefix(q, choice[:i+1]) {
					rec(i + 1)
				}
			}
			return
		}
		// All path atoms assigned; σ is induced. Check relation atoms.
		mu := map[PathVar]graph.Path{}
		for j, a := range q.PathAtoms {
			mu[a.Pi] = choice[j]
		}
		for _, ra := range q.RelAtoms {
			args := make([][]rune, len(ra.Args))
			for k, v := range ra.Args {
				args[k] = mu[v].Label()
			}
			if !ra.Rel.Contains(args...) {
				return
			}
		}
		sigma := map[NodeVar]graph.Node{}
		for j, a := range q.PathAtoms {
			sigma[a.X] = choice[j].From()
			sigma[a.Y] = choice[j].To()
		}
		ans := Answer{}
		for _, z := range q.HeadNodes {
			ans.Nodes = append(ans.Nodes, sigma[z])
		}
		for _, chi := range q.HeadPaths {
			ans.Paths = append(ans.Paths, mu[chi])
		}
		k := ans.Key()
		if idx, ok := seen[k]; ok {
			// Keep the shortest witness per head path variable, mirroring
			// the production evaluator's merge, so NaiveEval serves as a
			// witness-length oracle too.
			for pi := range q.HeadPaths {
				if ans.Paths[pi].Len() < out[idx].Paths[pi].Len() {
					out[idx].Paths[pi] = ans.Paths[pi]
				}
			}
		} else {
			seen[k] = len(out)
			out = append(out, ans)
		}
	}
	rec(0)
	return out, nil
}

// consistentPrefix checks that the endpoint constraints induced by the
// first i+1 path-atom assignments are consistent (same node variable ⇒
// same node, and repeated path variables get identical paths).
func consistentPrefix(q *Query, choice []graph.Path) bool {
	sigma := map[NodeVar]graph.Node{}
	mu := map[PathVar]graph.Path{}
	for j, p := range choice {
		a := q.PathAtoms[j]
		if prev, ok := sigma[a.X]; ok && prev != p.From() {
			return false
		}
		if prev, ok := mu[a.Pi]; ok && !prev.Equal(p) {
			return false
		}
		sigma[a.X] = p.From()
		mu[a.Pi] = p
		if prev, ok := sigma[a.Y]; ok && prev != p.To() {
			return false
		}
		sigma[a.Y] = p.To()
	}
	return true
}
