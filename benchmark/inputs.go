package main

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Every input is derived from -seed the same way: the workload's base
// graph (a fixed generator instance, so its size and degree profile are
// the stated ones) is handed to the program as a seeded isomorphic copy —
// node ids permuted, edges inserted in shuffled order. Answer sets, node
// names in responses, intern and hash orders all differ from seed to
// seed, so nothing about the outputs can be known in advance, while the
// amount of work stays that of the base graph and runs at different
// seeds measure the same thing.

type edge struct {
	from  graph.Node
	label rune
	to    graph.Node
}

// sortedEdges lists g's edges in a canonical order (EachEdge visits the
// uncompacted delta in map order).
func sortedEdges(g *graph.DB) []edge {
	es := make([]edge, 0, g.NumEdges())
	g.EachEdge(func(from graph.Node, label rune, to graph.Node) {
		es = append(es, edge{from, label, to})
	})
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.label != b.label {
			return a.label < b.label
		}
		return a.to < b.to
	})
	return es
}

// permuted is the seeded isomorphic copy of base as an edge list: perm[v]
// is the id node v of base has in the copy.
type permuted struct {
	nodes int
	edges []edge
	perm  []graph.Node
}

func permute(base *graph.DB, r *rand.Rand) permuted {
	n := base.NumNodes()
	p := permuted{nodes: n, perm: make([]graph.Node, n)}
	for i, v := range r.Perm(n) {
		p.perm[i] = graph.Node(v)
	}
	p.edges = sortedEdges(base)
	for i := range p.edges {
		e := &p.edges[i]
		e.from, e.to = p.perm[e.from], p.perm[e.to]
	}
	r.Shuffle(len(p.edges), func(i, j int) { p.edges[i], p.edges[j] = p.edges[j], p.edges[i] })
	return p
}

// load inserts the copy into g, which must be empty. Nodes are anonymous,
// so the store names them n<id>.
func (p permuted) load(g *graph.DB) {
	g.AddNodes(p.nodes)
	for _, e := range p.edges {
		g.AddEdge(e.from, e.label, e.to)
	}
}

func (p permuted) memDB() *graph.DB {
	g := graph.NewDB()
	p.load(g)
	return g
}
