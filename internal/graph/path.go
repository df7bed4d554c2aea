package graph

import (
	"fmt"
	"strings"

	"repro/internal/regex"
)

// Path is a path ρ = v₀a₀v₁a₁⋯vₘ in a graph database (Section 2 of the
// paper): len(Nodes) = len(Labels)+1, and every (Nodes[i], Labels[i],
// Nodes[i+1]) must be an edge. The empty path at v is {Nodes: [v]}.
type Path struct {
	Nodes  []Node
	Labels []rune
}

// EmptyPath returns the empty path (v, ε, v).
func EmptyPath(v Node) Path { return Path{Nodes: []Node{v}} }

// From returns the first node of the path.
func (p Path) From() Node { return p.Nodes[0] }

// To returns the last node of the path.
func (p Path) To() Node { return p.Nodes[len(p.Nodes)-1] }

// Len returns the number of edges on the path.
func (p Path) Len() int { return len(p.Labels) }

// Label returns λ(ρ), the string of edge labels, as a rune slice.
func (p Path) Label() []rune { return append([]rune(nil), p.Labels...) }

// LabelString returns λ(ρ) as a Go string (⊥ rendered as "_").
func (p Path) LabelString() string {
	var b strings.Builder
	for _, r := range p.Labels {
		if r == regex.Bot {
			b.WriteByte('_')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Extend returns a new path with the edge (p.To(), label, to) appended.
func (p Path) Extend(label rune, to Node) Path {
	return Path{
		Nodes:  append(append([]Node(nil), p.Nodes...), to),
		Labels: append(append([]rune(nil), p.Labels...), label),
	}
}

// Equal reports structural equality of paths.
func (p Path) Equal(q Path) bool {
	if len(p.Nodes) != len(q.Nodes) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i] != q.Nodes[i] {
			return false
		}
	}
	for i := range p.Labels {
		if p.Labels[i] != q.Labels[i] {
			return false
		}
	}
	return true
}

// Validate checks that p is a path of the snapshot g yields.
func (p Path) Validate(g Snapshotter) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("graph: path has no nodes")
	}
	if len(p.Nodes) != len(p.Labels)+1 {
		return fmt.Errorf("graph: path has %d nodes and %d labels", len(p.Nodes), len(p.Labels))
	}
	s := g.Snapshot()
	for i, a := range p.Labels {
		if !s.HasEdge(p.Nodes[i], a, p.Nodes[i+1]) {
			return fmt.Errorf("graph: missing edge (%s, %q, %s)",
				s.Name(p.Nodes[i]), a, s.Name(p.Nodes[i+1]))
		}
	}
	return nil
}

// StripBotLoops returns the path obtained by removing every ⊥-labeled
// self-loop step v—⊥→v; this is the operation ρ̄s(j) of Section 5 turning
// a path of G⊥ back into a path of G.
func (p Path) StripBotLoops() Path {
	out := Path{Nodes: []Node{p.Nodes[0]}}
	for i, a := range p.Labels {
		if a == regex.Bot && p.Nodes[i] == p.Nodes[i+1] {
			continue
		}
		out.Nodes = append(out.Nodes, p.Nodes[i+1])
		out.Labels = append(out.Labels, a)
	}
	return out
}

// Format renders the path as v0 -a-> v1 -b-> v2 using the node names of
// the snapshot g yields.
func (p Path) Format(g Snapshotter) string {
	s := g.Snapshot()
	var b strings.Builder
	b.WriteString(s.Name(p.Nodes[0]))
	for i, a := range p.Labels {
		label := string(a)
		if a == regex.Bot {
			label = "_"
		}
		fmt.Fprintf(&b, " -%s-> %s", label, s.Name(p.Nodes[i+1]))
	}
	return b.String()
}

// AllPaths returns every path of g starting at from with at most maxLen
// edges. The number of such paths is exponential in maxLen in general;
// this is intended for the naive reference evaluator and for tests.
func (g *DB) AllPaths(from Node, maxLen int) []Path {
	out := []Path{EmptyPath(from)}
	frontier := []Path{EmptyPath(from)}
	for l := 0; l < maxLen; l++ {
		var next []Path
		for _, p := range frontier {
			g.EdgesFrom(p.To(), func(a rune, to Node) {
				np := p.Extend(a, to)
				next = append(next, np)
				out = append(out, np)
			})
		}
		frontier = next
	}
	return out
}

// PathsBetween returns every path from u to v with at most maxLen edges.
func (g *DB) PathsBetween(u, v Node, maxLen int) []Path {
	var out []Path
	for _, p := range g.AllPaths(u, maxLen) {
		if p.To() == v {
			out = append(out, p)
		}
	}
	return out
}

// TuplePath is a path of a TupleDB, the representation of a tuple of
// paths used in Section 5 (a path π̄ in Gᵐ represents an m-tuple of paths
// of G after per-coordinate ⊥-loop stripping).
type TuplePath struct {
	Nodes  []Node   // nodes of the TupleDB
	Labels []string // m-tuple labels
}

// Component extracts the j'th (0-based) component path of a TuplePath of
// a Power(g, m) database, after stripping ⊥-loops: the paper's ρ̄s(j).
func (tp TuplePath) Component(j, m, gSize int) Path {
	p := Path{}
	for i, v := range tp.Nodes {
		comps := DecodeTupleNode(v, m, gSize)
		if i == 0 {
			p.Nodes = []Node{comps[j]}
			continue
		}
		a := []rune(tp.Labels[i-1])[j]
		if a == regex.Bot && comps[j] == p.Nodes[len(p.Nodes)-1] {
			continue
		}
		p.Nodes = append(p.Nodes, comps[j])
		p.Labels = append(p.Labels, a)
	}
	return p
}
