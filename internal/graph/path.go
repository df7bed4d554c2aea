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
