package automata

import "repro/internal/regex"

// FromRegex builds an NFA for the regular expression. It follows
// Thompson's construction, one fragment (start, end) per node, but merges
// fragment states while it builds instead of joining every pair with an
// ε-edge:
//
//   - an alternation's branch starts merge when none has incoming edges,
//     and its branch ends merge when none has outgoing edges;
//   - a concatenation's left end merges into its right start unless the
//     left end has outgoing edges and the right start has incoming ones;
//   - F* collapses to one looping state when F's start has no incoming
//     edges and F's end has no outgoing edges.
//
// Each merge contracts what Thompson would join by an ε-edge, under a
// condition that keeps every path through the merged state a path of the
// language. Where no merge is allowed one ε-edge is added, from a branch
// whose start or end is free or from a fresh state. States are union-find
// classes, so a merge copies no edge; every edge is stored once and
// written into the automaton after the walk.
//
// The start state is never re-entered: when it ends up with incoming
// edges (as [σ]*'s looping state does), a fresh start gets copies of its
// out-edges and is accepting if it is. The result has at most one state
// more than Thompson's automaton (2 per node), one labeled transition per
// symbol occurrence plus the copies, a single start state, and as final
// states the root fragment's end and, when that end is the start, its
// fresh copy. [σ]* becomes 2 states and no ε-edge where Thompson's has
// 4·|σ| states.
func FromRegex[S comparable](node *regex.Node[S]) *NFA[S] {
	var b mergeBuilder[S]
	fr := b.build(node)
	return b.emit(b.find(fr.s), b.find(fr.f))
}

// fragment is the (start, end) pair of a sub-expression's automaton.
type fragment struct{ s, f int32 }

type mergeEdge[S comparable] struct {
	from, to int32
	sym      S
	eps      bool
}

// mergeBuilder holds FromRegex's automaton while it is built. States are
// union-find classes: parent links a merged state to its class, and
// in/out count the edges entering and leaving each class root.
type mergeBuilder[S comparable] struct {
	parent  []int32
	in, out []int32
	edges   []mergeEdge[S]
}

func (b *mergeBuilder[S]) state() int32 {
	q := int32(len(b.parent))
	b.parent = append(b.parent, q)
	b.in = append(b.in, 0)
	b.out = append(b.out, 0)
	return q
}

func (b *mergeBuilder[S]) find(q int32) int32 {
	for b.parent[q] != q {
		b.parent[q] = b.parent[b.parent[q]]
		q = b.parent[q]
	}
	return q
}

// merge unites the classes of p and q and returns the root.
func (b *mergeBuilder[S]) merge(p, q int32) int32 {
	p, q = b.find(p), b.find(q)
	if p != q {
		b.parent[q] = p
		b.in[p] += b.in[q]
		b.out[p] += b.out[q]
	}
	return p
}

func (b *mergeBuilder[S]) edge(from, to int32, sym S, eps bool) {
	from, to = b.find(from), b.find(to)
	b.edges = append(b.edges, mergeEdge[S]{from: from, to: to, sym: sym, eps: eps})
	b.out[from]++
	b.in[to]++
}

func (b *mergeBuilder[S]) epsEdge(from, to int32) {
	var zero S
	b.edge(from, to, zero, true)
}

func (b *mergeBuilder[S]) build(node *regex.Node[S]) fragment {
	switch node.Op {
	case regex.OpEps:
		q := b.state()
		return fragment{q, q}
	case regex.OpSym:
		s, f := b.state(), b.state()
		b.edge(s, f, node.Sym, false)
		return fragment{s, f}
	case regex.OpConcat:
		l, r := b.build(node.Left), b.build(node.Right)
		if lf, rs := b.find(l.f), b.find(r.s); b.out[lf] == 0 || b.in[rs] == 0 {
			b.merge(rs, lf)
		} else {
			b.epsEdge(lf, rs)
		}
		return fragment{l.s, r.f}
	case regex.OpAlt:
		l, r := b.build(node.Left), b.build(node.Right)
		return fragment{b.joinStarts(l.s, r.s), b.joinEnds(l.f, r.f)}
	case regex.OpStar:
		in := b.build(node.Left)
		s, f := b.find(in.s), b.find(in.f)
		switch {
		case b.in[s] == 0 && b.out[f] == 0:
			q := b.merge(s, f)
			return fragment{q, q}
		case b.in[s] == 0:
			b.epsEdge(f, s)
			return fragment{s, s}
		case b.out[f] == 0:
			b.epsEdge(f, s)
			return fragment{f, f}
		default:
			q := b.state()
			b.epsEdge(q, s)
			b.epsEdge(f, q)
			return fragment{q, q}
		}
	default: // OpEmpty, and OpClass, which carries no symbols of S
		return fragment{b.state(), b.state()}
	}
}

// joinStarts makes one state of two alternation branch starts. They
// merge when neither has incoming edges; when only one is free of them,
// it gets an ε-edge to the other and is the start; otherwise a fresh
// start gets ε-edges to both.
func (b *mergeBuilder[S]) joinStarts(p, q int32) int32 {
	p, q = b.find(p), b.find(q)
	switch {
	case b.in[p] == 0 && b.in[q] == 0:
		return b.merge(p, q)
	case b.in[p] == 0:
		b.epsEdge(p, q)
		return p
	case b.in[q] == 0:
		b.epsEdge(q, p)
		return q
	}
	x := b.state()
	b.epsEdge(x, p)
	b.epsEdge(x, q)
	return x
}

// joinEnds is joinStarts for branch ends, with the edges reversed: ends
// without outgoing edges merge, and ε-edges lead into the free one or a
// fresh end.
func (b *mergeBuilder[S]) joinEnds(p, q int32) int32 {
	p, q = b.find(p), b.find(q)
	switch {
	case b.out[p] == 0 && b.out[q] == 0:
		return b.merge(p, q)
	case b.out[p] == 0:
		b.epsEdge(q, p)
		return p
	case b.out[q] == 0:
		b.epsEdge(p, q)
		return q
	}
	x := b.state()
	b.epsEdge(p, x)
	b.epsEdge(q, x)
	return x
}

// emit writes the classes and edges into an NFA. The start state gets id
// 0 and the other classes follow in order of their first member.
// ε-loops, which a collapsed star can leave, are dropped, and so is an
// edge that repeats the one before it from the same state (a|a's).
func (b *mergeBuilder[S]) emit(start, final int32) *NFA[S] {
	id := make([]int32, len(b.parent))
	for i := range id {
		id[i] = -1
	}
	next := int32(0)
	fresh := b.in[start] > 0
	if fresh {
		next++
	}
	id[start] = next
	next++
	for q := range b.parent {
		if r := b.find(int32(q)); id[r] < 0 {
			id[r] = next
			next++
		}
	}
	n := NewNFA[S]()
	n.AddStates(int(next))
	add := func(from, to int, e *mergeEdge[S]) {
		if e.eps {
			if from != to && !endsWith(n.eps[from], to) {
				n.AddEps(from, to)
			}
		} else if !endsWith(n.trans[from][e.sym], to) {
			n.AddTransition(from, e.sym, to)
		}
	}
	for i := range b.edges {
		e := &b.edges[i]
		add(int(id[b.find(e.from)]), int(id[b.find(e.to)]), e)
	}
	if fresh {
		for i := range b.edges {
			if e := &b.edges[i]; b.find(e.from) == start {
				add(0, int(id[b.find(e.to)]), e)
			}
		}
	}
	n.SetStart(0)
	n.SetFinal(int(id[final]), true)
	if fresh && start == final {
		n.SetFinal(0, true)
	}
	return n
}

func endsWith(xs []int, x int) bool { return len(xs) > 0 && xs[len(xs)-1] == x }
