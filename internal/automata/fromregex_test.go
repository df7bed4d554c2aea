package automata

import (
	"math/rand"
	"testing"

	"repro/internal/regex"
)

// thompson is the reference construction FromRegex must agree with: one
// fresh (start, final) pair per node, joined by ε-edges, one start and
// one final state.
func thompson[S comparable](node *regex.Node[S]) *NFA[S] {
	n := NewNFA[S]()
	var frag func(node *regex.Node[S]) (int, int)
	frag = func(node *regex.Node[S]) (int, int) {
		s := n.AddState()
		f := n.AddState()
		switch node.Op {
		case regex.OpEps:
			n.AddEps(s, f)
		case regex.OpSym:
			n.AddTransition(s, node.Sym, f)
		case regex.OpConcat:
			ls, lf := frag(node.Left)
			rs, rf := frag(node.Right)
			n.AddEps(s, ls)
			n.AddEps(lf, rs)
			n.AddEps(rf, f)
		case regex.OpAlt:
			ls, lf := frag(node.Left)
			rs, rf := frag(node.Right)
			n.AddEps(s, ls)
			n.AddEps(s, rs)
			n.AddEps(lf, f)
			n.AddEps(rf, f)
		case regex.OpStar:
			is, ifin := frag(node.Left)
			n.AddEps(s, f)
			n.AddEps(s, is)
			n.AddEps(ifin, is)
			n.AddEps(ifin, f)
		}
		return s, f
	}
	s, f := frag(node)
	n.SetStart(s)
	n.SetFinal(f, true)
	return n
}

// rawExpr returns a random expression built without the smart
// constructors, so ε, ∅, nested stars and ε-branches reach FromRegex
// unsimplified and exercise every merge rule.
func rawExpr(r *rand.Rand, depth int) *regex.Node[rune] {
	if depth == 0 || r.Intn(5) == 0 {
		switch k := r.Intn(8); {
		case k < 5:
			return &regex.Node[rune]{Op: regex.OpSym, Sym: rune('a' + k%3)}
		case k < 7:
			return &regex.Node[rune]{Op: regex.OpEps}
		default:
			return &regex.Node[rune]{Op: regex.OpEmpty}
		}
	}
	switch r.Intn(3) {
	case 0:
		return &regex.Node[rune]{Op: regex.OpConcat, Left: rawExpr(r, depth-1), Right: rawExpr(r, depth-1)}
	case 1:
		return &regex.Node[rune]{Op: regex.OpAlt, Left: rawExpr(r, depth-1), Right: rawExpr(r, depth-1)}
	default:
		return &regex.Node[rune]{Op: regex.OpStar, Left: rawExpr(r, depth-1)}
	}
}

func numEps[S comparable](n *NFA[S]) int {
	c := 0
	for q := 0; q < n.NumStates(); q++ {
		c += len(n.EpsSuccessors(q))
	}
	return c
}

// startReentered reports whether any edge, labeled or ε, enters a start
// state.
func startReentered[S comparable](n *NFA[S]) bool {
	start := map[int]bool{}
	for _, s := range n.Start() {
		start[s] = true
	}
	hit := false
	n.EachTransition(func(_ int, _ S, to int) { hit = hit || start[to] })
	for q := 0; q < n.NumStates(); q++ {
		for _, r := range n.EpsSuccessors(q) {
			hit = hit || start[r]
		}
	}
	return hit
}

// TestFromRegexAgainstThompson checks the merging construction against
// the derivative matcher and Thompson's automaton on every word of length
// ≤ 6 over the expression's alphabet plus one foreign symbol, and checks
// its size: at most one state more than Thompson's, a start that is never
// re-entered, and no more trimmed subset-DFA states than Thompson's.
func TestFromRegexAgainstThompson(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	for i := 0; i < 300; i++ {
		node := rawExpr(r, 1+i%6)
		n, th := FromRegex(node), thompson(node)
		alpha := append(regex.Alphabet(node), 'z')
		// Walk the word tree depth-first so every prefix is stepped once:
		// the derivative by w is what regex.Match(node, w) computes.
		var walk func(w []rune, cur, ref []int, d *regex.Node[rune])
		walk = func(w []rune, cur, ref []int, d *regex.Node[rune]) {
			want := d.Nullable()
			if got, thGot := n.containsFinal(cur), th.containsFinal(ref); got != want || thGot != want {
				t.Fatalf("%s on %q: merged %v, Thompson %v, derivatives %v", regex.String(node), string(w), got, thGot, want)
			}
			if len(w) == 6 {
				return
			}
			for _, a := range alpha {
				walk(append(w, a), n.Step(cur, a), th.Step(ref, a), regex.Deriv(d, a))
			}
		}
		walk(nil, n.EpsClosure(n.Start()), th.EpsClosure(th.Start()), node)
		if n.NumStates() > th.NumStates()+1 {
			t.Errorf("%s: %d states, Thompson %d", regex.String(node), n.NumStates(), th.NumStates())
		}
		if startReentered(n) {
			t.Errorf("%s: an edge enters the start state", regex.String(node))
		}
		if got, ref := Determinize(Trim(n), alpha).NumStates(), Determinize(Trim(th), alpha).NumStates(); got > ref {
			t.Errorf("%s: trimmed subset DFA has %d states, Thompson's %d", regex.String(node), got, ref)
		}
	}
}

// TestFromRegexSizes pins the shapes the merges exist for.
func TestFromRegexSizes(t *testing.T) {
	sigma := make([]rune, 32)
	for i := range sigma {
		sigma[i] = 'A' + rune(i)
	}
	star := FromRegex(regex.Kleene(regex.AnyOf(sigma...)))
	if star.NumStates() != 2 || star.NumTransitions() != 64 || numEps(star) != 0 {
		t.Errorf("[σ32]*: %d states, %d transitions, %d ε-edges; want 2, 64, 0",
			star.NumStates(), star.NumTransitions(), numEps(star))
	}

	labels := make([]rune, 10000)
	for i := range labels {
		labels[i] = 0x100 + rune(i)
	}
	plus := regex.Repeat(regex.AnyOf(labels...))
	if got, ref := FromRegex(plus).NumStates(), thompson(plus).NumStates(); got != 2 {
		t.Errorf("10 000-label (…)+: %d states (Thompson %d), want 2", got, ref)
	}

	opts := make([]*regex.Node[rune], 1000)
	for i := range opts {
		opts[i] = regex.Opt(regex.Lit(0x100 + rune(i)))
	}
	chain := regex.Seq(opts...)
	n, th := FromRegex(chain), thompson(chain)
	if n.NumStates() > th.NumStates() || n.NumTransitions()+numEps(n) > th.NumTransitions()+numEps(th) {
		t.Errorf("1 000-term optional chain: %d states, %d edges; Thompson %d, %d", n.NumStates(),
			n.NumTransitions()+numEps(n), th.NumStates(), th.NumTransitions()+numEps(th))
	}
}
