package ecrpq

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unicode/utf16"

	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/relations"
)

// This file is the cross-mode equivalence suite for the label-class
// compilation: class-partitioned evaluation must produce answer sets
// AND witness paths byte-identical to the per-symbol spelling of the
// same query (symPlus: each band written out as an alternation of its
// labels, which compiles through the ordinary label-space path) and,
// where the oracle is complete, to
// NaiveEval — on random graphs and queries over alphabets up
// to 10⁴ labels, under delta-write storms, and at every worker count.

// bigSigmaTest mirrors the N-Triples label assignment: dense runes from
// 1, skipping '_' and the surrogate block.
func bigSigmaTest(k int) []rune {
	out := make([]rune, 0, k)
	for r := rune(1); len(out) < k; r++ {
		if r == '_' {
			continue
		}
		if utf16.IsSurrogate(r) {
			r = 0xDFFF
			continue
		}
		out = append(out, r)
	}
	return out
}

// zipfGraph builds a random graph whose labels are Zipf-skewed over
// sigma, like real predicate frequencies.
func zipfGraph(r *rand.Rand, n, edges int, sigma []rune) *graph.DB {
	g := graph.NewDB()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	z := rand.NewZipf(r, 1.1, 8, uint64(len(sigma)-1))
	for e := 0; e < edges; e++ {
		g.AddEdge(graph.Node(r.Intn(n)), sigma[z.Uint64()], graph.Node(r.Intn(n)))
	}
	return g
}

// bandPlus is the relation [lo-hi]+ built programmatically (no text
// escaping concerns for labels that happen to be metacharacters).
func bandPlus(lo, hi rune) *relations.Relation {
	node := regex.Repeat(regex.ClassNode(regex.NewClass(false, regex.Range{Lo: lo, Hi: hi})))
	return relations.FromLanguage(fmt.Sprintf("[%U-%U]+", lo, hi), node)
}

// symPlus is bandPlus spelled per symbol: (lo|…|hi)+ as an explicit
// alternation of literals. It carries no class node, so it compiles
// through the ordinary label-space path — no partition — and is the
// reference the class compilation must agree with.
func symPlus(lo, hi rune) *relations.Relation {
	parts := make([]*regex.Node[rune], 0, hi-lo+1)
	for r := lo; r <= hi; r++ {
		parts = append(parts, regex.Lit(r))
	}
	return relations.FromLanguage(fmt.Sprintf("(%U|…|%U)+", lo, hi), regex.Repeat(regex.Or(parts...)))
}

// bandShape is a random path-returning query shape over sigma: one
// banded tape or a banded two-tape chain, one (lo, hi) band per tape.
type bandShape []struct{ lo, hi rune }

func randBands(r *rand.Rand, sigma []rune) bandShape {
	bs := make(bandShape, 1+r.Intn(2))
	for k := range bs {
		i := r.Intn(len(sigma))
		j := i + r.Intn(len(sigma)-i)
		bs[k].lo, bs[k].hi = sigma[i], sigma[j]
	}
	return bs
}

// query builds the shape with each band spelled by rel: bandPlus (a
// class) or symPlus (per symbol).
func (bs bandShape) query(rel func(lo, hi rune) *relations.Relation) *Query {
	b := NewBuilder()
	if len(bs) == 1 {
		b.Path("x", "p", "y").Rel(rel(bs[0].lo, bs[0].hi), "p").HeadNodes("x", "y").HeadPaths("p")
	} else {
		b.Path("x", "p1", "z").Path("z", "p2", "y").
			Rel(rel(bs[0].lo, bs[0].hi), "p1").Rel(rel(bs[1].lo, bs[1].hi), "p2").
			HeadNodes("x", "y").HeadPaths("p1", "p2")
	}
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	return q
}

// randBandQuery builds a random class-banded query (see bandShape).
func randBandQuery(r *rand.Rand, sigma []rune) *Query { return randBands(r, sigma).query(bandPlus) }

// renderFull renders a result including witness paths, in answer order
// — equality of renderings is witness identity, not just answer
// identity.
func renderFull(res *Result) string {
	var b strings.Builder
	for _, a := range res.Answers {
		for _, n := range a.Nodes {
			fmt.Fprintf(&b, "%d,", n)
		}
		for _, p := range a.Paths {
			b.WriteByte('[')
			for _, n := range p.Nodes {
				fmt.Fprintf(&b, "%d,", n)
			}
			b.WriteByte('|')
			b.WriteString(string(p.Labels))
			b.WriteByte(']')
		}
		b.WriteByte(';')
	}
	return b.String()
}

// TestClassVsPerSymbolRandom: class-mode evaluation is answer- and
// witness-identical to the per-symbol spelling across alphabet scales,
// sequentially and with the fan-out forced on.
func TestClassVsPerSymbolRandom(t *testing.T) {
	forceParallel(t)

	for _, k := range []int{8, 64, 1024, 10000} {
		sigma := bigSigmaTest(k)
		r := rand.New(rand.NewSource(int64(k)))
		trials := 6
		if k >= 1024 {
			trials = 2
		}
		for trial := 0; trial < trials; trial++ {
			g := zipfGraph(r, 24, 96, sigma)
			bs := randBands(r, sigma)
			q, qSym := bs.query(bandPlus), bs.query(symPlus)
			class, err := Eval(q, g, Options{})
			if err != nil {
				t.Fatalf("k=%d trial=%d class: %v", k, trial, err)
			}
			persym, err := Eval(qSym, g, Options{})
			if err != nil {
				t.Fatalf("k=%d trial=%d per-symbol: %v", k, trial, err)
			}
			if class.Fingerprint() != persym.Fingerprint() {
				t.Fatalf("k=%d trial=%d: fingerprint mismatch class=%x persym=%x",
					k, trial, class.Fingerprint(), persym.Fingerprint())
			}
			if renderFull(class) != renderFull(persym) {
				t.Fatalf("k=%d trial=%d: witness mismatch\nclass:  %s\npersym: %s",
					k, trial, renderFull(class), renderFull(persym))
			}
			par, err := Eval(q, g, Options{BFSWorkers: 4})
			if err != nil {
				t.Fatalf("k=%d trial=%d parallel: %v", k, trial, err)
			}
			if renderFull(par) != renderFull(class) {
				t.Fatalf("k=%d trial=%d: parallel class mode diverges", k, trial)
			}
		}
	}
}

// TestClassVsNaive: on small DAG-free random graphs the bounded naive
// oracle agrees with class evaluation on every answer within its path
// bound, including negated classes and the wildcard (cofinite
// label sets, which no per-symbol spelling can express).
func TestClassVsNaive(t *testing.T) { eachTable(t, testClassVsNaive) }

func testClassVsNaive(t *testing.T) {
	env := Env{Sigma: []rune{'a', 'b', 'c', 'd', 'e', 'f'}}
	queries := []string{
		"Ans(x,y) <- (x,p,y), [a-c]+(p)",
		"Ans(x,y) <- (x,p,y), [^a]+(p)",
		"Ans(x,y) <- (x,p,y), .+(p)",
		"Ans(x,y) <- (x,p,y), ([a-b]c?)+(p)",
		"Ans(x,y) <- (x,p1,z), (z,p2,y), [b-e]+(p1), [a-d]+(p2)",
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		// DAG so the bounded oracle is complete at maxLen = n.
		g := graph.NewDB()
		const n = 6
		for i := 0; i < n; i++ {
			g.AddNode("")
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.4 {
					g.AddEdge(graph.Node(i), env.Sigma[r.Intn(len(env.Sigma))], graph.Node(j))
				}
			}
		}
		for _, src := range queries {
			q := MustParse(src, env)
			res, err := Eval(q, g, Options{})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			want, err := NaiveEval(q, res.Snap, n)
			if err != nil {
				t.Fatalf("%s: naive: %v", src, err)
			}
			if got, exp := answersString(g, res.Answers), answersString(g, want); got != exp {
				t.Fatalf("%s (trial %d): engine %q, naive %q", src, trial, got, exp)
			}
		}
	}
}

// TestClassWithRegularRelations: a component mixing class atoms with
// classic regular relations (el) must compile — the relation's
// automaton is remapped onto the class alphabet — and agree with the
// per-symbol spelling and the naive oracle.
func TestClassWithRegularRelations(t *testing.T) { eachTable(t, testClassWithRegularRelations) }

func testClassWithRegularRelations(t *testing.T) {
	sigma := []rune{'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'}
	env := Env{Sigma: sigma}
	src := "Ans(x,y) <- (x,p1,z), (z,p2,y), [a-d]+(p1), [c-f]+(p2), el(p1,p2)"
	q := MustParse(src, env)
	r := rand.New(rand.NewSource(23))
	g := graph.NewDB()
	const n = 6
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.5 {
				g.AddEdge(graph.Node(i), sigma[r.Intn(len(sigma))], graph.Node(j))
			}
		}
	}
	class, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qSym, err := NewBuilder().
		Path("x", "p1", "z").Path("z", "p2", "y").
		Rel(symPlus('a', 'd'), "p1").Rel(symPlus('c', 'f'), "p2").
		Rel(relations.EqualLength(sigma), "p1", "p2").
		HeadNodes("x", "y").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	persym, err := Eval(qSym, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if class.Fingerprint() != persym.Fingerprint() {
		t.Fatalf("fingerprint mismatch: class=%x persym=%x", class.Fingerprint(), persym.Fingerprint())
	}
	want, err := NaiveEval(q, class.Snap, n)
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := answersString(g, class.Answers), answersString(g, want); got != exp {
		t.Fatalf("engine %q, naive %q", got, exp)
	}
}

// TestClassDeltaStorm: a compiled class program advanced through a
// storm of delta writes stays identical to from-scratch evaluation in
// both spellings at every epoch — the range-based revalidation and the
// delta BFS see class-compiled components.
func TestClassDeltaStorm(t *testing.T) {
	sigma := bigSigmaTest(512)
	r := rand.New(rand.NewSource(31))
	g := zipfGraph(r, 20, 60, sigma)

	// Node-only head: witness-free results are what the incremental memo
	// machinery supports (witness identity under classes is pinned by
	// TestClassVsPerSymbolRandom).
	band := func(rel func(lo, hi rune) *relations.Relation) *Program {
		q, err := NewBuilder().
			Path("x", "p", "y").
			Rel(rel(sigma[0], sigma[127]), "p").
			HeadNodes("x", "y").
			Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := CompileProgram(q, false)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pClass, pExp := band(bandPlus), band(symPlus)
	ctx := context.Background()
	prevC, err := pClass.EvalSnapshotMemo(ctx, g.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prevE, err := pExp.EvalSnapshotMemo(ctx, g.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawReval, sawDelta := false, false
	for epoch := 0; epoch < 12; epoch++ {
		// Alternate storms inside and outside the program's live band;
		// out-of-band storms must revalidate for free.
		for w := 0; w < 8; w++ {
			var lab rune
			if epoch%2 == 0 {
				lab = sigma[128+r.Intn(len(sigma)-128)] // outside [0,127]
			} else {
				lab = sigma[r.Intn(128)]
			}
			g.AddEdge(graph.Node(r.Intn(20)), lab, graph.Node(r.Intn(20)))
		}
		s := g.Snapshot()
		next, kind, err := pClass.Advance(ctx, prevC, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if next == nil {
			// No sound shortcut: re-evaluate from scratch, like a caller
			// would.
			next, err = pClass.EvalSnapshotMemo(ctx, s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sawDelta = true
		} else if kind == AdvanceRevalidated {
			sawReval = true
		} else {
			sawDelta = true
		}
		prevC = next
		nextE, _, err := pExp.Advance(ctx, prevE, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if nextE == nil {
			nextE, err = pExp.EvalSnapshotMemo(ctx, s, Options{})
			if err != nil {
				t.Fatal(err)
			}
		}
		prevE = nextE
		fresh, err := pClass.Eval(ctx, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if prevC.Fingerprint() != fresh.Fingerprint() {
			t.Fatalf("epoch %d (%v): class Advance diverged from scratch", epoch, kind)
		}
		if prevE.Fingerprint() != fresh.Fingerprint() {
			t.Fatalf("epoch %d: per-symbol Advance diverged from scratch", epoch)
		}
	}
	if !sawReval {
		t.Error("no out-of-band storm revalidated for free")
	}
	if !sawDelta {
		t.Error("no in-band storm triggered re-evaluation")
	}
}

// sortedRender renders answers-with-witnesses order-insensitively (the
// incremental path may order answers differently from scratch).
func sortedRender(res *Result) string {
	parts := make([]string, 0, len(res.Answers))
	for _, a := range res.Answers {
		one := Result{Answers: []Answer{a}}
		parts = append(parts, renderFull(&one))
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

// TestClassPartitionExplain: Explain output for a class-compiled
// component renders live sets as label ranges, not raw class ids.
func TestClassPartitionExplain(t *testing.T) {
	env := Env{Sigma: []rune{'a', 'b', 'c', 'd'}}
	q := MustParse("Ans(x,y) <- (x,p,y), [a-c]+(p)", env)
	p, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range p.Components() {
		for _, ls := range c.LiveStart {
			if strings.Contains(ls, "a-c") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no component rendered the a-c band: %+v", p.Components())
	}
}
