package ecrpq

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
)

// This file checks that evaluation over a delta-overlay snapshot (base
// CSR + writes since compaction, possibly with labels split across the
// two segments) is indistinguishable from evaluation over a fully
// compacted snapshot of the same graph: answers, witness lengths, the
// pruned and exhaustive move planners, and the streaming executor.

// overlayPair builds the same random graph twice: g is loaded in two
// phases with a snapshot (compaction) in between so its current
// snapshot carries a real delta overlay; ref is loaded in one shot and
// fully compacted. Both contain exactly the same edges.
func overlayPair(t *testing.T, r *rand.Rand, n, e1, e2 int, sigma []rune) (g, ref *graph.DB) {
	t.Helper()
	type edge struct {
		from  graph.Node
		label rune
		to    graph.Node
	}
	edges := make([]edge, 0, e1+e2)
	for i := 0; i < e1+e2; i++ {
		edges = append(edges, edge{graph.Node(r.Intn(n)), sigma[r.Intn(len(sigma))], graph.Node(r.Intn(n))})
	}
	g, ref = graph.NewDB(), graph.NewDB()
	g.AddNodes(n)
	ref.AddNodes(n)
	for _, ed := range edges[:e1] {
		g.AddEdge(ed.from, ed.label, ed.to)
	}
	g.Snapshot() // compact phase 1 into the base CSR
	for _, ed := range edges[e1:] {
		g.AddEdge(ed.from, ed.label, ed.to)
	}
	for _, ed := range edges {
		ref.AddEdge(ed.from, ed.label, ed.to)
	}
	if g.Snapshot().DeltaEdges() == 0 {
		t.Fatal("overlayPair: phase-2 writes did not produce a delta overlay")
	}
	if g.NumEdges() != ref.NumEdges() {
		t.Fatalf("overlayPair: %d vs %d edges", g.NumEdges(), ref.NumEdges())
	}
	return g, ref
}

// renderResult canonicalizes a result: sorted node tuples with witness
// lengths (shortest-witness semantics makes lengths deterministic).
func renderResult(res *Result) string {
	var b strings.Builder
	for _, a := range res.Answers {
		fmt.Fprintf(&b, "%v /", a.Nodes)
		for _, p := range a.Paths {
			fmt.Fprintf(&b, " %d", p.Len())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestOverlaySnapshotEvalEquivalence: pruned and exhaustive evaluation
// over the overlay snapshot must agree exactly — answers and witness
// lengths — with the fully compacted reference.
func TestOverlaySnapshotEvalEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	queries := oracleQueries(t)
	for trial := 0; trial < 6; trial++ {
		n := 5 + r.Intn(6)
		g, ref := overlayPair(t, r, n, 10+r.Intn(15), 5+r.Intn(12), []rune("ab"))
		for qi, q := range queries {
			label := fmt.Sprintf("trial %d query %d", trial, qi)
			want, err := Eval(q, ref, Options{})
			if err != nil {
				t.Fatalf("%s: ref eval: %v", label, err)
			}
			got, err := Eval(q, g, Options{})
			if err != nil {
				t.Fatalf("%s: overlay eval: %v", label, err)
			}
			if renderResult(got) != renderResult(want) {
				t.Fatalf("%s: overlay answers differ from compacted:\n got:\n%s want:\n%s",
					label, renderResult(got), renderResult(want))
			}
			noprune, err := Eval(q, g, Options{NoPrune: true})
			if err != nil {
				t.Fatalf("%s: overlay noPrune eval: %v", label, err)
			}
			if renderResult(noprune) != renderResult(want) {
				t.Fatalf("%s: overlay noPrune answers differ:\n got:\n%s want:\n%s",
					label, renderResult(noprune), renderResult(want))
			}
		}
	}
}

// TestOverlaySnapshotStreamEquivalence: streaming over an overlay
// snapshot yields the same node-tuple set as materialized evaluation.
func TestOverlaySnapshotStreamEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	g, _ := overlayPair(t, r, 8, 20, 10, []rune("ab"))
	q := MustParse("Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Snapshot()
	res, err := prog.Eval(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, len(res.Answers))
	for _, a := range res.Answers {
		want = append(want, fmt.Sprint(a.Nodes))
	}
	var got []string
	for a, err := range prog.Stream(context.Background(), s, StreamOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprint(a.Nodes))
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("stream over overlay snapshot differs:\n got %v\nwant %v", got, want)
	}
}

// TestOverlaySnapshotProductNFA: the explicit product constructions
// (Member via the answer automaton) see the overlay snapshot too.
func TestOverlaySnapshotProductNFA(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g, ref := overlayPair(t, r, 6, 12, 8, []rune("ab"))
	q := MustParse("Ans(x, y, p) <- (x,p,y), (a|b)*a(p)", env())
	want, err := Eval(q, ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range want.Answers {
		ok, err := Member(q, g, a.Nodes, a.Paths, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("Member(%v) = false over the overlay graph", a.Nodes)
		}
	}
}
