package ecrpq

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/faultinject"
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

// TestWitnessFingerprintFollowsContent: a snapshot's fingerprint,
// witnesses included, is a function of its edges, not of where they
// sit. Seeded scripts write random edges in seeded orders into
// memory-only and durable stores, with snapshots, forced compactions
// and checkpoints at seeded points, clones compacted at other points
// than their source and durable stores reopened from disk. At each
// check every witness query, at 1, 2 and 8 workers, fingerprints the
// snapshot exactly as it does a fully compacted store of the same edges
// written in another order.
func TestWitnessFingerprintFollowsContent(t *testing.T) {
	progs := make([]*Program, len(witnessCases))
	for i, tc := range witnessCases {
		var err error
		if progs[i], err = CompileProgram(MustParse(tc.src, envABCD()), false); err != nil {
			t.Fatal(err)
		}
	}
	type edge struct {
		from  graph.Node
		label rune
		to    graph.Node
	}
	forceCompaction := func(g *graph.DB) {
		faultinject.Set(func(p faultinject.Point, _ uint64) error {
			if p == faultinject.CompactionPolicy {
				return faultinject.ErrForced
			}
			return nil
		})
		defer faultinject.Clear()
		g.Snapshot()
	}
	ctx := context.Background()
	var checks, deltas int
	for seed := range 4 {
		r := rand.New(rand.NewSource(int64(seed)))
		const n = 16
		var g *graph.DB
		dir := ""
		if seed%2 == 1 {
			dir = t.TempDir()
			var err error
			if g, err = graph.OpenDir(dir); err != nil {
				t.Fatal(err)
			}
		} else {
			g = graph.NewDB()
		}
		t.Cleanup(func() { g.Close() })
		g.AddNodes(n)
		var written []edge
		check := func(what string, s *graph.Snapshot) {
			t.Helper()
			twin := graph.NewDB()
			twin.AddNodes(n)
			for _, i := range r.Perm(len(written)) {
				twin.AddEdge(written[i].from, written[i].label, written[i].to)
			}
			ts := twin.Snapshot()
			if ts.DeltaEdges() != 0 || ts.NumEdges() != s.NumEdges() {
				t.Fatalf("seed %d %s: twin holds %d edges (%d in its delta), snapshot %d", seed, what, ts.NumEdges(), ts.DeltaEdges(), s.NumEdges())
			}
			checks++
			if s.DeltaEdges() > 0 {
				deltas++
			}
			for i, tc := range witnessCases {
				for _, w := range []int{1, 2, 8} {
					opts := Options{Bind: tc.bind, BFSWorkers: w}
					got, err := progs[i].Eval(ctx, s, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := progs[i].Eval(ctx, ts, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got.Fingerprint() != want.Fingerprint() {
						t.Fatalf("seed %d %s (%d delta edges): %s bind %v W=%d: fingerprint %x, compacted twin %x",
							seed, what, s.DeltaEdges(), tc.src, tc.bind, w, got.Fingerprint(), want.Fingerprint())
					}
				}
			}
		}
		for step := range 100 {
			e := edge{graph.Node(r.Intn(n)), rune('a' + r.Intn(3)), graph.Node(r.Intn(n))}
			g.AddEdge(e.from, e.label, e.to)
			written = append(written, e)
			switch r.Intn(16) {
			case 0, 1:
				g.Snapshot() // publishes the writes, compacting past the threshold
			case 2:
				check("snapshot", g.Snapshot())
			case 3:
				forceCompaction(g)
				check("forced compaction", g.Snapshot())
			case 4:
				// A clone and its source compacted at different points;
				// a memory-only script goes on with the clone.
				h := g.Clone()
				forceCompaction([]*graph.DB{g, h}[step%2])
				check("clone source", g.Snapshot())
				check("clone", h.Snapshot())
				if dir == "" {
					g = h
				}
			case 5:
				if dir != "" {
					if err := g.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					check("checkpoint", g.Snapshot())
				}
			case 6:
				if dir != "" {
					if err := g.Close(); err != nil {
						t.Fatal(err)
					}
					var err error
					if g, err = graph.OpenDir(dir); err != nil {
						t.Fatal(err)
					}
					check("reopen", g.Snapshot())
				}
			}
		}
		check("end", g.Snapshot())
	}
	if deltas == 0 || deltas == checks {
		t.Fatalf("%d of %d checks read a delta overlay: want some of each layout", deltas, checks)
	}
	t.Logf("%d checks, %d over a delta overlay", checks, deltas)
}
