package ecrpq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/qerr"
	"repro/internal/regex"
)

func envABCD() Env { return Env{Sigma: []rune{'a', 'b', 'c', 'd'}} }

// TestProgramLiveLabels pins the compile-time live-label
// over-approximation that free revalidation relies on.
func TestProgramLiveLabels(t *testing.T) {
	p, err := CompileProgram(MustParse("Ans(x,y) <- (x,p,y), a+(p)", envABCD()), false)
	if err != nil {
		t.Fatal(err)
	}
	if p.liveUniversal {
		t.Fatal("a+ program claims a universal live set")
	}
	if !regex.RangesContain(p.liveRanges, 'a') {
		t.Fatalf("live ranges %v miss 'a'", p.liveRanges)
	}
	if regex.RangesContain(p.liveRanges, 'b') {
		t.Fatalf("live ranges %v include the never-traversable 'b'", p.liveRanges)
	}

	// An unconstrained path variable can traverse anything.
	u, err := CompileProgram(MustParse("Ans(x,y) <- (x,p,y)", envABCD()), false)
	if err != nil {
		t.Fatal(err)
	}
	if !u.liveUniversal {
		t.Fatal("unconstrained program not universal")
	}

	// eq over Σ touches every letter but is not universal.
	e, err := CompileProgram(MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), eq(p1,p2)", envABCD()), false)
	if err != nil {
		t.Fatal(err)
	}
	if e.liveUniversal {
		t.Fatal("eq program claims a universal live set")
	}
	for _, r := range "abcd" {
		if !regex.RangesContain(e.liveRanges, r) {
			t.Fatalf("eq live ranges %v miss %q", e.liveRanges, r)
		}
	}
}

// TestAdvanceRevalidatesDisjointDelta: a delta whose labels the program
// can never traverse re-stamps the cached result without touching the
// graph — answers shared, snapshot advanced, from-scratch identical.
func TestAdvanceRevalidatesDisjointDelta(t *testing.T) {
	g := graph.NewDB()
	n := make([]graph.Node, 8)
	for i := range n {
		n[i] = g.AddNode("v" + itoa(i))
	}
	for i := 0; i+1 < len(n); i++ {
		g.AddEdge(n[i], 'a', n[i+1])
	}
	p, err := CompileProgram(MustParse("Ans(x,y) <- (x,p,y), a+(p)", envABCD()), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	prev, err := p.EvalSnapshotMemo(ctx, g.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		g.AddEdge(n[i], 'b', n[(i+3)%len(n)])
		g.AddEdge(n[i], 'c', n[(i+5)%len(n)])
	}
	s := g.Snapshot()
	res, kind, err := p.Advance(ctx, prev, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if kind != AdvanceRevalidated {
		t.Fatalf("kind = %v, want revalidated", kind)
	}
	if res.Snap != s {
		t.Fatal("revalidated result not re-stamped to the new snapshot")
	}
	if &res.Answers[0] != &prev.Answers[0] {
		t.Fatal("revalidated result did not share the previous answers")
	}
	scratch, err := p.Eval(ctx, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint() != scratch.Fingerprint() {
		t.Fatal("revalidated fingerprint differs from scratch")
	}
}

// TestAdvanceIncrementalMatchesScratch is the headline property: under
// a randomized write storm of live and dead labels, every successful
// Advance (revalidation or delta pass) must produce exactly the
// from-scratch result — same rows, same Fingerprint — and the chain of
// advanced results must keep seeding further advances.
func TestAdvanceIncrementalMatchesScratch(t *testing.T) {
	x0 := map[NodeVar]graph.Node{"x": 0}
	cases := []struct {
		src  string
		bind map[NodeVar]graph.Node
	}{
		{"Ans(x,y) <- (x,p,y), a+(p)", nil},
		{"Ans(x,y) <- (x,p1,z), (z,p2,y), eq(p1,p2)", nil},
		{"Ans(x,z) <- (x,p1,y), (y,p2,z), a+(p1), (a|b)+(p2)", nil},
		// x bound: z sweeps post[a+](x) only, and the storm's a-edges grow
		// that set from epoch to epoch — as two components, then as one.
		{"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", x0},
		{"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", x0},
	}
	for _, tc := range cases {
		name := tc.src
		if tc.bind != nil {
			name += fmt.Sprintf(" bind %v", tc.bind)
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g := graph.NewDB()
			const nNodes = 24
			for i := 0; i < nNodes; i++ {
				g.AddNode("v" + itoa(i))
			}
			for i := 0; i < 60; i++ {
				g.AddEdge(graph.Node(rng.Intn(nNodes)), rune('a'+rng.Intn(2)), graph.Node(rng.Intn(nNodes)))
			}
			p, err := CompileProgram(MustParse(tc.src, envABCD()), false)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			opts := Options{Bind: tc.bind}
			oracle := opts
			if tc.bind != nil {
				oracle.NoPrune = true // the start-domain pass is off
			}
			prev, err := p.EvalSnapshotMemo(ctx, g.Snapshot(), opts)
			if err != nil {
				t.Fatal(err)
			}
			var reval, incr, full, grew int
			for round := 0; round < 40; round++ {
				// A storm: mostly edges over the full alphabet (c,d are
				// dead for every query above), occasionally a node add to
				// force the fallback.
				writes := 1 + rng.Intn(4)
				for w := 0; w < writes; w++ {
					if rng.Intn(20) == 0 {
						g.AddNode("w" + itoa(round) + "_" + itoa(w))
						continue
					}
					g.AddEdge(graph.Node(rng.Intn(g.NumNodes())), rune('a'+rng.Intn(4)), graph.Node(rng.Intn(g.NumNodes())))
				}
				s := g.Snapshot()
				res, kind, err := p.Advance(ctx, prev, s, opts)
				if err != nil {
					t.Fatalf("round %d: Advance: %v", round, err)
				}
				scratch, err := p.Eval(ctx, s, oracle)
				if err != nil {
					t.Fatal(err)
				}
				switch kind {
				case AdvanceNone:
					full++
					res, err = p.EvalSnapshotMemo(ctx, s, opts)
					if err != nil {
						t.Fatal(err)
					}
				case AdvanceRevalidated:
					reval++
				case AdvanceIncremental:
					incr++
					if memoCandidates(res.inc) > memoCandidates(prev.inc) {
						grew++
					}
				}
				if res.Fingerprint() != scratch.Fingerprint() {
					t.Fatalf("round %d: %v fingerprint %x != scratch %x (answers %d vs %d)",
						round, kind, res.Fingerprint(), scratch.Fingerprint(), len(res.Answers), len(scratch.Answers))
				}
				if len(res.Answers) != len(scratch.Answers) {
					t.Fatalf("round %d: row count %d != %d", round, len(res.Answers), len(scratch.Answers))
				}
				prev = res
			}
			if reval == 0 || incr == 0 || full == 0 {
				t.Fatalf("storm did not exercise all paths: %d revalidated, %d incremental, %d full", reval, incr, full)
			}
			if tc.bind != nil && grew == 0 {
				t.Fatal("no delta pass ever grew a start domain")
			}
		})
	}
}

// memoCandidates counts the start candidates a memo's confined and bound
// variables were enumerated over.
func memoCandidates(m *incMemo) int {
	n := 0
	for _, cm := range m.comps {
		for _, l := range cm.lists {
			n += len(l)
		}
	}
	return n
}

// TestMemoSizeCountsCandidateLists: the cache's byte budget must see the
// candidate lists a memo retains.
func TestMemoSizeCountsCandidateLists(t *testing.T) {
	cm := &compMemo{stride: 2, touchOff: []int32{0}, rowOff: []int32{0}}
	bare := (&incMemo{comps: []*compMemo{cm}}).sizeBytes()
	cm.lists = [][]graph.Node{{7}, {1, 2, 3, 4, 5}, nil}
	if got, want := (&incMemo{comps: []*compMemo{cm}}).sizeBytes(), bare+3*24+6*8; got != want {
		t.Fatalf("memo with lists of 1, 5 and every node: %d bytes, want %d", got, want)
	}
}

// TestAdvanceGrowingStartDomain scripts the writes that matter to a
// bound two-atom query, whose second atom starts from post[a+](x) only:
// a dead label, a live label where no assignment reaches, an a-edge
// upstream of z that adds a candidate, a b-edge inside a candidate's
// closure, and a faulted delta pass. Every step is held to a from-scratch
// NoPrune evaluation.
func TestAdvanceGrowingStartDomain(t *testing.T) {
	for _, src := range []string{
		"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)",
		"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)",
	} {
		for _, w := range parWorkerCounts {
			t.Run(fmt.Sprintf("%s W=%d", src, w), func(t *testing.T) {
				g := graph.NewDB()
				g.AddNodes(24)
				// v0 -a-> v1 -a-> v2, b-tails below v1 and v2; v6 -b-> v7 is
				// out of reach until an a-edge leads to v6. The d-edges keep
				// a one-edge delta under the delta-ratio guard.
				for _, e := range [][3]int{{0, 'a', 1}, {1, 'a', 2}, {1, 'b', 3}, {2, 'b', 4}, {4, 'b', 5}, {6, 'b', 7}} {
					g.AddEdge(graph.Node(e[0]), rune(e[1]), graph.Node(e[2]))
				}
				for i := 10; i < 23; i++ {
					g.AddEdge(graph.Node(i), 'd', graph.Node(i+1))
				}
				p, err := CompileProgram(MustParse(src, envABCD()), false)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				opts := Options{Bind: map[NodeVar]graph.Node{"x": 0}, BFSWorkers: w}
				prev, err := p.EvalSnapshotMemo(ctx, g.Snapshot(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := memoCandidates(prev.inc); got != 3 {
					t.Fatalf("initial memo enumerates %d candidates, want 3: x = v0 and z ∈ {v1, v2}", got)
				}
				step := func(name string, from graph.Node, label rune, to graph.Node, want AdvanceKind) *Result {
					t.Helper()
					g.AddEdge(from, label, to)
					s := g.Snapshot()
					res, kind, err := p.Advance(ctx, prev, s, opts)
					if err != nil || kind != want {
						t.Fatalf("%s: advance = %v, %v; want %v", name, kind, err, want)
					}
					if kind == AdvanceNone {
						if res, err = p.EvalSnapshotMemo(ctx, s, opts); err != nil {
							t.Fatalf("%s: fallback: %v", name, err)
						}
					}
					scratch, err := p.Eval(ctx, s, Options{Bind: opts.Bind, NoPrune: true, BFSWorkers: 1})
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, name, res, scratch)
					return res
				}

				res := step("dead label", 8, 'c', 9, AdvanceRevalidated)
				if res.inc != prev.inc {
					t.Fatal("revalidation did not carry the memo over")
				}
				prev = res

				// v8 is no candidate for z, so no assignment starts there: the
				// delta pass finds nothing to re-run and re-stamps.
				res = step("live label out of reach", 8, 'b', 9, AdvanceIncremental)
				if res.inc != prev.inc || len(res.Answers) != len(prev.Answers) {
					t.Fatal("an out-of-reach write did not take the restamp shortcut")
				}
				prev = res

				res = step("new candidate upstream of z", 2, 'a', 6, AdvanceIncremental)
				if got, was := memoCandidates(res.inc), memoCandidates(prev.inc); got != was+1 {
					t.Fatalf("memo enumerates %d candidates after v6 became reachable, %d before", got, was)
				}
				prev = res

				before := len(prev.Answers)
				prev = step("write in a candidate's closure", 5, 'b', 9, AdvanceIncremental)
				if src == "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)" && len(prev.Answers) != before+1 {
					t.Fatalf("%d answers after v5 -b-> v9, %d before", len(prev.Answers), before)
				}

				faultinject.Set(func(pt faultinject.Point, _ uint64) error {
					if pt == faultinject.DeltaBFS {
						return faultinject.ErrForced
					}
					return nil
				})
				prev = step("faulted delta pass", 7, 'b', 8, AdvanceNone)
				faultinject.Clear()

				// The fallback's memo seeds the next advance like any other.
				step("advance after the fallback", 9, 'b', 10, AdvanceIncremental)
			})
		}
	}
}

// TestAdvanceWitnessQueries: head path variables disable the delta pass
// (shortest witnesses are not monotone), but label-disjoint revalidation
// stays sound, witnesses included, and so does a re-stamp when the delta
// misses every node the runs reached: the memo of a witness query holds
// the reached nodes and no rows.
func TestAdvanceWitnessQueries(t *testing.T) {
	g := graph.NewDB()
	n := make([]graph.Node, 10)
	for i := range n {
		n[i] = g.AddNode("v" + itoa(i))
	}
	for i := 0; i+1 < len(n); i++ {
		g.AddEdge(n[i], 'a', n[i+1])
	}
	p, err := CompileProgram(MustParse("Ans(x,y,p) <- (x,p,y), a+(p)", envABCD()), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{Bind: map[NodeVar]graph.Node{"x": n[5]}} // reaches v5..v9
	prev, err := p.EvalSnapshotMemo(ctx, g.Snapshot(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if prev.inc == nil || len(prev.inc.comps[0].touched) == 0 || len(prev.inc.comps[0].rows) != 0 {
		t.Fatal("witness query did not capture its reached nodes alone")
	}
	check := func(res *Result, what string) {
		t.Helper()
		scratch, err := p.Eval(ctx, res.Snap, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fingerprint() != scratch.Fingerprint() {
			t.Fatalf("%s witness fingerprint differs from scratch", what)
		}
	}
	// Dead-label delta: revalidated, witnesses identical to scratch.
	g.AddEdge(n[3], 'c', n[0])
	res, kind, err := p.Advance(ctx, prev, g.Snapshot(), opts)
	if err != nil || kind != AdvanceRevalidated {
		t.Fatalf("dead-label advance = %v, %v", kind, err)
	}
	check(res, "revalidated")
	// A live-label edge at a node no run reached: re-stamped.
	g.AddEdge(n[1], 'a', n[0])
	res, kind, err = p.Advance(ctx, res, g.Snapshot(), opts)
	if err != nil || kind != AdvanceIncremental || &res.Answers[0] != &prev.Answers[0] {
		t.Fatalf("unreached live-label advance = %v, %v, want a re-stamp", kind, err)
	}
	check(res, "re-stamped")
	// Live-label delta at a reached node (an 'a' shortcut that shortens
	// witnesses): the only sound answer is a full fallback.
	g.AddEdge(n[5], 'a', n[9])
	if _, kind, err := p.Advance(ctx, res, g.Snapshot(), opts); err != nil || kind != AdvanceNone {
		t.Fatalf("live-label witness advance = %v, %v, want none", kind, err)
	}
}

// TestAdvanceWitnessAcrossCompaction: witness ties go to the edge a
// snapshot lists first, base segment before delta, so a compaction that
// merges a reached node's delta edges into the base changes the
// witnesses with no live-label write at all. Here v0 reaches v3 over
// b·a (b in the base, listed first) and over a·a (a in the delta); after
// the dead-label writes compact the store, a·a is listed first. Advance
// must fall back: neither revalidation nor a re-stamp may keep the old
// witness.
func TestAdvanceWitnessAcrossCompaction(t *testing.T) {
	g := graph.NewDB()
	const nNodes = 20
	for i := 0; i < nNodes; i++ {
		g.AddNode("v" + itoa(i))
	}
	g.AddEdge(0, 'b', 1)
	g.AddEdge(1, 'a', 3)
	g.AddEdge(2, 'a', 3)
	g.Snapshot() // the first snapshot compacts
	g.AddEdge(0, 'a', 2)
	p, err := CompileProgram(MustParse("Ans(x,y,p) <- (x,p,y), (a|b)a(p)", envABCD()), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{Bind: map[NodeVar]graph.Node{"x": 0}}
	ps := g.Snapshot()
	prev, err := p.EvalSnapshotMemo(ctx, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < nNodes; i++ {
		for j := 4; j < 9; j++ {
			g.AddEdge(graph.Node(i), 'c', graph.Node(j))
		}
	}
	s := g.Snapshot()
	if s.BaseEdges() == ps.BaseEdges() {
		t.Fatal("the dead-label writes did not compact the store")
	}
	scratch, err := p.Eval(ctx, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if scratch.Fingerprint() == prev.Fingerprint() {
		t.Fatal("compaction changed no witness: the test lost its tie")
	}
	res, kind, err := p.Advance(ctx, prev, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if kind != AdvanceNone {
		t.Fatalf("%v advance across a compaction (fingerprint %x, scratch %x), want none", kind, res.Fingerprint(), scratch.Fingerprint())
	}
}

// TestAdvanceWitnessMatchesScratch is the seeded differential of the
// witness re-stamp: queries with head path variables (one and two
// components, bound and unbound starts, one and several workers) under a
// storm of live- and dead-label writes, at nodes the runs reached and at
// nodes they did not, with compactions between them. At every epoch the
// advanced result — re-stamped, revalidated or recomputed — must carry a
// scratch evaluation's fingerprint, witnesses included.
func TestAdvanceWitnessMatchesScratch(t *testing.T) {
	x0 := map[NodeVar]graph.Node{"x": 0}
	cases := []struct {
		src  string
		bind map[NodeVar]graph.Node
	}{
		{"Ans(x,y,p) <- (x,p,y), (a|b)*a(p)", x0},
		{"Ans(x,y,p) <- (x,p,y), (a|b)*a(p)", nil},
		{"Ans(x,y,p1) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", x0},
		// Two components: z sweeps post[(a|b)+](x) when x is bound.
		{"Ans(x,y,p,q) <- (x,p,z), (z,q,y), (a|b)+(p), b(a|b)*(q)", x0},
		{"Ans(x,y,p) <- (x,p,z), (z,q,y), (a|b)+(p), b+(q)", x0},
		{"Ans(x,y,p) <- (x,p,z), (z,q,y), (a|b)+(p), b+(q)", nil},
	}
	var restamps, compactions int
	for _, tc := range cases {
		for _, w := range []int{1, 2, 8} {
			name := fmt.Sprintf("%s bind %v W=%d", tc.src, tc.bind, w)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				g := graph.NewDB()
				// Two halves, 0..19 and 20..39: a run from node 0 reaches
				// the second half only after a write crosses over.
				const half = 20
				for i := 0; i < 2*half; i++ {
					g.AddNode("v" + itoa(i))
				}
				for i := 0; i < 100; i++ {
					off := half * rng.Intn(2)
					g.AddEdge(graph.Node(off+rng.Intn(half)), rune('a'+rng.Intn(2)), graph.Node(off+rng.Intn(half)))
				}
				p, err := CompileProgram(MustParse(tc.src, envABCD()), false)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				opts := Options{Bind: tc.bind, BFSWorkers: w}
				prev, err := p.EvalSnapshotMemo(ctx, g.Snapshot(), opts)
				if err != nil {
					t.Fatal(err)
				}
				kinds := map[AdvanceKind]int{}
				for round := 0; round < 60; round++ {
					ps := prev.Snap
					for range 1 + rng.Intn(3) {
						if rng.Intn(40) == 0 {
							g.AddNode("w" + itoa(round))
							continue
						}
						// Anywhere, crossing halves too; c and d are dead.
						n := g.NumNodes()
						g.AddEdge(graph.Node(rng.Intn(n)), rune('a'+rng.Intn(4)), graph.Node(rng.Intn(n)))
					}
					s := g.Snapshot()
					if s.BaseEdges() != ps.BaseEdges() {
						compactions++
					}
					res, kind, err := p.Advance(ctx, prev, s, opts)
					if err != nil {
						t.Fatalf("round %d: Advance: %v", round, err)
					}
					kinds[kind]++
					scratch, err := p.Eval(ctx, s, opts)
					if err != nil {
						t.Fatal(err)
					}
					if kind == AdvanceNone {
						if res, err = p.EvalSnapshotMemo(ctx, s, opts); err != nil {
							t.Fatal(err)
						}
					}
					if res.Fingerprint() != scratch.Fingerprint() {
						t.Fatalf("round %d: %v fingerprint %x != scratch %x", round, kind, res.Fingerprint(), scratch.Fingerprint())
					}
					prev = res
				}
				if kinds[AdvanceNone] == 0 || kinds[AdvanceRevalidated] == 0 {
					t.Fatalf("storm did not exercise fallback and revalidation: %v", kinds)
				}
				restamps += kinds[AdvanceIncremental]
				t.Logf("%v", kinds)
			})
		}
	}
	if restamps == 0 || compactions == 0 {
		t.Fatalf("%d re-stamps, %d compactions over the suite", restamps, compactions)
	}
}

// TestAdvanceFallbacks covers the remaining refusal conditions: node
// additions, oversized deltas, cross-store seeds and trimmed history.
func TestAdvanceFallbacks(t *testing.T) {
	ctx := context.Background()
	build := func() (*graph.DB, *Program, *Result) {
		g := graph.NewDB()
		for i := 0; i < 16; i++ {
			g.AddNode("v" + itoa(i))
		}
		for i := 0; i < 15; i++ {
			g.AddEdge(graph.Node(i), 'a', graph.Node(i+1))
		}
		p, err := CompileProgram(MustParse("Ans(x,y) <- (x,p,y), a+(p)", envABCD()), false)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := p.EvalSnapshotMemo(ctx, g.Snapshot(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return g, p, prev
	}

	// Node addition: even with zero new edges the answer set can grow.
	g, p, prev := build()
	g.AddNode("fresh")
	if _, kind, _ := p.Advance(ctx, prev, g.Snapshot(), Options{}); kind != AdvanceNone {
		t.Fatalf("node-add advance = %v, want none", kind)
	}

	// Oversized live delta: past the ratio threshold the pass declines.
	g, p, prev = build()
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if i != j {
				g.AddEdge(graph.Node(i), 'a', graph.Node(j))
			}
		}
	}
	if _, kind, _ := p.Advance(ctx, prev, g.Snapshot(), Options{}); kind != AdvanceNone {
		t.Fatalf("oversized-delta advance = %v, want none", kind)
	}

	// A seed from a different store never advances.
	g, p, prev = build()
	g2, _, _ := build()
	g2.AddEdge(0, 'b', 1)
	if _, kind, _ := p.Advance(ctx, prev, g2.Snapshot(), Options{}); kind != AdvanceNone {
		t.Fatalf("cross-store advance = %v, want none", kind)
	}

	// Options drift: a different binding cannot reuse the memo (but a
	// dead-label delta still revalidates — answers are option-independent
	// only through the memo guard, so check the incremental leg).
	g, p, prev = build()
	g.AddEdge(2, 'a', 9)
	bound := Options{Bind: map[NodeVar]graph.Node{"x": 3}}
	if _, kind, _ := p.Advance(ctx, prev, g.Snapshot(), bound); kind != AdvanceNone {
		t.Fatalf("options-drift advance = %v, want none", kind)
	}
}

// TestAdvanceFaultInjection: a forced DeltaBFS fault turns the delta
// pass into the full fallback; the recomputed result is identical.
func TestAdvanceFaultInjection(t *testing.T) {
	g := graph.NewDB()
	for i := 0; i < 12; i++ {
		g.AddNode("v" + itoa(i))
	}
	for i := 0; i < 11; i++ {
		g.AddEdge(graph.Node(i), 'a', graph.Node(i+1))
	}
	p, err := CompileProgram(MustParse("Ans(x,y) <- (x,p,y), a+(p)", envABCD()), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	prev, err := p.EvalSnapshotMemo(ctx, g.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(3, 'a', 0)
	s := g.Snapshot()

	faultinject.Set(func(pt faultinject.Point, n uint64) error {
		if pt == faultinject.DeltaBFS {
			return faultinject.ErrForced
		}
		return nil
	})
	defer faultinject.Clear()
	if _, kind, err := p.Advance(ctx, prev, s, Options{}); err != nil || kind != AdvanceNone {
		t.Fatalf("faulted advance = %v, %v, want clean none", kind, err)
	}
	if faultinject.Hits(faultinject.DeltaBFS) == 0 {
		t.Fatal("DeltaBFS fault point never fired")
	}
	faultinject.Clear()
	// Unfaulted, the same advance succeeds incrementally and matches the
	// full evaluation the fallback would have run.
	res, kind, err := p.Advance(ctx, prev, s, Options{})
	if err != nil || kind != AdvanceIncremental {
		t.Fatalf("unfaulted advance = %v, %v, want incremental", kind, err)
	}
	scratch, err := p.Eval(ctx, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint() != scratch.Fingerprint() {
		t.Fatal("incremental fingerprint differs from the fallback's")
	}
}

// TestAdvanceCancellation: the delta pass honors the context with the
// typed taxonomy, like any evaluation.
func TestAdvanceCancellation(t *testing.T) {
	g := graph.NewDB()
	for i := 0; i < 12; i++ {
		g.AddNode("v" + itoa(i))
	}
	for i := 0; i < 11; i++ {
		g.AddEdge(graph.Node(i), 'a', graph.Node(i+1))
	}
	p, err := CompileProgram(MustParse("Ans(x,y) <- (x,p,y), a+(p)", envABCD()), false)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := p.EvalSnapshotMemo(context.Background(), g.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(5, 'a', 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, kind, err := p.Advance(ctx, prev, g.Snapshot(), Options{})
	if kind != AdvanceNone || !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("cancelled advance = %v, %v, want none + ErrCanceled", kind, err)
	}
}
