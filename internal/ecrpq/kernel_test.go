package ecrpq

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/relations"
)

// This file tests the move kernel's contract directly, below the
// end-to-end fingerprints: prepareMoves + forEachMove must hand the emit
// function exactly the product of each coordinate's admissible moves, in
// the order every driver's determinism rests on — per coordinate ⊥
// first, then the node's label runs in order with the base segment
// before the delta overlay, coordinates nested first-outermost.

// kernelMove is one enumerated move, copied out of the kernel's scratch.
type kernelMove struct {
	symInts []int
	symLabs []rune
	next    []graph.Node
}

// fixedLive is a liveSource serving the test's own live sets, one row per
// joint id, so a case controls every coordinate without steering a real
// joint automaton into the right state.
type fixedLive [][]relations.LiveSet

func (f fixedLive) Live(jointID int) []relations.LiveSet { return f[jointID] }

// coordMoves lists one coordinate's admissible moves by brute force: ⊥
// when bot, then every out-edge of v whose label (its class, in class
// mode) passes keep, base runs before delta runs.
func coordMoves(s *graph.Snapshot, part *regex.Partition, v graph.Node, bot bool, keep func(sym rune) bool) (syms []int, labs []rune, tos []graph.Node) {
	if bot {
		syms, labs, tos = append(syms, int(regex.Bot)), append(labs, regex.Bot), append(tos, v)
	}
	for _, runs := range [][]graph.LabelRun{s.BaseRuns(v), s.DeltaRuns(v)} {
		for _, run := range runs {
			sym := run.Label
			if part != nil {
				sym = part.ClassOf(run.Label)
			}
			if !keep(sym) {
				continue
			}
			for _, ed := range s.EdgeRange(run.Start, run.End) {
				syms, labs, tos = append(syms, int(sym)), append(labs, ed.Label), append(tos, ed.To)
			}
		}
	}
	return syms, labs, tos
}

func TestKernelEnumeratesContractOrder(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	sigma := []rune("abcd")
	env := Env{Sigma: sigma}
	comps := map[string]*component{}
	for name, src := range map[string]string{
		"legacy": "Ans(x, y) <- (x,p1,z), (z,p2,y), el(p1,p2)",
		"class":  "Ans(x, y) <- (x,p1,z), (z,p2,y), el(p1,p2), [a-b]+(p1), [^c]*(p2)",
	} {
		cs, err := decompose(MustParse(src, env), false)
		if err != nil || len(cs) != 1 || len(cs[0].vars) != 2 {
			t.Fatalf("%s: decompose gave %d components, err %v", name, len(cs), err)
		}
		comps[name] = cs[0]
	}
	if comps["legacy"].part != nil || comps["class"].part == nil {
		t.Fatal("want one legacy and one class-compiled component")
	}

	for trial := 0; trial < 4; trial++ {
		n := 6 + r.Intn(5)
		g, _ := overlayPair(t, r, n, 4*n, 2*n, sigma)
		s := g.Snapshot()
		for name, c := range comps {
			// The label list is a proper subset of what the graph carries;
			// in legacy mode it also names a label the graph lacks ('z'),
			// which liveFor's alphabet intersection must drop.
			list := []rune{'a', 'c', 'z'}
			whole := append([]rune(nil), s.Alphabet()...) // collapses to All in legacy mode
			if c.part != nil {
				list = []rune{c.part.ClassOf('a'), c.part.ClassOf('d')}
				slices.Sort(list)
				list = slices.Compact(list)
				whole = list
			}
			sets := []relations.LiveSet{
				{All: true, Bot: true},
				{All: true},
				{Labels: list, Bot: true},
				{Labels: list},
				{Labels: whole},
				{Bot: true}, // ⊥ only
				{},          // dead
			}
			var live fixedLive
			for _, a := range sets {
				for _, b := range sets {
					live = append(live, []relations.LiveSet{a, b})
				}
			}
			for _, noPrune := range []bool{false, true} {
				pc := newProdCore(s, c)
				pc.live, pc.noPrune = live, noPrune
				var got []kernelMove
				pc.emit = func() error {
					got = append(got, kernelMove{slices.Clone(pc.symInts), slices.Clone(pc.symLabs), slices.Clone(pc.next)})
					return nil
				}
				for joint, ls := range live {
					cur := []graph.Node{graph.Node(r.Intn(n)), graph.Node(r.Intn(n))}
					label := fmt.Sprintf("trial %d %s noPrune=%v live=%v at %v", trial, name, noPrune, ls, cur)

					var syms [2][]int
					var labs [2][]rune
					var tos [2][]graph.Node
					dead := false
					for i, v := range cur {
						keep := func(sym rune) bool { return ls[i].All || slices.Contains(ls[i].Labels, sym) }
						bot := ls[i].Bot
						if noPrune {
							keep, bot = func(rune) bool { return true }, true
						}
						syms[i], labs[i], tos[i] = coordMoves(s, c.part, v, bot, keep)
						dead = dead || len(syms[i]) == 0
					}
					var want []kernelMove
					for a := range syms[0] {
						for b := range syms[1] {
							want = append(want, kernelMove{
								[]int{syms[0][a], syms[1][b]},
								[]rune{labs[0][a], labs[1][b]},
								[]graph.Node{tos[0][a], tos[1][b]},
							})
						}
					}

					got = got[:0]
					if ok := pc.prepareMoves(joint, cur); ok == dead {
						t.Fatalf("%s: prepareMoves = %v with dead = %v", label, ok, dead)
					}
					if dead {
						continue
					}
					if err := pc.forEachMove(cur); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: enumerated %d moves, want %d:\n got %v\nwant %v", label, len(got), len(want), got, want)
					}
				}
			}
		}
	}
}

// TestWorkersOnlyFanOut: BFSWorkers caps the start-assignment fan-out and
// nothing else. A component with one start assignment has nothing to fan
// out, so even with the cost model's test hook sending every decision
// wide it runs at W=8 exactly as at W=1: the same fingerprint, the same
// allocations, and no fan-out.
func TestWorkersOnlyFanOut(t *testing.T) {
	s := randomCyclic(rand.New(rand.NewSource(5)), 12, 40).Snapshot()
	q := MustParse("Ans(y, z) <- (x,p1,y), (x,p2,z), el(p1,p2)", env())
	bind := map[NodeVar]graph.Node{"x": 0}
	forceParallel(t)
	var fps [2]uint64
	var allocs [2]float64
	for i, w := range []int{1, 8} {
		prog, err := CompileProgram(q, false)
		if err != nil {
			t.Fatal(err)
		}
		eval := func() *Result {
			res, err := prog.EvalSnapshot(context.Background(), s, Options{Bind: bind, BFSWorkers: w})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		fanouts := BFSParallelStats()
		fps[i] = eval().Fingerprint()
		allocs[i] = testing.AllocsPerRun(20, func() { eval() })
		if BFSParallelStats() != fanouts {
			t.Errorf("W=%d: one start assignment fanned out", w)
		}
	}
	if fps[0] != fps[1] {
		t.Errorf("fingerprint %016x at W=8, %016x at W=1", fps[1], fps[0])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("%v allocations per evaluation at W=8, %v at W=1", allocs[1], allocs[0])
	}
}

// TestPooledEngineReleasesLargeSnapshot: past maxPooledScratch edges an
// idle pooled engine must not pin the snapshot it last ran over —
// through the engine's kernel, a fan-out sibling's kernel, or the
// live-set memo keyed on it.
func TestPooledEngineReleasesLargeSnapshot(t *testing.T) {
	const n = 300
	g := graph.NewDB()
	g.AddNodes(n)
	for i := 0; g.NumEdges() <= maxPooledScratch; i++ {
		g.AddEdge(graph.Node(i%n), 'c', graph.Node(i/n%n))
	}
	for i := graph.Node(0); i < 40; i++ {
		g.AddEdge(i, 'a', i+1)
		g.AddEdge(i, 'a', (i+7)%40)
	}
	s := g.Snapshot()
	q := MustParse("Ans(x, y) <- (x,p,y), a+(p)", env())
	// x unbound: with the cost model's test hook set, W=2 fans the second
	// half of the start assignments out to a sibling engine.
	forceParallel(t)
	for _, w := range []int{1, 2} {
		prog, err := CompileProgram(q, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prog.EvalSnapshot(context.Background(), s, Options{BFSWorkers: w}); err != nil {
			t.Fatal(err)
		}
		e := prog.take(0)
		if e.snap != nil || e.effSnap != nil {
			t.Fatalf("W=%d: pooled engine retains snap=%v effSnap=%v", w, e.snap != nil, e.effSnap != nil)
		}
		if w > 1 && (e.fan == nil || len(e.fan.sibs) == 0) {
			t.Fatalf("W=%d: no fan-out sibling was built; the test exercises nothing", w)
		}
		if e.fan != nil {
			for i, sib := range e.fan.sibs {
				if sib.snap != nil || sib.effSnap != nil {
					t.Fatalf("W=%d: sibling %d retains snap=%v effSnap=%v", w, i, sib.snap != nil, sib.effSnap != nil)
				}
			}
		}
		prog.put(0, e)
	}
}
