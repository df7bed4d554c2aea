package ecrpq

import (
	"context"
	"fmt"
	"maps"
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

// kernelMove is one emitted move, copied out of the kernel's scratch,
// with the successor joint state it was emitted with.
type kernelMove struct {
	symInts []int
	symLabs []rune
	next    []graph.Node
	succ    int
}

// emitFunc is an emitter made of a function.
type emitFunc func(succ int) error

func (f emitFunc) emitMove(succ int) error { return f(succ) }

// stubJoint is a jointSource serving the test's own live sets, one row
// per joint id, so a case controls every coordinate without steering a
// real joint automaton into the right state. Its Step is stubNext, a
// fixed function of the state and the symbol's classes, and it counts its
// calls per (state, classes). The kernel's lazy runner names the symbol
// ids Step receives and answers the rest.
type stubJoint struct {
	*relations.JointRunner
	live  [][]relations.LiveSet
	calls map[string]int
}

func (f *stubJoint) Live(jointID int) []relations.LiveSet { return f.live[jointID] }

func (f *stubJoint) Step(state, sym int) (int, bool) {
	classes := f.SymRunes(sym)
	f.calls[stepKey(state, classes)]++
	return stubNext(state, classes)
}

func stepKey(state int, classes []rune) string { return fmt.Sprintf("%d%q", state, string(classes)) }

// stubNext kills about a third of the symbols and sends the others to
// one of 50 states.
func stubNext(state int, classes []rune) (int, bool) {
	h := state
	for _, c := range classes {
		h = 7*h + int(c)
	}
	return h % 50, h%3 != 0
}

// coordMoves lists one coordinate's admissible moves by brute force: ⊥
// when bot, then every out-edge of v whose label's class passes keep,
// base runs before delta runs. runs numbers each move's run: ⊥ is a run
// of its own, and a run is a maximal sequence of kept label runs of one
// segment, adjacent in it, that map to one class.
func coordMoves(s *graph.Snapshot, part *regex.Partition, v graph.Node, bot bool, keep func(class rune) bool) (classes []rune, labs []rune, tos []graph.Node, runs []int) {
	run := -1
	if bot {
		run++
		classes, labs, tos, runs = append(classes, regex.Bot), append(labs, regex.Bot), append(tos, v), append(runs, run)
	}
	for _, seg := range [][]graph.LabelRun{s.BaseRuns(v), s.DeltaRuns(v)} {
		prev, adjacent := rune(-1), false
		for _, lr := range seg {
			c := part.ClassOf(lr.Label)
			if !keep(c) {
				adjacent = false
				continue
			}
			if !adjacent || c != prev {
				run++
			}
			prev, adjacent = c, true
			for _, ed := range s.EdgeRange(lr.Start, lr.End) {
				classes, labs, tos, runs = append(classes, c), append(labs, ed.Label), append(tos, ed.To), append(runs, run)
			}
		}
	}
	return classes, labs, tos, runs
}

// TestKernelEnumeratesContractOrder pins the kernel's contract on two
// class-compiled components, one without character classes (eq, which
// tells labels apart: the singleton cells of its alphabet): the emitted
// moves are the brute-force
// product of each coordinate's admissible moves in contract order, minus
// those whose symbol is dead, each with its successor; moves counts every
// combination, dead ones included; and the joint automaton steps once per
// (state, symbol) with flat rows, once per (state, outer move, innermost
// run) without — never per edge.
func TestKernelEnumeratesContractOrder(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	sigma := []rune("abcd")
	env := Env{Sigma: sigma}
	comps := map[string]*component{}
	for name, src := range map[string]string{
		"plain": "Ans(x, y) <- (x,p1,z), (z,p2,y), eq(p1,p2)",
		"class": "Ans(x, y) <- (x,p1,z), (z,p2,y), el(p1,p2), [a-b]+(p1), [^c]*(p2)",
	} {
		cs, err := decompose(MustParse(src, env), false)
		if err != nil || len(cs) != 1 || len(cs[0].vars) != 2 {
			t.Fatalf("%s: decompose gave %d components, err %v", name, len(cs), err)
		}
		comps[name] = cs[0]
	}
	if n := comps["plain"].part.NumClasses(); n != len(sigma) {
		t.Fatalf("plain component has %d classes, want the %d singletons of its alphabet", n, len(sigma))
	}

	for trial := 0; trial < 4; trial++ {
		n := 6 + r.Intn(5)
		g, _ := overlayPair(t, r, n, 4*n, 2*n, sigma)
		s := g.Snapshot()
		for name, c := range comps {
			var list, whole []rune
			for _, l := range sigma {
				whole = append(whole, c.part.ClassOf(l))
			}
			list = []rune{c.part.ClassOf('a'), c.part.ClassOf('d')}
			for _, cs := range []*[]rune{&list, &whole} {
				slices.Sort(*cs)
				*cs = slices.Compact(*cs)
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
			var live [][]relations.LiveSet
			for _, a := range sets {
				for _, b := range sets {
					live = append(live, []relations.LiveSet{a, b})
				}
			}
			for _, noPrune := range []bool{false, true} {
				for _, rows := range []bool{true, false} {
					pc := newProdCore(s, c)
					pc.bindJoint(false)
					stub := &stubJoint{JointRunner: pc.runner, live: live}
					pc.src, pc.noPrune = stub, noPrune
					if !rows {
						pc.rowWidth = 0
						clear(pc.pow)
					}
					var got []kernelMove
					pc.emit = emitFunc(func(succ int) error {
						got = append(got, kernelMove{slices.Clone(pc.symInts), slices.Clone(pc.symLabs), slices.Clone(pc.next), succ})
						return nil
					})
					for joint, ls := range live {
						cur := []graph.Node{graph.Node(r.Intn(n)), graph.Node(r.Intn(n))}
						label := fmt.Sprintf("trial %d %s noPrune=%v rows=%v live=%v at %v", trial, name, noPrune, rows, ls, cur)

						var classes, labs [2][]rune
						var tos [2][]graph.Node
						var runs [2][]int
						dead := false
						for i, v := range cur {
							keep := func(class rune) bool { return ls[i].All || slices.Contains(ls[i].Labels, class) }
							bot := ls[i].Bot
							if noPrune {
								keep, bot = func(rune) bool { return true }, true
							}
							classes[i], labs[i], tos[i], runs[i] = coordMoves(s, c.part, v, bot, keep)
							dead = dead || len(classes[i]) == 0
						}
						var want []kernelMove
						combos := 0
						wantSteps := map[string]int{}
						for a := range classes[0] {
							for b := range classes[1] {
								combos++
								sym := []rune{classes[0][a], classes[1][b]}
								if b == 0 || runs[1][b] != runs[1][b-1] {
									wantSteps[stepKey(joint, sym)]++
								}
								if succ, ok := stubNext(joint, sym); ok {
									want = append(want, kernelMove{
										[]int{int(sym[0]), int(sym[1])},
										[]rune{labs[0][a], labs[1][b]},
										[]graph.Node{tos[0][a], tos[1][b]},
										succ,
									})
								}
							}
						}
						if rows {
							for key := range wantSteps {
								wantSteps[key] = 1
							}
						}

						got, stub.calls = got[:0], map[string]int{}
						if ok := pc.prepareMoves(joint, cur); ok == dead {
							t.Fatalf("%s: prepareMoves = %v with dead = %v", label, ok, dead)
						}
						if dead {
							continue
						}
						before := pc.moves
						if err := pc.forEachMove(joint, cur); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: emitted %d moves, want %d:\n got %v\nwant %v", label, len(got), len(want), got, want)
						}
						if pc.moves-before != combos {
							t.Fatalf("%s: moves counted %d, want every combination: %d", label, pc.moves-before, combos)
						}
						if !maps.Equal(stub.calls, wantSteps) {
							t.Fatalf("%s: stepped %v, want %v", label, stub.calls, wantSteps)
						}
					}
				}
			}
		}
	}
}

// TestFlatRowsMatchRunner evaluates random components, with and without
// character classes, and checks every lazy flat-row entry the evaluation
// filled against a fresh JointRunner: walking the rows from the start
// state, each entry's class tuple must step the fresh runner to the state
// the entry names (or to nothing, for a dead entry), one fresh state per
// row state. Turning the rows off must not change the answers, and a
// component whose symbol space exceeds maxRowWidth keeps none. Lazy rows
// are what NoPrune executions fill, and every execution of a component
// kept lazy (tableCells 0); a pruning execution of a component with a
// minimal table reads the table's rows and builds no runner at all.
func TestFlatRowsMatchRunner(t *testing.T) {
	defer func(cells int) { tableCells = cells }(tableCells)
	r := rand.New(rand.NewSource(31))
	sigma := []rune("abc")
	langs := []string{"a+", "(a|b)*", "[a-b]+", "[^a]*", "c?a(b|c)*", "(ab)*", ".b*", "[b-c]*a"}
	rels := []string{"el", "eq", "prefix", "lt"}
	for trial := 0; trial < 24; trial++ {
		text := fmt.Sprintf("Ans(x, y) <- (x,p1,z), (z,p2,y), %s(p1,p2), %s(p1), %s(p2)",
			rels[r.Intn(len(rels))], langs[r.Intn(len(langs))], langs[r.Intn(len(langs))])
		if trial%3 == 0 {
			text = fmt.Sprintf("Ans(x, y) <- (x,p,y), %s(p)", langs[r.Intn(len(langs))])
		}
		q := MustParse(text, Env{Sigma: sigma})
		s := bigComponentGraph(r, 8, 3, sigma).Snapshot()
		for run := 0; run < 3; run++ {
			noPrune := run == 1
			tableCells = maxPooledScratch
			if run == 2 {
				tableCells = 0
			}
			prog, err := CompileProgram(q, false)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			opts := Options{NoPrune: noPrune, BFSWorkers: 1}
			res, err := prog.Eval(context.Background(), s, opts)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			e := prog.take(0)
			if run == 0 {
				if e.tab == nil || e.tab != e.c.dfa || e.runner != nil || e.flat != nil {
					t.Fatalf("%s: a pruning execution read table %p (component's %p), built runner %p and %d lazy rows", text, e.tab, e.c.dfa, e.runner, len(e.flat))
				}
				prog.put(0, e)
				continue
			}
			if e.rowWidth == 0 {
				t.Fatalf("%s: a %d-class component keeps no rows", text, e.part.NumClasses())
			}
			checkRows(t, text, &e.moveKernel, e.c)
			e.rowWidth, e.flat, e.flatCells = 0, nil, 0
			clear(e.pow)
			prog.put(0, e)
			again, err := prog.Eval(context.Background(), s, opts)
			if err != nil {
				t.Fatalf("%s without rows: %v", text, err)
			}
			sameResult(t, text+" without rows", again, res)
		}
	}

	// Four eq-joined tapes over 32 labels, each its own class: k^cnt =
	// 34⁴ ≈ 1.3 M entries a row. (el would read Σ as one class: 4 cells
	// here, and a table.)
	sigma = []rune("abcdefghijklmnopqrstuvwxyzABCDEF")
	q := MustParse("Ans(y1, y4) <- (x,p1,y1), (x,p2,y2), (x,p3,y3), (x,p4,y4), eq(p1,p2), eq(p2,p3), eq(p3,p4), (a|b)+(p1)", Env{Sigma: sigma})
	s := bigComponentGraph(r, 6, 3, sigma[:2]).Snapshot()
	bind := map[NodeVar]graph.Node{"x": 0}
	want := evalFresh(t, q, s, Options{Bind: bind, NoPrune: true, BFSWorkers: 1})
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Eval(context.Background(), s, Options{Bind: bind, BFSWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "4 tapes over 32 labels", res, want)
	if len(want.Answers) == 0 {
		t.Fatal("4 tapes over 32 labels: no answers; the graph exercises nothing")
	}
	e := prog.take(0)
	if e.c.dfa != nil {
		t.Fatal("4 tapes over 32 labels: the table exploration stayed within its bound; the test exercises no lazy rows")
	}
	if e.cnt != 4 || e.rowWidth != 0 || e.flat != nil || e.flatCells != 0 {
		t.Fatalf("4 tapes over 32 labels: cnt %d, row width %d, %d rows of %d cells", e.cnt, e.rowWidth, len(e.flat), e.flatCells)
	}
	if e.runner.NumSyms() == 0 {
		t.Fatal("4 tapes over 32 labels: nothing stepped; the test exercises nothing")
	}
	prog.put(0, e)
}

// checkRows walks k's flat rows from the start state against a fresh
// runner over c's joint (see TestFlatRowsMatchRunner).
func checkRows(t *testing.T, label string, k *moveKernel, c *component) {
	t.Helper()
	fresh := relations.NewJointRunner(c.joint)
	base := c.part.NumClasses() + 2
	toFresh := map[int]int{k.runner.StartID(): fresh.StartID()}
	fromFresh := map[int]int{fresh.StartID(): k.runner.StartID()}
	syms := map[string]int{}
	queue := []int{k.runner.StartID()}
	visited, entries := 0, 0
	for ; len(queue) > 0; queue = queue[1:] {
		j := queue[0]
		if j >= len(k.flat) || k.flat[j] == nil {
			continue
		}
		visited++
		for idx, v := range k.flat[j] {
			if v == 0 {
				continue
			}
			entries++
			classes := make([]rune, k.cnt)
			for i, x := 0, idx; i < k.cnt; i, x = i+1, x/base {
				classes[i] = rune(x % base)
			}
			sym, ok := syms[string(classes)]
			if !ok {
				sym = fresh.AddSym(classes)
				syms[string(classes)] = sym
			}
			next, live := fresh.Step(toFresh[j], sym)
			if live != (v > 0) {
				t.Fatalf("%s: state %d by %v: row says live=%v, runner %v", label, j, classes, v > 0, live)
			}
			if !live {
				continue
			}
			got := int(v - 1)
			if f, seen := toFresh[got]; seen {
				if f != next {
					t.Fatalf("%s: state %d by %v: row names %d (fresh %d), runner steps to fresh %d", label, j, classes, got, f, next)
				}
				continue
			}
			if o, seen := fromFresh[next]; seen {
				t.Fatalf("%s: fresh state %d is both row state %d and %d", label, next, o, got)
			}
			toFresh[got], fromFresh[next] = next, got
			queue = append(queue, got)
		}
	}
	rows := 0
	for _, row := range k.flat {
		if row != nil {
			rows++
		}
	}
	if visited != rows || entries == 0 {
		t.Fatalf("%s: walked %d of %d rows, %d entries", label, visited, rows, entries)
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
			res, err := prog.Eval(context.Background(), s, Options{Bind: bind, BFSWorkers: w})
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
// idle pooled engine must not pin the snapshot it last ran over, through
// the engine's kernel or a fan-out sibling's kernel.
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
		if _, err := prog.Eval(context.Background(), s, Options{BFSWorkers: w}); err != nil {
			t.Fatal(err)
		}
		e := prog.take(0)
		if e.snap != nil {
			t.Fatalf("W=%d: pooled engine retains its snapshot", w)
		}
		if w > 1 && (e.fan == nil || len(e.fan.sibs) == 0) {
			t.Fatalf("W=%d: no fan-out sibling was built; the test exercises nothing", w)
		}
		if e.fan != nil {
			for i, sib := range e.fan.sibs {
				if sib.snap != nil {
					t.Fatalf("W=%d: sibling %d retains its snapshot", w, i)
				}
			}
		}
		prog.put(0, e)
	}
}
