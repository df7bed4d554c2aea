package ecrpq

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// resumeCases are the texts of the resume differential over envABCD (d is
// a label no text reads): the five serve texts, a two-tape eq component,
// a Boolean head (the stop rules), and unbound forms that run one start
// assignment per node. chain binds x, so its free z is confined to
// post[a+](x), a list the script's a-edges grow.
var resumeCases = []struct {
	name, text string
	bound      bool
}{
	{"rpq", "Ans(x,y) <- (x,p,y), a+b(p)", true},
	{"three", "Ans(x,y) <- (x,p,y), (a|b)(a|b)(a|b)(p)", true},
	{"wit", "Ans(x,y,p) <- (x,p,y), ab*c(p)", true},
	{"chain", "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", true},
	{"anbn", "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", true},
	{"eq", "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), eq(p1,p2)", true},
	{"bool", "Ans() <- (x,p,y), a+b(p)", false},
	{"rpq-free", "Ans(x,y) <- (x,p,y), a+b(p)", false},
	{"wit-free", "Ans(x,y,p) <- (x,p,y), (a|b)*c(p)", false},
}

// resumeTally counts what a script's advances did.
type resumeTally struct {
	kinds     map[AdvanceKind]int
	resumed   int // incremental advances that carried a new memo
	restamped int // of those, the ones that kept the previous answers
	grewList  int // advances whose memo enumerates more start candidates
}

// resumeConfigs are the settings the resume differential runs under:
// the workers (every capture fanned out), the product states' key layout
// (generic: packedKeyBits 0, the bitset off), the joint automaton (lazy:
// tableCells 0) and memos past memoMaxEntries. Each setting meets the
// others at least once.
var resumeConfigs = []struct {
	workers                 int
	generic, lazy, overflow bool
}{
	{1, false, false, false}, {2, false, false, false}, {8, false, false, false},
	{1, true, false, false}, {8, true, true, false},
	{1, false, true, false}, {2, true, true, false},
	{2, false, false, true}, {8, true, true, true},
}

// TestAdvanceResumeMatchesScratch is the differential of the delta pass
// that resumes runs from their recorded product states: every text of
// resumeCases under a seeded script of 64 one-edge writes (live labels
// from nodes the runs reached and from anywhere, labels no run can take
// there — dead moves — and labels no text reads, and now and then a node)
// under every setting of resumeConfigs. After every write the advanced
// result — re-stamped, resumed, revalidated or recomputed — must carry
// the fingerprint of a scratch evaluation.
func TestAdvanceResumeMatchesScratch(t *testing.T) {
	t.Run("witness dead move", testWitnessDeadMoveRestamps)
	t.Run("layout flips", testLayoutFlipsBetweenEpochs)
	forceParallel(t)
	var total resumeTally
	total.kinds = map[AdvanceKind]int{}
	for _, cf := range resumeConfigs {
		name := fmt.Sprintf("W=%d generic=%t lazy=%t overflow=%t", cf.workers, cf.generic, cf.lazy, cf.overflow)
		t.Run(name, func(t *testing.T) {
			if cf.generic {
				setPacking(t, 0, minJointBits)
				setBitset(t, 0)
			}
			if cf.lazy {
				setTableCells(t, 0)
			}
			if cf.overflow {
				old := memoMaxEntries
				memoMaxEntries = 48
				t.Cleanup(func() { memoMaxEntries = old })
			}
			for _, tc := range resumeCases {
				tl := runResumeScript(t, tc.name, tc.text, tc.bound, cf.workers, nil)
				for k, n := range tl.kinds {
					total.kinds[k] += n
				}
				if !cf.lazy && !cf.overflow {
					total.resumed += tl.resumed
					total.restamped += tl.restamped
				}
				if tc.name == "chain" && !cf.overflow && tl.grewList == 0 {
					t.Errorf("%s: no advance grew z's candidate list", tc.name)
				}
			}
		})
	}
	t.Logf("kinds %v; on the table: %d advances carried a new memo, %d of them the previous answers",
		total.kinds, total.resumed, total.restamped)
	if total.kinds[AdvanceNone] == 0 || total.kinds[AdvanceRevalidated] == 0 || total.kinds[AdvanceIncremental] == 0 {
		t.Errorf("the scripts did not exercise every kind: %v", total.kinds)
	}
	if total.resumed == 0 || total.restamped == 0 || total.restamped == total.resumed {
		t.Errorf("%d advances carried a new memo, %d kept the answers: want both kinds", total.resumed, total.restamped)
	}
}

// testLayoutFlipsBetweenEpochs switches the key layout a memo would take
// (packedKeyBits 64 or 0) every third write of the script: a memo
// captured under one layout meets an advance under the other, whose memo
// must not mix the two, and later advances must still read every segment
// right.
func testLayoutFlipsBetweenEpochs(t *testing.T) {
	setPacking(t, packedKeyBits, minJointBits)
	keyBits := packedKeyBits
	for _, tc := range resumeCases {
		runResumeScript(t, tc.name, tc.text, tc.bound, 2, func(step int) {
			if step%3 == 0 {
				packedKeyBits = keyBits - packedKeyBits
			}
		})
	}
}

// runResumeScript compiles text, evaluates it with a memo on a seeded
// 28-node graph (x bound to node 0 when bound) and advances it through
// the write script, checking every epoch against an evaluation from
// scratch. before, when set, runs before each step's advance.
func runResumeScript(t *testing.T, name, text string, bound bool, workers int, before func(step int)) resumeTally {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(text))*31 + 5))
	g := graph.NewDB()
	const nNodes = 28
	g.AddNodes(nNodes)
	for range 70 {
		g.AddEdge(graph.Node(rng.Intn(nNodes)), rune('a'+rng.Intn(3)), graph.Node(rng.Intn(nNodes)))
	}
	g.AddEdge(0, 'a', 1)
	p, err := CompileProgram(MustParse(text, envABCD()), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{BFSWorkers: workers}
	if bound {
		opts.Bind = map[NodeVar]graph.Node{"x": 0}
	}
	scratch := Options{Bind: opts.Bind, BFSWorkers: 1}
	prev, err := p.EvalSnapshotMemo(ctx, g.Snapshot(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tl := resumeTally{kinds: map[AdvanceKind]int{}}
	for step := range 64 {
		from, to := graph.Node(rng.Intn(g.NumNodes())), graph.Node(rng.Intn(g.NumNodes()))
		switch r := rng.Intn(32); {
		case r == 0:
			g.AddNode("")
		case r < 6:
			g.AddEdge(from, 'd', to)
		case r < 18:
			if reached := memoNodes(prev.inc); len(reached) > 0 {
				from = reached[rng.Intn(len(reached))]
			}
			fallthrough
		default:
			g.AddEdge(from, rune('a'+rng.Intn(3)), to)
		}
		s := g.Snapshot()
		if before != nil {
			before(step)
		}
		res, kind, err := p.Advance(ctx, prev, s, opts)
		if err != nil {
			t.Fatalf("%s step %d: Advance: %v", name, step, err)
		}
		tl.kinds[kind]++
		switch kind {
		case AdvanceNone:
			if res, err = p.EvalSnapshotMemo(ctx, s, opts); err != nil {
				t.Fatal(err)
			}
		case AdvanceIncremental:
			if res.inc != prev.inc && res.inc != nil {
				tl.resumed++
				if len(res.Answers) > 0 && len(prev.Answers) > 0 && &res.Answers[0] == &prev.Answers[0] {
					tl.restamped++
				}
			}
			if res.inc != nil && prev.inc != nil && memoCandidates(res.inc) > memoCandidates(prev.inc) {
				tl.grewList++
			}
		}
		want, err := p.Eval(ctx, s, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s step %d: %v advance fingerprint %016x, scratch %016x (%d vs %d answers)",
				name, step, kind, res.Fingerprint(), want.Fingerprint(), len(res.Answers), len(want.Answers))
		}
		prev = res
	}
	return tl
}

// memoNodes lists the nodes of the states a memo recorded (none for a
// nil memo), with repeats on a memo with a table.
func memoNodes(m *incMemo) []graph.Node {
	if m == nil {
		return nil
	}
	var out []graph.Node
	for _, cm := range m.comps {
		nodes := make([]graph.Node, cm.cnt)
		for _, seg := range cm.segs {
			for i := range len(seg.states) / cm.width {
				if cm.tab == nil { // a lazy memo records nodes
					out = append(out, graph.Node(seg.states[i]))
					continue
				}
				cm.state(seg.states, i, nodes)
				out = append(out, nodes...)
			}
		}
	}
	return out
}

// testWitnessDeadMoveRestamps: on v0 -a-> v1 -b-> v2 -c-> v3, ab*c from
// v0 reaches v1 only after its a, where the joint admits b and c. An
// a-edge out of v1 is a label the query reads, from a node its run
// reached, but a dead move there: the witness query is re-stamped, not
// recomputed. A c-edge out of v1 is a live move, and it falls back.
func testWitnessDeadMoveRestamps(t *testing.T) {
	g := graph.NewDB()
	g.AddNodes(8)
	for _, e := range []struct {
		from  graph.Node
		label rune
		to    graph.Node
	}{{0, 'a', 1}, {1, 'b', 2}, {2, 'c', 3}, {4, 'd', 5}, {5, 'd', 6}, {6, 'd', 7}, {7, 'd', 4}, {4, 'd', 6}} {
		g.AddEdge(e.from, e.label, e.to)
	}
	p, err := CompileProgram(MustParse("Ans(x,y,p) <- (x,p,y), ab*c(p)", envABCD()), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{Bind: map[NodeVar]graph.Node{"x": 0}}
	prev, err := p.EvalSnapshotMemo(ctx, g.Snapshot(), opts)
	if err != nil || len(prev.Answers) != 1 {
		t.Fatalf("eval: %v, %d answers; want the one witness v0 a b c v3", err, len(prev.Answers))
	}
	g.AddEdge(1, 'a', 4)
	res, kind, err := p.Advance(ctx, prev, g.Snapshot(), opts)
	if err != nil || kind != AdvanceIncremental || &res.Answers[0] != &prev.Answers[0] {
		t.Fatalf("dead move from a reached node: advance = %v, %v; want a re-stamp", kind, err)
	}
	g.AddEdge(1, 'c', 5)
	if _, kind, err := p.Advance(ctx, res, g.Snapshot(), opts); err != nil || kind != AdvanceNone {
		t.Fatalf("live move from a reached node: advance = %v, %v; want none", kind, err)
	}
}
