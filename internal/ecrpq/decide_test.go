package ecrpq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/qerr"
)

// The head-directed evaluation suite (the stop rules of eval.go): a
// component whose needed columns are all start variables or bound ends
// each BFS at its first row, one whose needed columns are all bound (or
// that has none) ends its sweep there — and nothing a caller can observe
// may move: answers, witnesses and fingerprints equal the NoPrune oracle
// and the naive Definition 3.1 evaluator at every worker count, streamed
// or materialised, fresh or advanced; a stopped run charges the same
// states at every worker count and never more than the oracle.

// armedRules reports the stop rule each component's engine arms for an
// evaluation of prog under opts (the start-domain lists play no part).
func armedRules(prog *Program, s *graph.Snapshot, opts Options) []stopRule {
	rules := make([]stopRule, len(prog.comps))
	for i := range rules {
		e := prog.take(i)
		e.reset(s, opts, nil)
		rules[i] = e.stop
		prog.put(i, e)
	}
	return rules
}

// checkMemoRows compares a capturing default evaluation's memo with the
// NoPrune oracle's over the same enumeration. A component no rule is
// armed for holds the oracle's rows exactly. One with a rule armed (under
// capture the sweep rule stands down to the row rule) holds, per start
// assignment, one of the oracle's rows when the oracle has any and none
// otherwise, and no state.
func checkMemoRows(t *testing.T, label string, prog *Program, s *graph.Snapshot, opts Options, got, oracle *incMemo) {
	t.Helper()
	for i, rule := range armedRules(prog, s, opts) {
		cm, om := got.comps[i], oracle.comps[i]
		if !reflect.DeepEqual(cm.lists, om.lists) || cm.nAssign() != om.nAssign() {
			t.Fatalf("%s: component %d memo enumerates a different start space than NoPrune", label, i)
		}
		if rule == stopNone {
			for a := range cm.segs {
				if !slices.Equal(cm.segs[a].rows, om.segs[a].rows) {
					t.Fatalf("%s: component %d memo rows differ from NoPrune with no rule armed", label, i)
				}
			}
			continue
		}
		for a := 0; a < cm.nAssign(); a++ {
			row := cm.segs[a].rows
			all := om.segs[a].rows
			if len(all) == 0 || len(row) == 0 {
				if len(all) != len(row) {
					t.Fatalf("%s: component %d assignment %d: %d row values, NoPrune %d", label, i, a, len(row), len(all))
				}
				continue
			}
			found := false
			for k := 0; k+cm.stride <= len(all); k += cm.stride {
				found = found || slices.Equal(all[k:k+cm.stride], row)
			}
			if len(row) != cm.stride || !found {
				t.Fatalf("%s: component %d assignment %d: stopped segment %v is not one row of NoPrune's %v", label, i, a, row, all)
			}
			if len(cm.segs[a].states) != 0 {
				t.Fatalf("%s: component %d assignment %d: a stopped assignment sealed its states", label, i, a)
			}
		}
	}
}

// decideShape is one query of the suite with the rule each component
// arms unbound, and the variables worth binding.
type decideShape struct {
	text     string
	repeated *PathAtom // inserted after parsing, with AllowRepeatedPathVars
	rules    []stopRule
	binds    []NodeVar
}

var decideShapes = []decideShape{
	// Boolean, one component (the fig1a_m3 shape at one and two tapes).
	{text: "Ans() <- (x,p,y), (a|b)*a(p)", rules: []stopRule{stopSweep}, binds: []NodeVar{"x", "y"}},
	{text: "Ans() <- (x,p1,y), (u,p2,v), a*(p1), (a|b)+(p2), el(p1,p2)", rules: []stopRule{stopSweep}, binds: []NodeVar{"u", "y"}},
	// Head ⊆ start variables.
	{text: "Ans(x) <- (x,p,y), a+b*(p)", rules: []stopRule{stopRow}, binds: []NodeVar{"x", "y"}},
	{text: "Ans(x,u) <- (x,p1,y), (u,p2,v), (a|b)+(p1), eq(p1,p2)", rules: []stopRule{stopRow}, binds: []NodeVar{"u", "v"}},
	// A free needed Y column: no rule until it is bound.
	{text: "Ans(y) <- (x,p,y), a+(p)", rules: []stopRule{stopNone}, binds: []NodeVar{"x", "y"}},
	{text: "Ans(x,y) <- (x,p,y), (ab)*(p)", rules: []stopRule{stopNone}, binds: []NodeVar{"x", "y"}},
	// A head path variable keeps witnesses: never a rule.
	{text: "Ans(x, p) <- (x,p,y), a+(p)", rules: []stopRule{stopNone}, binds: []NodeVar{"x", "y"}},
	{text: "Ans(p) <- (x,p,y), (a|b)+(p)", rules: []stopRule{stopNone}, binds: []NodeVar{"y"}},
	// Boolean with two and three components: the join columns are needed.
	{text: "Ans() <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", rules: []stopRule{stopNone, stopRow}, binds: []NodeVar{"x", "z", "y"}},
	{text: "Ans() <- (x,p1,y), (y,p2,z), (z,p3,w), a*(p1), (a|b)(p2), b*(p3)", rules: []stopRule{stopNone, stopNone, stopRow}, binds: []NodeVar{"y", "z"}},
	{text: "Ans() <- (x,p1,y), (u,p2,v), (s,p3,t), a+(p1), b+(p2), (ab)+(p3)", rules: []stopRule{stopSweep, stopSweep, stopSweep}, binds: []NodeVar{"x"}},
	// A second component the head does not read past its join column (the
	// bigalpha_join shape).
	{text: "Ans(x,y) <- (x,p1,y), (x,p2,z), a+(p1), b+(p2)", rules: []stopRule{stopNone, stopRow}, binds: []NodeVar{"x", "y"}},
	// Repeated path variable: p is one tape with two atoms, y = z forced.
	{text: "Ans(x) <- (x,p,y), (a|b)+(p)", repeated: &PathAtom{"x", "p", "z"}, rules: []stopRule{stopRow}, binds: []NodeVar{"x", "z"}},
	{text: "Ans() <- (x,p,y), (w,q,v), a*(p), eq(p,q)", repeated: &PathAtom{"u", "p", "y"}, rules: []stopRule{stopSweep}, binds: []NodeVar{"u"}},
}

func (sh decideShape) query() *Query {
	q := MustParse(sh.text, env())
	if sh.repeated != nil {
		q.PathAtoms = slices.Insert(q.PathAtoms, 1, *sh.repeated)
		q.AllowRepeatedPathVars = true
	}
	return q
}

// TestStopRuleDerivation pins the rule each shape arms unbound, what
// binding its variables arms, and that NoPrune and capture stand down.
func TestStopRuleDerivation(t *testing.T) {
	s := stringGraph("ab").Snapshot()
	for _, sh := range decideShapes {
		prog, err := CompileProgram(sh.query(), false)
		if err != nil {
			t.Fatal(err)
		}
		if got := armedRules(prog, s, Options{}); !slices.Equal(got, sh.rules) {
			t.Errorf("%s: rules %v unbound, want %v", sh.text, got, sh.rules)
		}
		for _, r := range armedRules(prog, s, Options{NoPrune: true}) {
			if r != stopNone {
				t.Errorf("%s: NoPrune armed rule %v", sh.text, r)
			}
		}
		// Binding can only strengthen a rule: it takes a column out of the
		// needed-and-free set.
		for _, v := range sh.binds {
			for i, r := range armedRules(prog, s, Options{Bind: map[NodeVar]graph.Node{v: 0}}) {
				if r < sh.rules[i] {
					t.Errorf("%s: binding %s weakened component %d from %v to %v", sh.text, v, i, sh.rules[i], r)
				}
			}
		}
	}
	for _, tc := range []struct {
		text string
		bind map[NodeVar]graph.Node
		want stopRule
	}{
		{"Ans(y) <- (x,p,y), a+(p)", map[NodeVar]graph.Node{"y": 1}, stopSweep},
		{"Ans(x,y) <- (x,p,y), a+(p)", map[NodeVar]graph.Node{"y": 1}, stopRow},
		{"Ans(x,y) <- (x,p,y), a+(p)", map[NodeVar]graph.Node{"x": 0, "y": 1}, stopSweep},
		{"Ans(x) <- (x,p,y), a+(p)", map[NodeVar]graph.Node{"y": 1}, stopRow},
		{"Ans(x) <- (x,p,y), a+(p)", map[NodeVar]graph.Node{"x": 0}, stopSweep},
		{"Ans(x, p) <- (x,p,y), a+(p)", map[NodeVar]graph.Node{"x": 0, "y": 1}, stopNone},
	} {
		prog, err := CompileProgram(MustParse(tc.text, env()), false)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Bind: tc.bind}
		if got := armedRules(prog, s, opts)[0]; got != tc.want {
			t.Errorf("%s bind %v: rule %v, want %v", tc.text, tc.bind, got, tc.want)
		}
		e := prog.take(0)
		e.reset(s, opts, nil)
		e.startCapture()
		if e.stop == stopSweep {
			t.Errorf("%s bind %v: a capturing execution kept the sweep rule", tc.text, tc.bind)
		}
		prog.put(0, e)
	}
}

// TestDecideDifferential holds every shape, unbound and under each of its
// bindings, to the suite's contract on seeded DAGs (where the naive
// evaluator is exact) and cyclic graphs: checkDomainCase compares the
// default evaluation with NoPrune, the naive evaluator and the stream at
// W ∈ {1, 2, 8} with the fan-out forced on, memos equal
// across W and (checkMemoRows) row for row against NoPrune's.
func TestDecideDifferential(t *testing.T) { eachTable(t, testDecideDifferential) }

func testDecideDifferential(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(2401))
	armed := map[stopRule]int{}
	for trial := 0; trial < 6; trial++ {
		dag := trial%2 == 0
		var g *graph.DB
		if dag {
			g = randomDAG(r, 4+r.Intn(2), 0.6, sigmaAB)
		} else {
			g = randomCyclic(r, 5+r.Intn(3), 9+r.Intn(8))
		}
		s := g.Snapshot()
		for _, sh := range decideShapes {
			q := sh.query()
			for _, v := range append([]NodeVar{""}, sh.binds...) {
				var bind map[NodeVar]graph.Node
				if v != "" {
					bind = map[NodeVar]graph.Node{v: graph.Node(r.Intn(s.NumNodes()))}
				}
				checkDomainCase(t, fmt.Sprintf("trial %d %q bind %v", trial, q, bind), q, s, bind, dag)
				prog, err := CompileProgram(q, false)
				if err != nil {
					t.Fatal(err)
				}
				for _, rule := range armedRules(prog, s, Options{Bind: bind}) {
					armed[rule]++
				}
			}
		}
	}
	t.Logf("components evaluated under no rule / the row rule / the sweep rule: %d / %d / %d",
		armed[stopNone], armed[stopRow], armed[stopSweep])
	for _, rule := range []stopRule{stopNone, stopRow, stopSweep} {
		if armed[rule] < 20 {
			t.Fatalf("rule %v armed for only %d components; the suite exercises nothing", rule, armed[rule])
		}
	}
}

// TestDecideAdvanceStorm: a capturing evaluation chained through Advance
// under a write storm equals a fresh NoPrune evaluation at every epoch,
// and the chains run at W ∈ {1, 2, 8} hold equal memos throughout — a
// stopped assignment's segment (one row, empty reached set) does not
// depend on which engine ran it.
func TestDecideAdvanceStorm(t *testing.T) { eachTable(t, testDecideAdvanceStorm) }

func testDecideAdvanceStorm(t *testing.T) {
	forceParallel(t)
	ctx := context.Background()
	for si, sh := range decideShapes {
		q := sh.query()
		if len(q.HeadPaths) > 0 {
			continue // witnesses: no memo, no Advance
		}
		for _, v := range append([]NodeVar{""}, sh.binds[:1]...) {
			rng := rand.New(rand.NewSource(int64(2411 + si)))
			g := graph.NewDB()
			const nNodes = 10
			g.AddNodes(nNodes)
			for i := 0; i < 14; i++ {
				g.AddEdge(graph.Node(rng.Intn(nNodes)), rune('a'+rng.Intn(2)), graph.Node(rng.Intn(nNodes)))
			}
			// Dead-label ballast keeps a small delta under the ratio guard.
			for i := 0; i < 40; i++ {
				g.AddEdge(graph.Node(rng.Intn(nNodes)), 'd', graph.Node(rng.Intn(nNodes)))
			}
			var bind map[NodeVar]graph.Node
			if v != "" {
				bind = map[NodeVar]graph.Node{v: graph.Node(rng.Intn(nNodes))}
			}
			label := fmt.Sprintf("%q bind %v", q, bind)
			progs := make([]*Program, len(parWorkerCounts))
			prev := make([]*Result, len(parWorkerCounts))
			for wi, w := range parWorkerCounts {
				var err error
				if progs[wi], err = CompileProgram(sh.query(), false); err != nil {
					t.Fatal(err)
				}
				if prev[wi], err = progs[wi].EvalSnapshotMemo(ctx, g.Snapshot(), Options{Bind: bind, BFSWorkers: w}); err != nil {
					t.Fatalf("%s W=%d: %v", label, w, err)
				}
			}
			incr := 0
			for round := 0; round < 12; round++ {
				for k := 1 + rng.Intn(2); k > 0; k-- {
					g.AddEdge(graph.Node(rng.Intn(nNodes)), rune('a'+rng.Intn(3)), graph.Node(rng.Intn(nNodes)))
				}
				s := g.Snapshot()
				scratch := evalFresh(t, q, s, Options{Bind: bind, NoPrune: true, BFSWorkers: 1})
				for wi, w := range parWorkerCounts {
					opts := Options{Bind: bind, BFSWorkers: w}
					res, kind, err := progs[wi].Advance(ctx, prev[wi], s, opts)
					if err == nil && kind == AdvanceNone {
						res, err = progs[wi].EvalSnapshotMemo(ctx, s, opts)
					}
					if err != nil {
						t.Fatalf("%s round %d W=%d: %v", label, round, w, err)
					}
					if kind == AdvanceIncremental {
						incr++
					}
					sameResult(t, fmt.Sprintf("%s round %d W=%d (%v)", label, round, w, kind), res, scratch)
					if res.inc == nil || !reflect.DeepEqual(res.inc.comps, prev[0].inc.comps) && wi > 0 {
						t.Fatalf("%s round %d W=%d: memo differs from W=1's", label, round, w)
					}
					prev[wi] = res
				}
			}
			if incr == 0 {
				t.Fatalf("%s: the storm never took the delta pass", label)
			}
		}
	}
}

// fig1aM3 is the engine_warm case of that name: the Boolean Q_R of
// Theorem 6.3 for three expressions over the three-node REI graph — one
// component, three tapes, 27 start assignments, empty head.
func fig1aM3(t *testing.T) (*Query, *graph.Snapshot) {
	t.Helper()
	q := MustParse("Ans() <- (x0,p0,y0), (x1,p1,y1), (x2,p2,y2), (a|b)*a(p0), a+|b+(p1), (ab|ba)*(a|b)?(p2), eq(p0,p1), eq(p1,p2)", env())
	g := graph.NewDB()
	g.AddNodes(3)
	for i := 1; i <= 3; i++ {
		for j := 1; j <= 3; j++ {
			switch {
			case i < j:
				g.AddEdge(graph.Node(i-1), sigmaAB[j-2], graph.Node(j-1))
			case i > j:
				g.AddEdge(graph.Node(i-1), sigmaAB[j-1], graph.Node(j-1))
			}
		}
	}
	return q, g.Snapshot()
}

// chargeOf evaluates the single component of prog on an engine of its own
// against a roomy budget and returns the states charged.
func chargeOf(t *testing.T, prog *Program, s *graph.Snapshot, opts Options) int {
	t.Helper()
	const room = 1 << 30
	bud := newStateBudget(room)
	e := prog.take(0)
	defer prog.put(0, e)
	e.reset(s, opts, nil)
	if _, err := evalComponent(context.Background(), e, bud); err != nil {
		t.Fatal(err)
	}
	return room - int(bud.left.Load())
}

// TestDecidedRunsAndCharge counts instead of timing. The fig1a_m3 shape is
// one BFS run where the exhaustive reference makes 27, on the caller's
// goroutine (no fan-out) at any worker count; and a stopped run — here one
// deciding several levels deep — has charged the same states at every
// worker count, never more than the reference.
func TestDecidedRunsAndCharge(t *testing.T) {
	forceParallel(t)
	q, s := fig1aM3(t)
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		fanBefore := BFSParallelStats()
		res, runs := countBFSRuns(t, prog, s, Options{BFSWorkers: w})
		fanAfter := BFSParallelStats()
		if !res.Bool() || runs != 1 || fanAfter != fanBefore {
			t.Errorf("fig1a_m3 W=%d: %v after %d BFS runs and %d fan-outs; want true after 1 run, no fan-out", w, res.Bool(), runs, fanAfter-fanBefore)
		}
	}
	if ref, runs := countBFSRuns(t, prog, s, Options{BFSWorkers: 1, NoPrune: true}); !ref.Bool() || runs != 27 {
		t.Errorf("fig1a_m3 NoPrune: %v after %d BFS runs, want true after 27", ref.Bool(), runs)
	}

	deep := stringGraph("aaaaaab")
	for i := 0; i < 6; i++ { // side branches widen the levels before the deciding one
		deep.AddEdge(graph.Node(i), 'a', deep.AddNode(fmt.Sprintf("s%d", i)))
		deep.AddEdge(graph.Node(i), 'b', deep.AddNode(fmt.Sprintf("t%d", i)))
	}
	ds := deep.Snapshot()
	for _, text := range []string{
		"Ans() <- (x,p1,y), (u,p2,v), a+b(p1), (a|b)*(p2), el(p1,p2)",  // sweep rule
		"Ans(x) <- (x,p1,y), (x,p2,v), a+b(p1), (a|b)*(p2), el(p1,p2)", // row rule
	} {
		prog, err := CompileProgram(MustParse(text, env()), false)
		if err != nil {
			t.Fatal(err)
		}
		ref := chargeOf(t, prog, ds, Options{BFSWorkers: 1, NoPrune: true})
		base := chargeOf(t, prog, ds, Options{BFSWorkers: 1})
		if base == 0 || base >= ref {
			t.Errorf("%s: the default charged %d states, NoPrune %d; want fewer, not none", text, base, ref)
		}
		for _, w := range parWorkerCounts[1:] {
			if got := chargeOf(t, prog, ds, Options{BFSWorkers: w}); got != base {
				t.Errorf("%s: %d states charged at W=%d, %d at W=1", text, got, w, base)
			}
		}
	}
}

// TestDecidedBudget: deciding never costs more than enumerating. Under a
// budget the exhaustive reference exhausts, the Boolean query is decided
// true — materialised and streamed — and over a sweep of budgets on a
// row-rule shape the default fits whenever NoPrune does, with its answers.
func TestDecidedBudget(t *testing.T) {
	ctx := context.Background()
	s := stringGraph("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa").Snapshot()
	prog, err := CompileProgram(MustParse("Ans() <- (x,p,y), a+(p)", env()), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		if _, err := prog.Eval(ctx, s, Options{MaxProductStates: 4, BFSWorkers: w, NoPrune: true}); !errors.Is(err, qerr.ErrBudgetExceeded) {
			t.Fatalf("W=%d: NoPrune at budget 4 returned %v, want qerr.ErrBudgetExceeded", w, err)
		}
		res, err := prog.Eval(ctx, s, Options{MaxProductStates: 4, BFSWorkers: w})
		if err != nil || !res.Bool() {
			t.Fatalf("W=%d: default at budget 4: %v, %v; want true", w, res, err)
		}
		n := 0
		for _, err := range prog.Stream(ctx, s, StreamOptions{Options: Options{MaxProductStates: 4, BFSWorkers: w}}) {
			if err != nil {
				t.Fatalf("W=%d: stream at budget 4: %v", w, err)
			}
			n++
		}
		if n != 1 {
			t.Fatalf("W=%d: stream at budget 4 yielded %d answers, want 1", w, n)
		}
	}

	forceParallel(t)
	q := MustParse("Ans(x) <- (x,p1,y), (x,p2,z), a+b(p1), (a|b)+(p2), el(p1,p2)", env())
	s = stringGraph("aabab").Snapshot()
	fits, refused := 0, 0
	for budget := 1; budget <= 60; budget++ {
		for _, w := range parWorkerCounts {
			prog, err := CompileProgram(q, false)
			if err != nil {
				t.Fatal(err)
			}
			ref, refErr := prog.Eval(ctx, s, Options{MaxProductStates: budget, BFSWorkers: w, NoPrune: true})
			res, err := prog.Eval(ctx, s, Options{MaxProductStates: budget, BFSWorkers: w})
			if refErr != nil {
				refused++
				if err != nil && !errors.Is(err, ErrBudget) {
					t.Fatalf("budget %d W=%d: failed untyped: %v", budget, w, err)
				}
				continue
			}
			fits++
			if err != nil {
				t.Fatalf("budget %d W=%d: NoPrune fits, default fails: %v", budget, w, err)
			}
			sameResult(t, fmt.Sprintf("budget %d W=%d", budget, w), res, ref)
		}
	}
	if fits == 0 || refused == 0 {
		t.Fatalf("NoPrune fit %d budgets and exhausted %d; the sweep crosses no boundary", fits, refused)
	}
}
