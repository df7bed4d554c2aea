package ecrpq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/qerr"
)

// The start-domain propagation suite (domains.go): default evaluation —
// pass on — must equal the NoPrune oracle and the naive Definition 3.1
// evaluator on answers, witnesses and fingerprints at every worker
// count; the pass must never cost an answer (budget), must notice
// cancellation, and must not run at all when nothing propagates.

// domainQuery is one generated query of the differential suite and the
// node variables worth binding: a start variable, one that only ever
// ends a path atom, and one in the middle ("" where the shape has none).
type domainQuery struct {
	q                   *Query
	start, endOnly, mid NodeVar
}

// randomDomainQuery draws a 1–3 atom chain, star, cycle or pair of
// parallel atoms — or a chain through a repeated path variable — with a random language per tape
// (ε-accepting, class-mode, or none at all: a Σ*-only tape), an optional
// binary relation across two tapes, and a random head.
func randomDomainQuery(t *testing.T, r *rand.Rand) domainQuery {
	t.Helper()
	var atoms []PathAtom
	dq := domainQuery{start: "x0"}
	repeated := false
	switch shape := r.Intn(5); shape {
	case 0: // chain
		m := 1 + r.Intn(3)
		for i := 0; i < m; i++ {
			atoms = append(atoms, PathAtom{X: nv(i), Pi: pv(i), Y: nv(i + 1)})
		}
		dq.endOnly = nv(m)
		if m > 1 {
			dq.mid = "x1"
		}
	case 1: // star: two atoms leave x1
		atoms = []PathAtom{{"x0", "p0", "x1"}, {"x1", "p1", "x2"}, {"x1", "p2", "x3"}}
		dq.endOnly, dq.mid = "x3", "x1"
	case 2: // cycle back to x0
		m := 1 + r.Intn(3)
		for i := 0; i < m; i++ {
			atoms = append(atoms, PathAtom{X: nv(i), Pi: pv(i), Y: nv((i + 1) % m)})
		}
		if m > 1 {
			dq.mid = "x1"
		}
	case 4: // two atoms confine x1: their domains intersect
		atoms = []PathAtom{{"x0", "p0", "x1"}, {"x0", "p1", "x1"}, {"x1", "p2", "x2"}}
		dq.endOnly, dq.mid = "x2", "x1"
	case 3: // p0 bound by two atoms: forces x1 = x2
		atoms = []PathAtom{{"x0", "p0", "x1"}, {"x0", "p0", "x2"}, {"x2", "p1", "x3"}}
		dq.endOnly, dq.mid = "x3", "x2"
		repeated = true
	}
	var paths []PathVar
	for _, a := range atoms {
		if !slices.Contains(paths, a.Pi) {
			paths = append(paths, a.Pi)
		}
	}
	var body []string
	for _, a := range atoms {
		if !repeated || a.Y != "x2" { // the repeated atom is appended after parsing
			body = append(body, fmt.Sprintf("(%s,%s,%s)", a.X, a.Pi, a.Y))
		}
	}
	langs := []string{"a*", "b+", "(a|b)*a", "(ab)*", "", "[ab]+", "[^b]*"}
	for _, p := range paths {
		if l := langs[r.Intn(len(langs))]; l != "" {
			body = append(body, fmt.Sprintf("%s(%s)", l, p))
		}
	}
	if len(paths) >= 2 && r.Intn(2) == 0 {
		body = append(body, fmt.Sprintf("%s(p0,%s)", []string{"el", "eq", "prefix"}[r.Intn(3)], paths[1+r.Intn(len(paths)-1)]))
	}
	var head []string
	q0 := &Query{PathAtoms: atoms}
	for _, v := range q0.NodeVars() {
		if (!repeated || v != "x2") && r.Intn(2) == 0 {
			head = append(head, string(v))
		}
	}
	if r.Intn(3) == 0 {
		head = append(head, string(paths[r.Intn(len(paths))]))
	}
	q := MustParse(fmt.Sprintf("Ans(%s) <- %s", strings.Join(head, ", "), strings.Join(body, ", ")), env())
	if repeated {
		q.PathAtoms = slices.Insert(q.PathAtoms, 1, atoms[1])
		q.AllowRepeatedPathVars = true
	}
	dq.q = q
	return dq
}

func nv(i int) NodeVar { return NodeVar(fmt.Sprintf("x%d", i)) }
func pv(i int) PathVar { return PathVar(fmt.Sprintf("p%d", i)) }

// naiveBound is the naive evaluator under a binding, which it does not
// take itself: evaluate with every node variable in the head, keep the
// rows that agree with bind, project back onto q's head keeping the
// shortest witness per path variable.
func naiveBound(t *testing.T, q *Query, s *graph.Snapshot, bind map[NodeVar]graph.Node) map[string]Answer {
	t.Helper()
	wide := *q
	wide.HeadNodes = q.NodeVars()
	rows, err := NaiveEval(&wide, s, s.NumNodes())
	if err != nil {
		t.Fatalf("naive %q: %v", q, err)
	}
	out := map[string]Answer{}
rows:
	for _, row := range rows {
		for v, n := range bind {
			if row.Nodes[slices.Index(wide.HeadNodes, v)] != n {
				continue rows
			}
		}
		a := Answer{Paths: slices.Clone(row.Paths)}
		for _, z := range q.HeadNodes {
			a.Nodes = append(a.Nodes, row.Nodes[slices.Index(wide.HeadNodes, z)])
		}
		if old, ok := out[a.Key()]; ok {
			for i := range a.Paths {
				if old.Paths[i].Len() < a.Paths[i].Len() {
					a.Paths[i] = old.Paths[i]
				}
			}
		}
		out[a.Key()] = a
	}
	return out
}

// checkDomainCase holds one (query, snapshot, bind) to the suite's
// contract. fired reports whether the pass confined anything.
func checkDomainCase(t *testing.T, label string, q *Query, s *graph.Snapshot, bind map[NodeVar]graph.Node, naive bool) (fired bool) {
	t.Helper()
	ctx := context.Background()
	oracle := evalFresh(t, q, s, Options{Bind: bind, NoPrune: true, BFSWorkers: 1})
	var base *Result
	for _, w := range parWorkerCounts {
		wl := fmt.Sprintf("%s W=%d", label, w)
		prog, err := CompileProgram(q, false)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		opts := Options{Bind: bind, BFSWorkers: w}
		res, err := prog.EvalSnapshotMemo(ctx, s, opts)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		sameResult(t, wl+" vs NoPrune", res, oracle)
		doms, err := prog.startDomains(ctx, s, opts, newStateBudget(0))
		if err != nil {
			t.Fatalf("%s: pass: %v", wl, err)
		}
		fired = doms != nil
		if base == nil {
			base = res
			if !fired && res.inc != nil {
				// Nothing propagated: the enumeration is the oracle's, and so
				// is every memo row of an assignment no stop rule ended.
				// (Reached-node sets are not: exhaustive move enumeration
				// visits states the live sets skip.)
				checkMemoRows(t, wl, prog, s, opts, res.inc, oracle.inc)
			}
		} else if (res.inc == nil) != (base.inc == nil) || res.inc != nil && !reflect.DeepEqual(res.inc.comps, base.inc.comps) {
			t.Fatalf("%s: memo rows differ from W=1", wl)
		}

		got := map[string]bool{}
		for a, err := range prog.Stream(ctx, s, StreamOptions{Options: opts}) {
			if err != nil {
				t.Fatalf("%s: stream: %v", wl, err)
			}
			if got[a.Key()] {
				t.Fatalf("%s: stream yielded %s twice", wl, a.Key())
			}
			got[a.Key()] = true
		}
		if len(got) != len(res.Answers) {
			t.Fatalf("%s: stream yielded %d answers, eval %d", wl, len(got), len(res.Answers))
		}
		for _, a := range res.Answers {
			if !got[a.Key()] {
				t.Fatalf("%s: eval answer %s missing from the stream", wl, a.Key())
			}
		}
	}
	if !naive {
		return fired
	}
	want := naiveBound(t, q, s, bind)
	if len(want) != len(base.Answers) {
		t.Fatalf("%s: %d answers, naive %d", label, len(base.Answers), len(want))
	}
	for _, a := range base.Answers {
		na, ok := want[a.Key()]
		if !ok {
			t.Fatalf("%s: answer %s not in the naive output", label, a.Key())
		}
		for i := range a.Paths {
			if a.Paths[i].Len() != na.Paths[i].Len() {
				t.Fatalf("%s: answer %s witness %d has length %d, naive shortest %d",
					label, a.Key(), i, a.Paths[i].Len(), na.Paths[i].Len())
			}
		}
	}
	return fired
}

func TestStartDomainDifferential(t *testing.T) { eachTable(t, testStartDomainDifferential) }

func testStartDomainDifferential(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(1709))
	cases, fired := 0, 0
	for trial := 0; trial < 60; trial++ {
		dq := randomDomainQuery(t, r)
		dag := trial%2 == 0
		var g *graph.DB
		if dag {
			g = randomDAG(r, 5+r.Intn(2), 0.5, sigmaAB) // the naive oracle is complete on DAGs only
		} else {
			g = randomCyclic(r, 6+r.Intn(3), 10+r.Intn(8))
		}
		s := g.Snapshot()
		node := graph.Node(r.Intn(2)) // low ids: a DAG's sources
		for _, v := range []NodeVar{"", dq.start, dq.endOnly, dq.mid} {
			var bind map[NodeVar]graph.Node
			if v != "" {
				bind = map[NodeVar]graph.Node{v: node}
			}
			label := fmt.Sprintf("trial %d %q bind %v", trial, dq.q, bind)
			cases++
			if checkDomainCase(t, label, dq.q, s, bind, dag) {
				fired++
			}
		}
	}
	t.Logf("the pass confined a variable in %d of %d cases", fired, cases)
	if fired < cases/8 {
		t.Fatalf("the pass confined a variable in only %d of %d cases; the suite exercises nothing", fired, cases)
	}
}

// TestStartDomainLabelRich runs the bound label-rich and oracle suites —
// multi-letter alphabets, class atoms beside per-label ones — against
// the NoPrune oracle from every start node.
func TestStartDomainLabelRich(t *testing.T) { eachTable(t, testStartDomainLabelRich) }

func testStartDomainLabelRich(t *testing.T) {
	r := rand.New(rand.NewSource(1723))
	fired := 0
	for trial := 0; trial < 3; trial++ {
		s := skewedDAG(r, 6+r.Intn(3), sigmaRich).Snapshot()
		for qi, q := range labelRichQueries(t) {
			for x := graph.Node(0); x < 3; x++ {
				label := fmt.Sprintf("trial %d query %d x=%d", trial, qi, x)
				if checkDomainCase(t, label, q, s, map[NodeVar]graph.Node{"x": x}, false) {
					fired++
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("the pass never fired")
	}
}

// TestStartDomainConcurrent shares one Program — its lazily compiled
// pass relaxations and their engine pools — between goroutines that
// evaluate and stream under different bindings; run under -race.
func TestStartDomainConcurrent(t *testing.T) {
	g := skewedDAG(rand.New(rand.NewSource(1741)), 9, sigmaRich)
	s := g.Snapshot()
	for _, text := range []string{
		"Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), [bcd]+(p2)",
		"Ans(x, y) <- (x,p1,z), (z,p2,y), [ab]+(p1), [bcd]+(p2), el(p1,p2)",
	} {
		q := MustParse(text, envRich())
		prog, err := CompileProgram(q, false)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		refs := make([]*Result, workers)
		for w := range refs {
			refs[w] = evalFresh(t, q, s, Options{Bind: map[NodeVar]graph.Node{"x": graph.Node(w % 4)}, NoPrune: true, BFSWorkers: 1})
		}
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				opts := Options{Bind: map[NodeVar]graph.Node{"x": graph.Node(w % 4)}}
				for i := 0; i < 10 && errs[w] == nil; i++ {
					res, err := prog.Eval(context.Background(), s, opts)
					if err != nil {
						errs[w] = err
						return
					}
					if res.Fingerprint() != refs[w].Fingerprint() {
						errs[w] = fmt.Errorf("worker %d: fingerprint %016x, NoPrune %016x", w, res.Fingerprint(), refs[w].Fingerprint())
						return
					}
					n := 0
					for _, err := range prog.Stream(context.Background(), s, StreamOptions{Options: opts}) {
						if err != nil {
							errs[w] = err
							return
						}
						n++
					}
					if n != len(refs[w].Answers) {
						errs[w] = fmt.Errorf("worker %d: streamed %d answers, want %d", w, n, len(refs[w].Answers))
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
		}
	}
}

// countBFSRuns evaluates with a BFSStep hook that counts hits: on graphs
// this small every BFS run — pass or component — checks in exactly once,
// at its first state.
func countBFSRuns(t *testing.T, prog *Program, s *graph.Snapshot, opts Options) (*Result, int) {
	t.Helper()
	var runs atomic.Int64
	faultinject.Set(func(p faultinject.Point, _ uint64) error {
		if p == faultinject.BFSStep {
			runs.Add(1)
		}
		return nil
	})
	defer faultinject.Clear()
	res, err := prog.Eval(context.Background(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, int(runs.Load())
}

// TestStartDomainPrunesRuns counts BFS runs: with x bound the second
// atom starts from post[a+](x) only, and an evaluation with no bound
// variable upstream of an unbound start variable runs no pass — it costs
// exactly the NoPrune number of runs and never builds a pass engine.
func TestStartDomainPrunesRuns(t *testing.T) {
	g := stringGraph("aabbab") // v0 -a-> v1 -a-> v2 -b-> v3 -b-> v4 -a-> v5 -b-> v6
	s := g.Snapshot()
	n := s.NumNodes()
	x0 := map[NodeVar]graph.Node{"x": 0}
	for _, tc := range []struct {
		text      string
		bind      map[NodeVar]graph.Node
		runs      int // BFS runs of the default evaluation
		propagate bool
	}{
		// pass + component p1 + one run per z ∈ post[a+](v0) = {v1, v2}
		{"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", x0, 1 + 1 + 2, true},
		// one component, start assignments (v0, z): pass + 2
		{"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", x0, 1 + 2, true},
		// a* accepts ε: z ∈ {v0, v1, v2}
		{"Ans(x,y) <- (x,p1,z), (z,p2,y), a*(p1), b+(p2)", x0, 1 + 1 + 3, true},
		{"Ans(x,y) <- (x,p,y), a+b(p)", x0, 1, false},
		{"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", nil, 2 * n, false},
		{"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", map[NodeVar]graph.Node{"y": 4}, 2 * n, false},
		{"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", map[NodeVar]graph.Node{"z": 2}, n + 1, false},
		{"Ans(y,z) <- (x,p1,y), (x,p2,z), a+(p1), a*(p2)", x0, 2, false},
	} {
		q := MustParse(tc.text, env())
		prog, err := CompileProgram(q, false)
		if err != nil {
			t.Fatal(err)
		}
		res, runs := countBFSRuns(t, prog, s, Options{Bind: tc.bind, BFSWorkers: 1})
		ref, refRuns := countBFSRuns(t, prog, s, Options{Bind: tc.bind, BFSWorkers: 1, NoPrune: true})
		sameResult(t, tc.text, res, ref)
		if runs != tc.runs {
			t.Errorf("%q bind %v: %d BFS runs, want %d (NoPrune: %d)", tc.text, tc.bind, runs, tc.runs, refRuns)
		}
		built := slices.ContainsFunc(prog.prop, func(pa *propAtom) bool { return pa.comp != nil })
		if built != tc.propagate {
			t.Errorf("%q bind %v: pass engine built = %v, want %v", tc.text, tc.bind, built, tc.propagate)
		}
		if !tc.propagate && runs != refRuns {
			t.Errorf("%q bind %v: %d BFS runs with nothing to propagate, NoPrune %d", tc.text, tc.bind, runs, refRuns)
		}
	}
}

// budgetTrap is a query whose pass costs far more than its evaluation:
// p1's own language a* walks the whole a-chain from x, but eq(p1,p3)
// with (a|b)(p3) stops the joint product after one step, and no c-edge
// leaves any node but v1.
func budgetTrap(t *testing.T, chain int) (*Query, *graph.Snapshot) {
	t.Helper()
	q := MustParse("Ans(y) <- (x,p1,z), (x,p3,w), (z,p2,y), a*(p1), (a|b)(p3), eq(p1,p3), c+(p2)", envABCD())
	g := stringGraph(strings.Repeat("a", chain))
	y := g.AddNode("y")
	g.AddEdge(1, 'c', y)
	return q, g.Snapshot()
}

// TestStartDomainBudget: the pass only borrows from the state budget. A
// budget the unpruned evaluation fits must fit the pruned one, and a
// pass that runs out of budget is abandoned — the evaluation continues
// unpruned instead of failing.
func TestStartDomainBudget(t *testing.T) {
	ctx := context.Background()
	bind := map[NodeVar]graph.Node{"x": 0}

	// Every budget, on a shape where pass and evaluation cost about the
	// same: whenever NoPrune fits, so does the default, with its answers.
	q := MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", env())
	s := stringGraph("aaabbbab").Snapshot()
	fits := 0
	for budget := 1; budget <= 40; budget++ {
		for _, w := range parWorkerCounts {
			prog, err := CompileProgram(q, false)
			if err != nil {
				t.Fatal(err)
			}
			ref, refErr := prog.Eval(ctx, s, Options{Bind: bind, MaxProductStates: budget, BFSWorkers: w, NoPrune: true})
			res, err := prog.Eval(ctx, s, Options{Bind: bind, MaxProductStates: budget, BFSWorkers: w})
			if refErr != nil {
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
	if fits == 0 || fits == 40*len(parWorkerCounts) {
		t.Fatalf("NoPrune fit %d of %d budgets; the sweep crosses no boundary", fits, 40*len(parWorkerCounts))
	}

	// A pass that cannot finish: 60 states against a budget of 10.
	q, s = budgetTrap(t, 60)
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	bud := newStateBudget(10)
	doms, err := prog.startDomains(ctx, s, Options{Bind: bind}, bud)
	if doms != nil || err != nil {
		t.Fatalf("pass over budget: domains %v, err %v; want abandoned", doms, err)
	}
	if left := bud.left.Load(); left != 10 {
		t.Fatalf("abandoned pass left %d of 10 states in the budget", left)
	}
	bud = newStateBudget(1000)
	doms, err = prog.startDomains(ctx, s, Options{Bind: bind}, bud)
	if err != nil || len(doms["z"]) != 61 {
		t.Fatalf("pass within budget: z confined to %d nodes, err %v; want the 61 nodes of the chain", len(doms["z"]), err)
	}
	if left := bud.left.Load(); left != 1000 {
		t.Fatalf("finished pass left %d of 1000 states in the budget", left)
	}
	ref, err := prog.Eval(ctx, s, Options{Bind: bind, MaxProductStates: 10, NoPrune: true})
	if err != nil {
		t.Fatalf("NoPrune at budget 10: %v", err)
	}
	if len(ref.Answers) != 1 {
		t.Fatalf("trap query has %d answers, want 1", len(ref.Answers))
	}
	res, err := prog.Eval(ctx, s, Options{Bind: bind, MaxProductStates: 10})
	if err != nil {
		t.Fatalf("default at budget 10 (pass abandoned): %v", err)
	}
	sameResult(t, "pass abandoned", res, ref)
	streamed := 0
	for _, err := range prog.Stream(ctx, s, StreamOptions{Options: Options{Bind: bind, MaxProductStates: 10}}) {
		if err != nil {
			t.Fatalf("stream at budget 10 (pass abandoned): %v", err)
		}
		streamed++
	}
	if streamed != 1 {
		t.Fatalf("stream at budget 10 yielded %d answers, want 1", streamed)
	}
}

// TestStartDomainCancellation cancels the context from the pass's own
// first BFSStep check-in: the pass must notice at its next check, 256
// states later, before any component BFS starts.
func TestStartDomainCancellation(t *testing.T) {
	q, s := budgetTrap(t, 700)
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var hits atomic.Int64
	faultinject.Set(func(p faultinject.Point, _ uint64) error {
		if p == faultinject.BFSStep && hits.Add(1) == 1 {
			cancel()
		}
		return nil
	})
	defer faultinject.Clear()
	_, err = prog.Eval(ctx, s, Options{Bind: map[NodeVar]graph.Node{"x": 0}})
	if !errors.Is(err, qerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("evaluation cancelled inside the pass returned %v, want qerr.ErrCanceled", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("%d BFS check-ins; the pass should have stopped the evaluation after its own first", n)
	}

	// An injected fault at the same point fails the evaluation like a
	// fault inside any component BFS.
	faultinject.Set(func(p faultinject.Point, _ uint64) error {
		if p == faultinject.BFSStep {
			return faultinject.ErrForced
		}
		return nil
	})
	_, err = prog.Eval(context.Background(), s, Options{Bind: map[NodeVar]graph.Node{"x": 0}})
	if !errors.Is(err, faultinject.ErrForced) {
		t.Fatalf("BFSStep fault inside the pass returned %v, want faultinject.ErrForced", err)
	}
}

// TestStartSpaceEnumeration pins the one enumerator: mixed-radix order,
// ranges that tile the space, and indexOf as forRange's inverse.
func TestStartSpaceEnumeration(t *testing.T) {
	sp := startSpace{vars: []NodeVar{"x", "y", "z"}, lists: [][]graph.Node{{4}, {1, 3, 8}, {0, 2}}}
	if sp.size() != 6 {
		t.Fatalf("size %d, want 6", sp.size())
	}
	var all [][3]graph.Node
	err := sp.forRange(0, 1<<63, func(idx uint64, a map[NodeVar]graph.Node) error {
		if int(idx) != len(all) {
			t.Fatalf("index %d at position %d", idx, len(all))
		}
		if back, ok := sp.indexOf(a); !ok || back != idx {
			t.Fatalf("indexOf(%v) = %d, %v; want %d", a, back, ok, idx)
		}
		all = append(all, [3]graph.Node{a["x"], a["y"], a["z"]})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]graph.Node{{4, 1, 0}, {4, 1, 2}, {4, 3, 0}, {4, 3, 2}, {4, 8, 0}, {4, 8, 2}}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("enumeration %v, want %v", all, want)
	}
	for lo := uint64(0); lo <= 7; lo++ {
		for hi := lo; hi <= 8; hi++ {
			var got [][3]graph.Node
			sp.forRange(lo, hi, func(_ uint64, a map[NodeVar]graph.Node) error {
				got = append(got, [3]graph.Node{a["x"], a["y"], a["z"]})
				return nil
			})
			if w := want[min(lo, 6):min(hi, 6)]; !(len(got) == 0 && len(w) == 0) && !reflect.DeepEqual(got, w) {
				t.Fatalf("range [%d,%d): %v, want %v", lo, hi, got, w)
			}
		}
	}
	if _, ok := sp.indexOf(map[NodeVar]graph.Node{"x": 4, "y": 2, "z": 0}); ok {
		t.Fatal("indexOf found an assignment outside the space")
	}
	empty := startSpace{vars: []NodeVar{"x", "y"}, lists: [][]graph.Node{{1, 2}, {}}}
	if empty.size() != 0 {
		t.Fatalf("empty list: size %d", empty.size())
	}
	empty.forRange(0, 1<<63, func(uint64, map[NodeVar]graph.Node) error {
		t.Fatal("enumerated an empty space")
		return nil
	})
	stop := errors.New("stop")
	if err := sp.forRange(0, 6, func(idx uint64, _ map[NodeVar]graph.Node) error {
		if idx == 2 {
			return stop
		}
		return nil
	}); err != stop {
		t.Fatalf("forRange returned %v, want the callback's error", err)
	}
}
