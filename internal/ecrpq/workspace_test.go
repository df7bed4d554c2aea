package ecrpq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// take borrows a workspace of p and returns its engine for component i:
// after an evaluation, the engine that ran it, for tests that inspect
// what a pooled engine retains. put gives the workspace back.
func (p *Program) take(i int) *componentEngine { return p.takeWorkspace().engines[i] }

func (p *Program) put(_ int, e *componentEngine) { p.putWorkspace(e.ws) }

// startDomains runs the start-domain pass on storage of its own.
func (p *Program) startDomains(ctx context.Context, s *graph.Snapshot, opts Options, bud *stateBudget) (map[NodeVar][]graph.Node, error) {
	return new(domainLists).startDomains(ctx, p, s, opts, bud)
}

// joinAll, backtrackJoin and yannakakisReduce run the join layer on an
// arena of their own, keeping the head columns keep.
func joinAll(ctx context.Context, rels []*varRelation, jp joinPlan, keep []NodeVar) (*varRelation, error) {
	return new(joinArena).joinAll(ctx, rels, jp, keep)
}

func backtrackJoin(ctx context.Context, rels []*varRelation, keep []NodeVar) (*varRelation, error) {
	return new(joinArena).backtrackJoin(ctx, rels, keep)
}

func yannakakisReduce(ctx context.Context, rels []*varRelation, elims []elimination, keep map[NodeVar]bool) (*varRelation, error) {
	var cols []NodeVar
	for v, k := range keep {
		if k {
			cols = append(cols, v)
		}
	}
	return new(joinArena).yannakakisReduce(ctx, rels, elims, cols)
}

// heldResult is a Result an earlier evaluation returned, with deep copies
// of its answers and memo as they were then.
type heldResult struct {
	label   string
	res     *Result
	fp      uint64
	answers []Answer
	inc     *incMemo
}

func hold(label string, res *Result) heldResult {
	h := heldResult{label: label, res: res, fp: res.Fingerprint()}
	for _, a := range res.Answers {
		c := Answer{Nodes: slices.Clone(a.Nodes)}
		for _, p := range a.Paths {
			c.Paths = append(c.Paths, graph.Path{Nodes: slices.Clone(p.Nodes), Labels: slices.Clone(p.Labels)})
		}
		h.answers = append(h.answers, c)
	}
	if m := res.inc; m != nil {
		h.inc = &incMemo{optsKey: m.optsKey, nodes: m.nodes}
		for _, cm := range m.comps {
			c := &compMemo{stride: cm.stride, touchOff: slices.Clone(cm.touchOff), touched: slices.Clone(cm.touched),
				rowOff: slices.Clone(cm.rowOff), rows: slices.Clone(cm.rows)}
			for _, l := range cm.lists {
				c.lists = append(c.lists, slices.Clone(l))
			}
			h.inc.comps = append(h.inc.comps, c)
		}
	}
	return h
}

// check re-hashes the held answers from scratch (not through the
// fingerprint memo) and compares answers and memo with the copies.
func (h heldResult) check(t *testing.T) {
	t.Helper()
	if got := fingerprintAnswers(h.res.Answers); got != h.fp {
		t.Fatalf("%s: fingerprint moved from %016x to %016x after later evaluations", h.label, h.fp, got)
	}
	if !reflect.DeepEqual(h.res.Answers, h.answers) {
		t.Fatalf("%s: answers changed after later evaluations", h.label)
	}
	if !reflect.DeepEqual(h.res.inc, h.inc) {
		t.Fatalf("%s: memo changed after later evaluations", h.label)
	}
}

// aliasGraph is a seeded random graph over {a, b} with n nodes: an
// a-chain through every node plus n more a-edges, all pointing to a
// higher node, and 2n b-edges anywhere. Node i a-reaches exactly the
// nodes above it that the chain and the skips lead to, so different
// bindings of a start variable yield different rows and different
// start-domain lists.
func aliasGraph(n int) *graph.DB {
	r := rand.New(rand.NewSource(27))
	g := graph.NewDB()
	g.AddNodes(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.Node(i), 'a', graph.Node(i+1))
	}
	for i := 0; i < n; i++ {
		u := r.Intn(n - 1)
		g.AddEdge(graph.Node(u), 'a', graph.Node(u+1+r.Intn(n-1-u)))
	}
	for i := 0; i < 2*n; i++ {
		g.AddEdge(graph.Node(r.Intn(n)), 'b', graph.Node(r.Intn(n)))
	}
	return g
}

// TestWorkspaceNeverAliasesResults: everything an evaluation uses and
// does not return lives in a pooled workspace the next evaluation
// overwrites, so a Result must own all it holds. For each shape the
// result of one evaluation is held, the same Program then evaluates
// under other bindings, and the held result must read exactly as it did.
// The shapes cover every way a result could have reached into the
// workspace: the engine's relation (one component, inline and fanned out
// at W = 8, where siblings' stores are reused chunk after chunk), a
// Yannakakis root that is a component relation itself (projectRelation
// returned its input), a memo built by Advance, and a stream cut off
// after its first row. Finally eight goroutines share one Program with
// distinct bindings, each result against its sequential reference.
func TestWorkspaceNeverAliasesResults(t *testing.T) {
	const n = 40
	g := aliasGraph(n)
	s := g.Snapshot()
	ctx := context.Background()
	compile := func(t *testing.T, src string) *Program {
		t.Helper()
		p, err := CompileProgram(MustParse(src, env()), false)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	bindOn := func(v NodeVar, node int) map[NodeVar]graph.Node {
		return map[NodeVar]graph.Node{v: graph.Node(node)}
	}
	// held evaluates v bound to node k, holds the result, evaluates every
	// other binding of v on the same program and checks the held one.
	held := func(t *testing.T, label string, p *Program, v NodeVar, k, workers int, memo bool) {
		t.Helper()
		eval := func(node int) *Result {
			opts := Options{Bind: bindOn(v, node), BFSWorkers: workers}
			res, err := p.Eval(ctx, s, opts)
			if memo {
				res, err = p.EvalSnapshotMemo(ctx, s, opts)
			}
			if err != nil {
				t.Fatalf("%s %s=%d: %v", label, v, node, err)
			}
			return res
		}
		h := hold(label, eval(k))
		if len(h.answers) == 0 {
			t.Fatalf("%s: the held result is empty; the test exercises nothing", label)
		}
		for node := range n {
			if node != k {
				eval(node)
			}
		}
		h.check(t)
	}

	t.Run("single component inline", func(t *testing.T) {
		held(t, "inline", compile(t, "Ans(x, y, p) <- (x,p,y), a+(p)"), "x", 0, 1, false)
	})
	t.Run("single component fanned out at W=8", func(t *testing.T) {
		// y bound, x swept over all 40 nodes: with the cost model's test
		// hook set, the second half of the start assignments fans out.
		forceParallel(t)
		before := BFSParallelStats()
		held(t, "fan-out", compile(t, "Ans(x, y) <- (x,p,y), a+(p)"), "y", n-1, 8, true)
		if BFSParallelStats() == before {
			t.Fatal("no fan-out engaged")
		}
	})
	t.Run("Yannakakis root is a component relation", func(t *testing.T) {
		// The second component keeps nothing the head reads, so its fold
		// only filters and the root is the first component's relation,
		// projected onto all of its columns: projectRelation returns it.
		held(t, "fold", compile(t, "Ans(x, z) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)"), "x", 0, 1, false)
	})
	t.Run("Advance from a captured memo", func(t *testing.T) {
		p := compile(t, "Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)")
		db := aliasGraph(n)
		opts := Options{Bind: bindOn("x", 0)}
		prev, err := p.EvalSnapshotMemo(ctx, db.Snapshot(), opts)
		if err != nil {
			t.Fatal(err)
		}
		hPrev := hold("memo", prev)
		db.AddEdge(3, 'b', 7)
		db.AddEdge(1, 'a', 5)
		adv, kind, err := p.Advance(ctx, prev, db.Snapshot(), opts)
		if err != nil || kind != AdvanceIncremental {
			t.Fatalf("Advance: %v, %v; want an incremental pass", kind, err)
		}
		hAdv := hold("advanced", adv)
		for node := 1; node < n; node++ {
			o := Options{Bind: bindOn("x", node)}
			if _, err := p.EvalSnapshotMemo(ctx, db.Snapshot(), o); err != nil {
				t.Fatal(err)
			}
			if _, _, err := p.Advance(ctx, prev, db.Snapshot(), o); err != nil {
				t.Fatal(err)
			}
		}
		hPrev.check(t)
		hAdv.check(t)
	})
	t.Run("stream stopped after its first row", func(t *testing.T) {
		for _, src := range []string{
			"Ans(x, y, p) <- (x,p,y), a+(p)",
			"Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)",
		} {
			p := compile(t, src)
			opts := Options{Bind: bindOn("x", 0)}
			ref, err := p.Eval(ctx, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			h := hold(src, ref)
			var first Answer
			for a, err := range p.Stream(ctx, s, StreamOptions{Options: opts}) {
				if err != nil {
					t.Fatal(err)
				}
				first = a
				break
			}
			firstCopy := Answer{Nodes: slices.Clone(first.Nodes), Paths: slices.Clone(first.Paths)}
			for node := 0; node < n; node++ {
				res, err := p.Eval(ctx, s, Options{Bind: bindOn("x", node)})
				if err != nil {
					t.Fatal(err)
				}
				if node == 0 {
					sameResult(t, src+" after a stopped stream", res, ref)
				}
			}
			h.check(t)
			if !reflect.DeepEqual(first, firstCopy) {
				t.Fatalf("%s: the streamed first answer changed after later evaluations", src)
			}
		}
	})
	t.Run("eight goroutines, distinct binds", func(t *testing.T) {
		for _, tc := range []struct {
			src     string
			v       NodeVar
			workers int
		}{
			{"Ans(x, y) <- (x,p,y), a+(p)", "y", 8},
			{"Ans(x, z) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", "x", 2},
			{"Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", "x", 0},
		} {
			p := compile(t, tc.src)
			opts := func(node int) Options {
				return Options{Bind: bindOn(tc.v, node), BFSWorkers: tc.workers}
			}
			refs := make([]heldResult, n)
			for node := range refs {
				res, err := p.Eval(ctx, s, opts(node))
				if err != nil {
					t.Fatal(err)
				}
				refs[node] = hold(tc.src, res)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 3; round++ {
						for node := w; node < n; node += 8 {
							res, err := p.Eval(ctx, s, opts(node))
							if err != nil {
								errs <- err
								return
							}
							if fingerprintAnswers(res.Answers) != refs[node].fp || !reflect.DeepEqual(res.Answers, refs[node].answers) {
								errs <- fmt.Errorf("%s %s=%d: concurrent result differs from its sequential reference", tc.src, tc.v, node)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for _, h := range refs {
				h.check(t)
			}
		}
	})
}

// TestScratchPoolIsolatesPrograms: the evaluation buffers that belong to
// no program come from one process-wide pool, so a set one program's
// evaluation gave back is the next set any other program's evaluation
// draws. A result of program A is held while eight goroutines compile
// fresh programs of other shapes — witness and witness-free, one and two
// components — and evaluate them: inline and fanned out at W = 2 and 8,
// through a stream cut off after its first row, and through
// EvalSnapshotMemo, a write and Advance. A's answers must not move, and
// every fingerprint must equal the NoPrune reference's. Meaningful under
// -race.
func TestScratchPoolIsolatesPrograms(t *testing.T) {
	const n = 40
	s := aliasGraph(n).Snapshot()
	ctx := context.Background()
	forceParallel(t)
	compile := func(src string) (*Program, error) { return CompileProgram(MustParse(src, env()), false) }
	reference := func(src string, s *graph.Snapshot, bind map[NodeVar]graph.Node) (uint64, error) {
		p, err := compile(src)
		if err != nil {
			return 0, err
		}
		res, err := p.Eval(ctx, s, Options{Bind: bind, NoPrune: true, BFSWorkers: 1})
		if err != nil {
			return 0, err
		}
		return res.Fingerprint(), nil
	}

	a, err := compile("Ans(x, y, p) <- (x,p1,z), (z,p,y), a+(p1), b+(p), el(p1,p)")
	if err != nil {
		t.Fatal(err)
	}
	resA, err := a.Eval(ctx, s, Options{Bind: map[NodeVar]graph.Node{"x": 0}})
	if err != nil {
		t.Fatal(err)
	}
	h := hold("program A", resA)
	if len(h.answers) == 0 {
		t.Fatal("program A's result is empty; the test exercises nothing")
	}

	// Each shape binds v; the other start variables sweep, so W > 1 fans
	// the sweep out.
	shapes := []struct {
		src string
		v   NodeVar
	}{
		{"Ans(x, y, p) <- (x,p,y), a+(p)", "y"},
		{"Ans(x, y) <- (x,p,y), (a|b)*b(p)", "y"},
		{"Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", "x"},
		{"Ans(x, y, p2) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", "x"},
	}
	refs := make([][]uint64, len(shapes))
	for i, sh := range shapes {
		refs[i] = make([]uint64, n)
		for node := range n {
			if refs[i][node], err = reference(sh.src, s, map[NodeVar]graph.Node{sh.v: graph.Node(node)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	before := BFSParallelStats()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := isolationRound(ctx, w, n, s, shapes, refs, compile, reference); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if BFSParallelStats() == before {
		t.Fatal("no fan-out engaged")
	}
	h.check(t)
}

// isolationRound is goroutine w's share of TestScratchPoolIsolatesPrograms:
// for each shape and each binding w, w+8, …, a fresh program evaluated at
// the worker count the binding picks, then streamed and stopped after
// the first row, then evaluated again; and for one binding a memo, a
// write to a copy of the graph and an Advance over it.
func isolationRound(ctx context.Context, w, n int, s *graph.Snapshot, shapes []struct {
	src string
	v   NodeVar
}, refs [][]uint64, compile func(string) (*Program, error), reference func(string, *graph.Snapshot, map[NodeVar]graph.Node) (uint64, error)) error {
	for i, sh := range shapes {
		for node := w; node < n; node += 8 {
			opts := Options{Bind: map[NodeVar]graph.Node{sh.v: graph.Node(node)}, BFSWorkers: parWorkerCounts[(node+i)%len(parWorkerCounts)]}
			p, err := compile(sh.src)
			if err != nil {
				return err
			}
			res, err := p.Eval(ctx, s, opts)
			if err != nil {
				return err
			}
			if fp := res.Fingerprint(); fp != refs[i][node] {
				return fmt.Errorf("%s %s=%d W=%d: fingerprint %016x, NoPrune %016x", sh.src, sh.v, node, opts.BFSWorkers, fp, refs[i][node])
			}
			p, err = compile(sh.src)
			if err != nil {
				return err
			}
			for _, err := range p.Stream(ctx, s, StreamOptions{Options: opts}) {
				if err != nil {
					return err
				}
				break
			}
			if res, err = p.Eval(ctx, s, opts); err != nil {
				return err
			}
			if fp := res.Fingerprint(); fp != refs[i][node] {
				return fmt.Errorf("%s %s=%d after a stopped stream: fingerprint %016x, NoPrune %016x", sh.src, sh.v, node, fp, refs[i][node])
			}
		}
	}
	src := shapes[2].src
	bind := map[NodeVar]graph.Node{"x": graph.Node(w)}
	db := aliasGraph(n)
	p, err := compile(src)
	if err != nil {
		return err
	}
	prev, err := p.EvalSnapshotMemo(ctx, db.Snapshot(), Options{Bind: bind})
	if err != nil {
		return err
	}
	db.AddEdge(graph.Node(w+1), 'b', graph.Node(w+3))
	adv, _, err := p.Advance(ctx, prev, db.Snapshot(), Options{Bind: bind})
	if err != nil {
		return err
	}
	want, err := reference(src, db.Snapshot(), bind)
	if err != nil {
		return err
	}
	if fp := adv.Fingerprint(); fp != want {
		return fmt.Errorf("%s x=%d after Advance: fingerprint %016x, NoPrune %016x", src, w, fp, want)
	}
	return nil
}

// TestScratchPoolHoldsOnlyBuffers pins what the process-wide scratch pool
// may retain. No field of a scratch set may be, or contain, a *Program, a
// *component or a *graph.Snapshot, nor anything that could hold one (an
// interface, a func, a chan): the pool is not a cache of programs or
// snapshots. And after a query whose product BFS passes maxPooledScratch
// states, and a query that keeps witnesses, no pooled set holds a buffer
// past maxPooledScratch elements or a witness path, and the pool's byte
// count is what its sets retain, within maxIdleScratchBytes.
func TestScratchPoolHoldsOnlyBuffers(t *testing.T) {
	forbidden := map[reflect.Type]bool{
		reflect.TypeFor[*Program]():        true,
		reflect.TypeFor[*component]():      true,
		reflect.TypeFor[*graph.Snapshot](): true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if forbidden[ty] {
			t.Errorf("scratch%s is a %v", path, ty)
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("scratch%s is a %v, which could hold anything", path, ty)
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Map:
			walk(ty.Key(), path+"[key]")
			walk(ty.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeFor[scratch](), "")

	// Start from an empty pool, so every set in it afterwards came back
	// from the two queries below.
	for len(scratchPool.free) > 0 {
		takeScratch()
	}
	ctx := context.Background()
	ring := ringGraph(300)
	big, err := CompileProgram(MustParse("Ans(y1) <- (x,p1,y1), (x,p2,y2), el(p1,p2)", env()), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Eval(ctx, ring, Options{Bind: map[NodeVar]graph.Node{"x": 0}, BFSWorkers: 1, MaxProductStates: maxPooledScratch}); !errors.Is(err, ErrBudget) {
		t.Fatalf("the large query fits %d product states (err %v); it exercises nothing", maxPooledScratch, err)
	}
	if _, err := big.Eval(ctx, ring, Options{Bind: map[NodeVar]graph.Node{"x": 0}, BFSWorkers: 1}); err != nil {
		t.Fatal(err)
	}
	wit, err := CompileProgram(MustParse("Ans(x, y, p) <- (x,p,y), a+(p)", env()), false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wit.Eval(ctx, aliasGraph(40).Snapshot(), Options{Bind: map[NodeVar]graph.Node{"x": 0}})
	if err != nil || len(res.Answers) == 0 || res.Answers[0].Paths[0].Len() == 0 {
		t.Fatalf("the witness query returned %v, %v; it exercises nothing", res, err)
	}

	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	if len(scratchPool.free) == 0 {
		t.Fatal("no scratch set came back to the pool")
	}
	bytes := 0
	for k, sc := range scratchPool.free {
		var check func(v reflect.Value, path string)
		check = func(v reflect.Value, path string) {
			switch v.Kind() {
			case reflect.Struct:
				for i := range v.NumField() {
					check(v.Field(i), path+"."+v.Type().Field(i).Name)
				}
			case reflect.Array:
				for i := range v.Len() {
					check(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
				}
			case reflect.Slice:
				if v.Cap() > maxPooledScratch {
					t.Errorf("pooled set %d: scratch%s keeps %d elements, past %d", k, path, v.Cap(), maxPooledScratch)
				}
			}
		}
		check(reflect.ValueOf(sc).Elem(), "")
		if sc.states.oversized() {
			t.Errorf("pooled set %d keeps an oversized state table", k)
		}
		for i, p := range sc.store.paths[:cap(sc.store.paths)] {
			if p.Nodes != nil || p.Labels != nil {
				t.Errorf("pooled set %d: witness slot %d holds a path", k, i)
			}
		}
		if sc.held != sc.bytes() {
			t.Errorf("pooled set %d: counted at %d bytes, retains %d", k, sc.held, sc.bytes())
		}
		bytes += sc.held
	}
	if bytes != scratchPool.bytes || bytes > maxIdleScratchBytes {
		t.Errorf("the pool counts %d bytes; its sets retain %d, bound %d", scratchPool.bytes, bytes, maxIdleScratchBytes)
	}
}
