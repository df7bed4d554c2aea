package ecrpq

import (
	"context"
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

// joinAll and yannakakisReduce run the join layer on an arena of their
// own, keeping the head columns keep.
func joinAll(ctx context.Context, rels []*varRelation, jp joinPlan, mode JoinMode, keep []NodeVar) (*varRelation, error) {
	return new(joinArena).joinAll(ctx, rels, jp, mode, keep)
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
			res, err := p.EvalSnapshot(ctx, s, opts)
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
		_, _, _, before := BFSParallelStats()
		held(t, "fan-out", compile(t, "Ans(x, y) <- (x,p,y), a+(p)"), "y", n-1, 8, true)
		if _, _, _, after := BFSParallelStats(); after == before {
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
			ref, err := p.EvalSnapshot(ctx, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			h := hold(src, ref)
			var first Answer
			for a, err := range p.StreamSnapshot(ctx, s, StreamOptions{Options: opts}) {
				if err != nil {
					t.Fatal(err)
				}
				first = a
				break
			}
			firstCopy := Answer{Nodes: slices.Clone(first.Nodes), Paths: slices.Clone(first.Paths)}
			for node := 0; node < n; node++ {
				res, err := p.EvalSnapshot(ctx, s, Options{Bind: bindOn("x", node)})
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
				res, err := p.EvalSnapshot(ctx, s, opts(node))
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
							res, err := p.EvalSnapshot(ctx, s, opts(node))
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
