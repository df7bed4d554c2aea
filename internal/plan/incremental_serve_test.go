package plan

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/qcache"
)

// TestServeKindsThroughCache drives one plan through EvalSnapshotCached
// across a deterministic write sequence and pins which serve kind each
// step lands on: exact-epoch hit, label-disjoint revalidation,
// semi-naive incremental advance — and that qcache.Stats splits them
// out. Every served result must match a from-scratch evaluation of the
// same snapshot.
func TestServeKindsThroughCache(t *testing.T) {
	q := ecrpq.MustParse("Ans(x,y) <- (x,p,y), a+(p)", env())
	p, err := Compile(q, env())
	if err != nil {
		t.Fatal(err)
	}
	// Big enough that a one-edge delta stays under the incremental
	// delta-ratio guard (len(delta) * 8 <= edges).
	g := stringGraph("aabaabaab")
	c := qcache.New(1 << 20)
	ctx := context.Background()
	opts := ecrpq.Options{}

	check := func(step string, wantCached bool) *ecrpq.Result {
		t.Helper()
		s := g.Snapshot()
		res, cached, err := p.EvalSnapshotCached(ctx, s, opts, c)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if cached != wantCached {
			t.Fatalf("%s: cached = %v, want %v", step, cached, wantCached)
		}
		want, err := p.EvalSnapshot(ctx, s, opts)
		if err != nil {
			t.Fatalf("%s: scratch eval: %v", step, err)
		}
		if res.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s: served fingerprint %x != scratch %x", step, res.Fingerprint(), want.Fingerprint())
		}
		return res
	}

	check("initial compute", false)
	check("exact-epoch hit", true)

	// A 'b' edge between existing nodes cannot be consumed by a+: the
	// stale entry revalidates without re-running anything.
	g.AddEdge(0, 'b', 2)
	check("disjoint-delta revalidation", true)

	// An 'a' edge between existing nodes is live: the memo-carrying
	// entry advances by the semi-naive delta pass.
	g.AddEdge(1, 'a', 3)
	check("incremental advance", true)

	st := c.Stats()
	if st.Hits == 0 || st.Revalidated != 1 || st.Incremental != 1 {
		t.Fatalf("stats = hits %d, revalidated %d, incremental %d; want >0, 1, 1",
			st.Hits, st.Revalidated, st.Incremental)
	}
}

// TestServeKindsBoundChain is the same walk for a bound two-atom query,
// whose second atom starts from post[a+](x) only: a write where no start
// assignment reaches and a write that adds a start candidate must both
// be served by the delta pass, byte-identical to an evaluation with the
// start-domain pass off.
func TestServeKindsBoundChain(t *testing.T) {
	q := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", env())
	p, err := Compile(q, env())
	if err != nil {
		t.Fatal(err)
	}
	// v0 -a-> v1 -a-> v2 -b-> v3 -b-> v4, then a tail out of x's reach.
	g := stringGraph("aabbabbabb")
	c := qcache.New(1 << 20)
	ctx := context.Background()
	opts := ecrpq.Options{Bind: map[ecrpq.NodeVar]graph.Node{"x": 0}}
	oracle := opts
	oracle.NoPrune = true

	serve := func(step string, want qcache.Stats) int {
		t.Helper()
		s := g.Snapshot()
		res, _, err := p.EvalSnapshotCached(ctx, s, opts, c)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		ref, err := p.EvalSnapshot(ctx, s, oracle)
		if err != nil {
			t.Fatalf("%s: oracle: %v", step, err)
		}
		if res.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("%s: served fingerprint %x != NoPrune scratch %x", step, res.Fingerprint(), ref.Fingerprint())
		}
		if st := c.Stats(); st.Revalidated != want.Revalidated || st.Incremental != want.Incremental {
			t.Fatalf("%s: %d revalidated, %d incremental; want %d, %d",
				step, st.Revalidated, st.Incremental, want.Revalidated, want.Incremental)
		}
		return len(res.Answers)
	}

	n0 := serve("initial compute", qcache.Stats{})
	g.AddEdge(8, 'b', 6) // live label, but z never takes v8: re-stamped by the delta pass
	if n := serve("write out of reach", qcache.Stats{Incremental: 1}); n != n0 {
		t.Fatalf("%d answers after an out-of-reach write, %d before", n, n0)
	}
	g.AddEdge(1, 'a', 5) // v5 joins post[a+](v0), and v5 -b-> v6 -b-> v7 follow
	if n := serve("new start candidate", qcache.Stats{Incremental: 2}); n != n0+2 {
		t.Fatalf("%d answers after v5 became a candidate, want %d", n, n0+2)
	}
}

// TestConcurrentRevalidationRace hammers EvalSnapshotCached from many
// goroutines while a writer advances the store with label-disjoint 'b'
// edges, so every epoch-stale serve takes the revalidation path
// concurrently with AddEdge. Run under -race; every served result is
// checked against a from-scratch evaluation of the same snapshot, and
// a deterministic disjoint write after the storm pins that the
// revalidation path actually fired.
func TestConcurrentRevalidationRace(t *testing.T) {
	q := ecrpq.MustParse("Ans(x,y) <- (x,p,y), a+(p)", env())
	p, err := Compile(q, env())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Compile(q, env()) // independent plan for reference evals
	if err != nil {
		t.Fatal(err)
	}
	g := stringGraph("aabab")
	c := qcache.New(4 << 20)
	ctx := context.Background()
	opts := ecrpq.Options{}

	const writes = 120
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := g.Snapshot().NumNodes()
		for i := 0; i < writes; i++ {
			g.AddEdge(graph.Node(i%n), 'b', graph.Node((i*3+1)%n))
			runtime.Gosched()
		}
	}()

	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				s := g.Snapshot()
				res, _, err := p.EvalSnapshotCached(ctx, s, opts, c)
				if err != nil {
					errs[w] = err
					return
				}
				want, err := ref.EvalSnapshot(ctx, s, opts)
				if err != nil {
					errs[w] = err
					return
				}
				if res.Fingerprint() != want.Fingerprint() {
					errs[w] = fmt.Errorf("served fingerprint diverged from scratch at epoch %d", s.Epoch())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range errs {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
	}
	// The storm's interleaving is scheduler-dependent, so pin the path
	// deterministically: one more disjoint write over a never-used edge
	// pair, then a serve, must revalidate rather than recompute.
	before := c.Stats().Revalidated
	g.AddEdge(0, 'b', 5)
	s := g.Snapshot()
	res, cached, err := p.EvalSnapshotCached(ctx, s, opts, c)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("post-storm disjoint serve recomputed instead of revalidating")
	}
	want, err := ref.EvalSnapshot(ctx, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint() != want.Fingerprint() {
		t.Fatal("post-storm revalidated fingerprint diverged from scratch")
	}
	if after := c.Stats().Revalidated; after <= before {
		t.Fatalf("revalidation counter did not advance: %d -> %d", before, after)
	}
}
