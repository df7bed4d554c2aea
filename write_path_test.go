package pathquery_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/workload"
)

// TestWritePathWork is the write path's ledger: what each write costs
// the reads after it, in counts. It serves the serve_mixed graph
// (workload.NewMixedServing(20), memory-only, not permuted) through
// plan.EvalSnapshotCached with the benchmark's five serve texts, two
// fixed binds each, under a seeded script of writes; after every write
// it reads each pair once. Per text it counts how the cache served the
// reads — exact-epoch hits, label-disjoint revalidations, delta passes,
// re-stamps (an advance that kept the previous answers) and full
// recomputes — and it sums the bytes the post-write snapshots allocate
// (not compared under the race detector, which allocates on its own
// account). At every epoch every served fingerprint must equal an
// uncached evaluation's. The counts are deterministic: a row that moves
// is a real change in the work a write causes.
//
//	go test -count=1 -run TestWritePathWork -v .
//
// prints the table. The binds are the first two nodes of 0..63 that
// return 1–5000 answers within 400 000 product states (out-degree at
// most 256 for the two-atom texts), the benchmark's rule.
func TestWritePathWork(t *testing.T) {
	type served struct{ hit, revalidated, incremental, restamped, computed int }
	texts := []struct {
		name, text string
		binds      [2]graph.Node
		want       served
	}{
		{"rpq", "Ans(x,y) <- (x,p,y), a+b(p)", [2]graph.Node{0, 1}, served{0, 308, 18, 74, 0}},
		{"three", "Ans(x,y) <- (x,p,y), (a|b)(a|b)(a|b)(p)", [2]graph.Node{0, 1}, served{0, 308, 23, 69, 0}},
		{"wit", "Ans(x,y,p) <- (x,p,y), ab*c(p)", [2]graph.Node{0, 1}, served{0, 272, 0, 100, 28}},
		{"chain", "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", [2]graph.Node{49, 50}, served{0, 308, 0, 92, 0}},
		{"anbn", "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", [2]graph.Node{49, 50}, served{0, 308, 0, 92, 0}},
	}
	const (
		writes    = 200
		writeSeed = 42
		// wantSnapBytes is the sum over the writes of the bytes the
		// post-write snapshot allocates, compared within 1 %: the
		// runtime's own allocations may land in a measured window.
		wantSnapBytes = 2305432
	)
	m := workload.NewMixedServing(20)
	g := m.Graph
	env := m.Env()
	type pair struct {
		text int
		pl   *plan.Plan
		opts ecrpq.Options
		last *ecrpq.Result
	}
	var pairs []*pair
	for ti, tx := range texts {
		pl, err := plan.Compile(ecrpq.MustParse(tx.text, env), env)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range tx.binds {
			pairs = append(pairs, &pair{text: ti, pl: pl, opts: ecrpq.Options{Bind: map[ecrpq.NodeVar]graph.Node{"x": b}, BFSWorkers: 1}})
		}
	}
	ctx := context.Background()
	cache := qcache.New(64 << 20)
	got := make([]served, len(texts))
	// read serves every pair once at the store's current epoch, counts
	// how, and holds each served fingerprint to an uncached evaluation.
	read := func() {
		s := g.Snapshot()
		for _, pr := range pairs {
			before := cache.Stats()
			res, _, err := pr.pl.EvalSnapshotCached(ctx, s, pr.opts, cache)
			if err != nil {
				t.Fatal(err)
			}
			after := cache.Stats()
			c := &got[pr.text]
			switch {
			case after.Hits > before.Hits:
				c.hit++
			case after.Revalidated > before.Revalidated:
				c.revalidated++
			case after.Incremental > before.Incremental:
				if len(res.Answers) > 0 && len(pr.last.Answers) > 0 && &res.Answers[0] == &pr.last.Answers[0] {
					c.restamped++
				} else {
					c.incremental++
				}
			default:
				c.computed++
			}
			pr.last = res
			ref, err := pr.pl.EvalSnapshot(ctx, s, pr.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fingerprint() != ref.Fingerprint() {
				t.Fatalf("%s@%d, epoch %d: served fingerprint %#x, uncached %#x",
					texts[pr.text].name, pr.opts.Bind["x"], s.Epoch(), res.Fingerprint(), ref.Fingerprint())
			}
		}
	}
	read()
	for _, pr := range pairs {
		if n := len(pr.last.Answers); n < 1 || n > 5000 {
			t.Fatalf("%s@%d: %d answers at epoch 0, want 1–5000", texts[pr.text].name, pr.opts.Bind["x"], n)
		}
	}
	got = make([]served, len(texts))
	r := rand.New(rand.NewSource(writeSeed))
	n := g.NumNodes()
	var snapBytes uint64
	var ms runtime.MemStats
	for range writes {
		g.AddEdge(graph.Node(r.Intn(n)), m.Sigma[r.Intn(len(m.Sigma))], graph.Node(r.Intn(n)))
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		g.Snapshot()
		runtime.ReadMemStats(&ms)
		snapBytes += ms.TotalAlloc - before
		read()
	}
	t.Logf("%-6s %5s %12s %12s %10s %9s", "text", "hit", "revalidated", "incremental", "restamped", "computed")
	for i, tx := range texts {
		c := got[i]
		t.Logf("%-6s %5d %12d %12d %10d %9d", tx.name, c.hit, c.revalidated, c.incremental, c.restamped, c.computed)
		if c != tx.want {
			t.Errorf("%s: served %+v, committed %+v", tx.name, c, tx.want)
		}
	}
	t.Logf("post-write snapshots: %d writes, %d bytes", writes, snapBytes)
	if d := int64(snapBytes) - wantSnapBytes; (d > wantSnapBytes/100 || -d > wantSnapBytes/100) && !raceEnabled {
		t.Errorf("post-write snapshots allocated %d bytes, committed %d", snapBytes, wantSnapBytes)
	}
}
