package pathquery

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// cachedTestEnv builds a small random serving graph and a set of
// queries covering node heads, node+path heads, and head-path-only
// heads.
func cachedTestEnv(t *testing.T, seed int64) (*Graph, Env, []*Query) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := NewGraph()
	const n = 12
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	for e := 0; e < 3*n; e++ {
		from := Node(r.Intn(n))
		to := Node(r.Intn(n))
		if from < to { // DAG keeps the answer sets small and finite-ish
			label := []rune{'a', 'b'}[r.Intn(2)]
			g.AddEdge(from, label, to)
		}
	}
	env := Env{Sigma: []rune{'a', 'b'}}
	var qs []*Query
	for _, src := range []string{
		"Ans(x, y) <- (x,p,y), (a|b)+(p)",
		"Ans(x, y, p1) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)",
		"Ans(p1) <- (x,p1,y), a+(p1)",
		"Ans(p1, p2) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)",
	} {
		q, err := ParseQuery(src, env)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		qs = append(qs, q)
	}
	return g, env, qs
}

// sameAnswers requires byte-identical answer sets: same order, same
// node tuples, same witness paths.
func sameAnswers(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("%s: fingerprints differ", label)
	}
	if !reflect.DeepEqual(a.Answers, b.Answers) {
		t.Fatalf("%s: answers differ:\n%v\n%v", label, a.Answers, b.Answers)
	}
}

// TestCachedEvalMatchesEval: for every query shape (including
// head-path-only), a cache hit is byte-identical to the miss that
// populated it and to an uncached evaluation, and the stream yields
// the same node-tuple set — the stream==eval==cached property.
func TestCachedEvalMatchesEval(t *testing.T) {
	g, env, qs := cachedTestEnv(t, 7)
	c := NewCache(1 << 20)
	for qi, q := range qs {
		p, err := Prepare(q, env)
		if err != nil {
			t.Fatal(err)
		}
		cp := p.Cached(c)
		plain, err := p.Eval(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		miss, err := cp.Eval(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		hit, err := cp.Eval(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, fmt.Sprintf("query %d miss vs plain", qi), miss, plain)
		sameAnswers(t, fmt.Sprintf("query %d hit vs miss", qi), hit, miss)
		if hit != miss {
			t.Fatalf("query %d: hit returned a different Result object than the stored miss", qi)
		}

		// Stream (uncached by design) yields the same node-tuple set,
		// each tuple exactly once — for head-path-only queries that is
		// one answer total (the single empty node tuple).
		seen := map[string]bool{}
		count := 0
		for a, err := range p.Stream(context.Background(), g, StreamOptions{}) {
			if err != nil {
				t.Fatalf("query %d: stream: %v", qi, err)
			}
			k := a.Key()
			if seen[k] {
				t.Fatalf("query %d: stream yielded node tuple %q twice", qi, k)
			}
			seen[k] = true
			count++
		}
		if count != len(plain.Answers) {
			t.Fatalf("query %d: stream yielded %d answers, eval %d", qi, count, len(plain.Answers))
		}
		for _, a := range plain.Answers {
			if !seen[a.Key()] {
				t.Fatalf("query %d: eval tuple %q missing from stream", qi, a.Key())
			}
		}
	}
	if s := c.Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("cache saw no traffic: %+v", s)
	}
}

// TestHeadPathOnlySingleAnswer locks in the one-answer-per-node-tuple
// semantics for head-path-only queries: the head projects every row to
// the empty node tuple, so Eval, Stream and cached Eval all return
// exactly one answer (with a valid witness) when the body is
// satisfiable.
func TestHeadPathOnlySingleAnswer(t *testing.T) {
	g := NewGraph()
	var ns []Node
	for i := 0; i <= 4; i++ {
		ns = append(ns, g.AddNode(""))
	}
	g.AddEdge(ns[0], 'a', ns[1])
	g.AddEdge(ns[1], 'a', ns[2])
	g.AddEdge(ns[2], 'b', ns[3])
	g.AddEdge(ns[3], 'b', ns[4])
	env := Env{Sigma: []rune{'a', 'b'}}
	q, err := ParseQuery("Ans(p1) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(q, env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Eval(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || len(res.Answers[0].Nodes) != 0 || len(res.Answers[0].Paths) != 1 {
		t.Fatalf("eval: %v", res.Answers)
	}
	if err := res.Answers[0].Paths[0].Validate(g); err != nil {
		t.Fatalf("eval witness invalid: %v", err)
	}
	count := 0
	for a, err := range p.Stream(context.Background(), g, StreamOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Paths[0].Validate(g); err != nil {
			t.Fatalf("stream witness invalid: %v", err)
		}
		count++
	}
	if count != 1 {
		t.Fatalf("stream yielded %d answers, want 1", count)
	}
	cp := p.Cached(NewCache(1 << 20))
	cres, err := cp.Eval(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "cached vs eval", cres, res)
	cres2, err := cp.Eval(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "cached hit vs miss", cres2, cres)
}

// TestCachedOptionsKeying: different Bind values are different entries;
// the same Bind map built in a different order is the same entry.
func TestCachedOptionsKeying(t *testing.T) {
	g, env, qs := cachedTestEnv(t, 11)
	q := qs[0]
	p, err := Prepare(q, env)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(1 << 20)
	cp := p.Cached(c)
	r0, err := cp.Eval(g, Options{Bind: map[NodeVar]Node{"x": 0, "y": 5}})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := cp.Eval(g, Options{Bind: map[NodeVar]Node{"y": 5, "x": 0}})
	if err != nil {
		t.Fatal(err)
	}
	if r0 != r1 {
		t.Error("equivalent Bind maps missed the cache")
	}
	r2, err := cp.Eval(g, Options{Bind: map[NodeVar]Node{"x": 1, "y": 5}})
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r0 {
		t.Error("different Bind shares an entry")
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCachedEpochInvalidation: a write advances the epoch, so the next
// evaluation recomputes and sees the new edge; re-serving the old
// pinned snapshot still works (recomputed, not stale-served).
func TestCachedEpochInvalidation(t *testing.T) {
	g := NewGraph()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, 'k', b)
	env := Env{Sigma: []rune{'k'}}
	q, err := ParseQuery("Ans(x, y) <- (x,p,y), k+(p)", env)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(q, env)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(1 << 20)
	cp := p.Cached(c)
	s1 := g.Snapshot()
	r1, err := cp.EvalContext(context.Background(), s1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Answers) != 1 {
		t.Fatalf("answers = %v", r1.Answers)
	}
	cNode := g.AddNode("c")
	g.AddEdge(b, 'k', cNode)
	s2 := g.Snapshot()
	r2, err := cp.EvalContext(context.Background(), s2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Answers) != 3 { // a→b, a→c, b→c
		t.Fatalf("post-write answers = %v", r2.Answers)
	}
	// The old epoch's entry was dropped; serving the pinned old snapshot
	// recomputes against the old content — correct isolation either way.
	r1again, err := cp.EvalContext(context.Background(), s1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "pinned old snapshot", r1again, r1)
	if s := c.Stats(); s.DeadDropped == 0 {
		t.Fatalf("no dead-epoch drops recorded: %+v", s)
	}
}

// TestCachedSingleFlightConcurrent (run under -race): many goroutines
// issue identical queries at one epoch; every result is byte-identical
// to a reference evaluation, and the cache records exactly one
// evaluation per (query, options) pair.
func TestCachedSingleFlightConcurrent(t *testing.T) {
	g, env, qs := cachedTestEnv(t, 23)
	c := NewCache(8 << 20)
	type ref struct {
		cp  *CachedPrepared
		res *Result
	}
	var refs []ref
	for _, q := range qs {
		p, err := Prepare(q, env)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := p.Eval(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref{cp: p.Cached(c), res: plain})
	}
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rf := refs[(w+i)%len(refs)]
				got, err := rf.cp.Eval(g, Options{})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got.Fingerprint() != rf.res.Fingerprint() {
					t.Errorf("worker %d: fingerprint mismatch", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Misses != uint64(len(refs)) {
		t.Fatalf("misses = %d, want %d (one evaluation per query): %+v", s.Misses, len(refs), s)
	}
	if s.Hits+s.Waits != uint64(workers*20-len(refs)) {
		t.Fatalf("hits+waits = %d, want %d: %+v", s.Hits+s.Waits, workers*20-len(refs), s)
	}
}

// TestCachedConcurrentEpochAdvance (run under -race): queries race with
// writers advancing the epoch. Every served result must be consistent
// with the snapshot it was evaluated at — byte-identical to an
// uncached evaluation of the same pinned snapshot.
func TestCachedConcurrentEpochAdvance(t *testing.T) {
	g, env, qs := cachedTestEnv(t, 31)
	q := qs[1]
	p, err := Prepare(q, env)
	if err != nil {
		t.Fatal(err)
	}
	pRef, err := Prepare(q, env)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(8 << 20)
	cp := p.Cached(c)
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			from := Node(i % 6)
			to := Node(6 + i%6)
			g.AddEdge(from, []rune{'a', 'b'}[i%2], to)
			i++
		}
	}()
	const readers = 8
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				s := g.Snapshot()
				got, err := cp.EvalContext(context.Background(), s, Options{})
				if err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
				want, err := pRef.EvalContext(context.Background(), s, Options{})
				if err != nil {
					t.Errorf("reader %d: ref: %v", w, err)
					return
				}
				if got.Fingerprint() != want.Fingerprint() {
					t.Errorf("reader %d iter %d: cached result diverges from pinned-snapshot evaluation", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
	if s := c.Stats(); s.Misses == 0 {
		t.Fatalf("no evaluations recorded: %+v", s)
	}
}
