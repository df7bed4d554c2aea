package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func randomTestDB(r *rand.Rand, n, edges int, sigma []rune) *DB {
	g := NewDB()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	for e := 0; e < edges; e++ {
		g.AddEdge(Node(r.Intn(n)), sigma[r.Intn(len(sigma))], Node(r.Intn(n)))
	}
	return g
}

// TestCSRMatchesDB checks a snapshot against the edge list the test
// inserted, with part of it compacted into the base and the rest in the
// delta overlay: every edge exactly once in Runs,
// label-sorted runs with target-sorted edges, OutDegree, per-label
// lookup, EdgesFrom and the cached alphabet.
func TestCSRMatchesDB(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sigma := []rune("abcde")
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(10)
		g := NewDB()
		g.AddNodes(n)
		inserted := map[edgeKey]bool{}
		m := r.Intn(60)
		for e := 0; e < m; e++ {
			k := edgeKey{Node(r.Intn(n)), sigma[r.Intn(len(sigma))], Node(r.Intn(n))}
			g.AddEdge(k.from, k.label, k.to)
			inserted[k] = true
			if e == m/2 {
				g.Snapshot() // compact the first half into the base
			}
		}
		c := g.Snapshot()
		if c.NumNodes() != n || c.NumEdges() != len(inserted) || g.NumEdges() != len(inserted) {
			t.Fatalf("snapshot %d nodes %d edges, store %d edges; inserted %d nodes %d edges",
				c.NumNodes(), c.NumEdges(), g.NumEdges(), n, len(inserted))
		}
		seen := map[edgeKey]bool{}
		for v := 0; v < n; v++ {
			deg := 0
			runs := c.Runs(Node(v))
			for ri, run := range runs {
				if ri > 0 && runs[ri-1].Label >= run.Label {
					t.Fatalf("node %d: runs not label-sorted: %v", v, runs)
				}
				es := c.EdgeRange(run.Start, run.End)
				for i, ed := range es {
					k := edgeKey{Node(v), ed.Label, ed.To}
					if ed.Label != run.Label || (i > 0 && es[i-1].To >= ed.To) {
						t.Fatalf("node %d run %q: edges %v off-label or unsorted", v, run.Label, es)
					}
					if !inserted[k] || seen[k] {
						t.Fatalf("snapshot edge %v: inserted %v, already seen %v", k, inserted[k], seen[k])
					}
					seen[k] = true
					deg++
				}
			}
			if got := c.OutDegree(Node(v)); got != deg {
				t.Fatalf("node %d: OutDegree %d, runs hold %d", v, got, deg)
			}
			from := 0
			c.EdgesFrom(Node(v), func(a rune, to Node) {
				if !inserted[edgeKey{Node(v), a, to}] {
					t.Fatalf("EdgesFrom(%d) yields (%q,%d), never inserted", v, a, to)
				}
				from++
			})
			if from != deg {
				t.Fatalf("node %d: EdgesFrom yields %d edges, want %d", v, from, deg)
			}
			for _, a := range sigma {
				var want []Node
				for k := range inserted {
					if k.from == Node(v) && k.label == a {
						want = append(want, k.to)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				got := c.WithLabel(Node(v), a)
				if len(got) != len(want) {
					t.Fatalf("node %d label %q: WithLabel %d edges, want %d", v, a, len(got), len(want))
				}
				for i, ed := range got {
					if ed.To != want[i] {
						t.Fatalf("node %d label %q: WithLabel[%d] = %v, want %v", v, a, i, ed, want[i])
					}
				}
			}
			if c.WithLabel(Node(v), 'z') != nil {
				t.Fatalf("node %d: WithLabel on absent label not nil", v)
			}
		}
		if len(seen) != len(inserted) {
			t.Fatalf("snapshot runs cover %d edges, inserted %d", len(seen), len(inserted))
		}
		labels := map[rune]bool{}
		for k := range inserted {
			labels[k.label] = true
		}
		if len(c.Alphabet()) != len(labels) {
			t.Fatalf("alphabet %q, want %d labels", string(c.Alphabet()), len(labels))
		}
		for i, a := range c.Alphabet() {
			if !labels[a] || (i > 0 && c.Alphabet()[i-1] >= a) {
				t.Fatalf("alphabet %q wrong or unsorted", string(c.Alphabet()))
			}
		}
	}
}

// TestCSRInvalidation checks that mutations rebuild the snapshot.
func TestCSRInvalidation(t *testing.T) {
	g := NewDB()
	g.AddNodes(3)
	g.AddEdge(0, 'a', 1)
	c1 := g.Snapshot()
	if c1.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", c1.NumEdges())
	}
	g.AddEdge(1, 'b', 2)
	c2 := g.Snapshot()
	if c2 == c1 || c2.NumEdges() != 2 {
		t.Fatalf("snapshot not rebuilt after AddEdge")
	}
	if got := string(g.Alphabet()); got != "ab" {
		t.Fatalf("Alphabet = %q, want ab", got)
	}
	v := g.AddNode("late")
	g.AddEdge(v, 'c', 0)
	if got := string(g.Alphabet()); got != "abc" {
		t.Fatalf("Alphabet after growth = %q, want abc", got)
	}
}

// TestAddEdgeDedupLargeFanOut drives a single (node,label) pair to a
// large fan-out, then re-adds an edge from every place one can already
// be — the base CSR, the published delta, the unpublished delta, a
// compacted base, a clone, and a reopened store's mapped base and
// replayed WAL. A duplicate must leave NumEdges and Epoch unchanged,
// and HasEdge must report the edge.
func TestAddEdgeDedupLargeFanOut(t *testing.T) {
	dir := t.TempDir()
	g, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	g.AddNodes(200)
	for rep := 0; rep < 3; rep++ {
		for i := 1; i < 150; i++ {
			g.AddEdge(0, 'a', Node(i))
		}
	}
	if g.NumEdges() != 149 {
		t.Fatalf("NumEdges = %d, want 149", g.NumEdges())
	}
	for i := 1; i < 150; i++ {
		if !g.HasEdge(0, 'a', Node(i)) {
			t.Fatalf("missing edge to %d", i)
		}
	}
	if g.HasEdge(0, 'a', 150) || g.HasEdge(0, 'b', 1) {
		t.Fatal("HasEdge reports absent edge")
	}
	if got := len(g.Snapshot().WithLabel(0, 'a')); got != 149 {
		t.Fatalf("WithLabel run has %d edges, want 149", got)
	}

	type edge struct {
		from  Node
		label rune
		to    Node
	}
	edges := []edge{{0, 'a', 1}} // in the base
	if s := g.Snapshot(); int(s.baseLen) != 149 || s.DeltaEdges() != 0 {
		t.Fatalf("after the fan-out: base %d delta %d, want 149/0", int(s.baseLen), s.DeltaEdges())
	}
	g.AddEdge(1, 'b', 2)
	if s := g.Snapshot(); int(s.baseLen) != 149 || s.DeltaEdges() != 1 {
		t.Fatalf("published delta: base %d delta %d, want 149/1", int(s.baseLen), s.DeltaEdges())
	}
	edges = append(edges, edge{1, 'b', 2})
	g.AddEdge(2, 'c', 3) // unpublished: no snapshot taken since
	edges = append(edges, edge{2, 'c', 3})
	dupes := func(where string, g *DB) {
		t.Helper()
		for _, e := range edges {
			n, ep := g.NumEdges(), g.Epoch()
			g.AddEdge(e.from, e.label, e.to)
			if g.NumEdges() != n || g.Epoch() != ep {
				t.Fatalf("%s: duplicate %v moved NumEdges %d→%d, Epoch %d→%d", where, e, n, g.NumEdges(), ep, g.Epoch())
			}
			if !g.HasEdge(e.from, e.label, e.to) {
				t.Fatalf("%s: HasEdge%v = false", where, e)
			}
		}
	}
	dupes("live", g)
	dupes("clone", g.Clone())
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s := g.Snapshot(); int(s.baseLen) != 151 || s.DeltaEdges() != 0 {
		t.Fatalf("after compaction: base %d delta %d, want 151/0", int(s.baseLen), s.DeltaEdges())
	}
	dupes("compacted", g)
	g.AddEdge(3, 'd', 4) // in the WAL only
	edges = append(edges, edge{3, 'd', 4})
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if rec := h.Recovery(); rec.WALReplayed != 1 || rec.SegmentEpoch == 0 {
		t.Fatalf("reopen: replayed %d WAL records over segment epoch %d, want 1 over a segment", rec.WALReplayed, rec.SegmentEpoch)
	}
	dupes("reopened", h)
	if h.NumEdges() != 152 {
		t.Fatalf("reopened store has %d edges, want 152", h.NumEdges())
	}
}

// TestEachEdgeOnceInOrder checks DB.EachEdge over a store with edges in
// the base, the published delta and the unpublished delta: it yields
// the snapshot's edge set exactly once, in the same order on two calls.
func TestEachEdgeOnceInOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	sigma := []rune("abc")
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(10)
		g := randomTestDB(r, n, 40+r.Intn(40), sigma)
		burst := func(k int) {
			for e := 0; e < k; e++ {
				g.AddEdge(Node(r.Intn(n)), sigma[r.Intn(len(sigma))], Node(r.Intn(n)))
			}
		}
		g.Snapshot() // base
		burst(10)
		if s := g.Snapshot(); int(s.baseLen) == 0 || s.DeltaEdges() == 0 {
			t.Fatalf("want a base and a published delta, got %d/%d", int(s.baseLen), s.DeltaEdges())
		}
		g.AddEdge(Node(n-1), 'z', 0) // at least one unpublished write
		burst(10)
		collect := func() []edgeKey {
			var out []edgeKey
			g.EachEdge(func(from Node, a rune, to Node) { out = append(out, edgeKey{from, a, to}) })
			return out
		}
		first, second := collect(), collect()
		if len(first) != len(second) {
			t.Fatalf("two EachEdge calls yield %d and %d edges", len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("EachEdge order differs at %d: %v then %v", i, first[i], second[i])
			}
		}
		want := map[edgeKey]bool{}
		g.Snapshot().EachEdge(func(from Node, a rune, to Node) { want[edgeKey{from, a, to}] = true })
		got := map[edgeKey]bool{}
		for _, k := range first {
			if got[k] || !want[k] {
				t.Fatalf("EachEdge yields %v: repeated %v, in snapshot %v", k, got[k], want[k])
			}
			got[k] = true
		}
		if len(got) != len(want) || len(got) != g.NumEdges() {
			t.Fatalf("EachEdge yields %d edges, snapshot holds %d, store counts %d", len(got), len(want), g.NumEdges())
		}
	}
}
