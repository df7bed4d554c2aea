package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// TestEpochMonotonicity checks that every effective mutation advances
// the epoch, that no-op mutations (duplicate edges, existing node
// names) do not, and that snapshots are stamped and cached per epoch.
func TestEpochMonotonicity(t *testing.T) {
	g := NewDB()
	if g.Epoch() != 0 {
		t.Fatalf("fresh DB epoch = %d, want 0", g.Epoch())
	}
	u := g.AddNode("u")
	v := g.AddNode("v")
	if g.Epoch() != 2 {
		t.Fatalf("epoch after 2 AddNode = %d, want 2", g.Epoch())
	}
	if g.AddNode("u") != u {
		t.Fatal("AddNode(existing) returned a fresh node")
	}
	if g.Epoch() != 2 {
		t.Fatalf("AddNode(existing) advanced the epoch to %d", g.Epoch())
	}
	g.AddEdge(u, 'a', v)
	if g.Epoch() != 3 {
		t.Fatalf("epoch after AddEdge = %d, want 3", g.Epoch())
	}
	g.AddEdge(u, 'a', v) // duplicate: dropped
	if g.Epoch() != 3 {
		t.Fatalf("duplicate AddEdge advanced the epoch to %d", g.Epoch())
	}
	s1 := g.Snapshot()
	if s1.Epoch() != 3 {
		t.Fatalf("snapshot epoch = %d, want 3", s1.Epoch())
	}
	if s2 := g.Snapshot(); s2 != s1 {
		t.Fatal("unchanged epoch rebuilt the snapshot")
	}
	g.AddEdge(v, 'b', u)
	s3 := g.Snapshot()
	if s3 == s1 || s3.Epoch() != 4 {
		t.Fatalf("post-write snapshot epoch = %d (same pointer: %v), want 4, fresh", s3.Epoch(), s3 == s1)
	}
	// The pinned earlier snapshot is untouched.
	if s1.NumEdges() != 1 || s3.NumEdges() != 2 {
		t.Fatalf("snapshot edge counts: pinned %d (want 1), fresh %d (want 2)", s1.NumEdges(), s3.NumEdges())
	}
}

// fullyCompacted returns a snapshot of g's nodes and edges with an
// empty delta overlay: a fresh DB's first snapshot always compacts.
func fullyCompacted(g *DB) *Snapshot {
	h := NewDB()
	h.AddNodes(g.NumNodes())
	g.EachEdge(func(from Node, a rune, to Node) { h.AddEdge(from, a, to) })
	return h.Snapshot()
}

// edgesOf renders the full adjacency of a snapshot in iteration order.
func edgesOf(s *Snapshot, n int) [][]Edge {
	out := make([][]Edge, n)
	for v := 0; v < n; v++ {
		var row []Edge
		s.EdgesFrom(Node(v), func(a rune, to Node) { row = append(row, Edge{Label: a, To: to}) })
		out[v] = row
	}
	return out
}

// TestDeltaOverlayIterationOrder drives random graphs through a
// compaction point followed by a write burst, and checks the overlay
// snapshot against a fully compacted equivalent: identical edge sets,
// strictly label-sorted Runs, sorted targets inside
// every run, and merged WithLabel and EdgesFrom views.
func TestDeltaOverlayIterationOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sigma := []rune("abcd")
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(8)
		g := randomTestDB(r, n, 10+r.Intn(30), sigma)
		g.Snapshot() // compact the base
		// Write burst kept under the compaction threshold.
		for e := 0; e < 5+r.Intn(20); e++ {
			g.AddEdge(Node(r.Intn(n)), sigma[r.Intn(len(sigma))], Node(r.Intn(n)))
		}
		// A node added after compaction, with edges only in the delta.
		late := g.AddNode("")
		g.AddEdge(late, 'a', 0)
		g.AddEdge(Node(0), 'b', late)

		s := g.Snapshot()
		if s.DeltaEdges() == 0 {
			t.Fatal("write burst should be served from the delta overlay")
		}
		want := fullyCompacted(g)
		if want.DeltaEdges() != 0 {
			t.Fatalf("reference snapshot carries %d delta edges", want.DeltaEdges())
		}
		if s.NumEdges() != g.NumEdges() {
			t.Fatalf("snapshot holds %d edges, graph %d", s.NumEdges(), g.NumEdges())
		}
		if string(s.Alphabet()) != string(want.Alphabet()) {
			t.Fatalf("alphabet %q, want %q", string(s.Alphabet()), string(want.Alphabet()))
		}
		for v := 0; v < s.NumNodes(); v++ {
			runs := s.Runs(Node(v))
			for i, run := range runs {
				if i > 0 && runs[i-1].Label >= run.Label {
					t.Fatalf("node %d: runs not strictly label-sorted: %v", v, runs)
				}
				seg := s.EdgeRange(run.Start, run.End)
				for j, ed := range seg {
					if ed.Label != run.Label {
						t.Fatalf("node %d: run %q contains %v", v, run.Label, ed)
					}
					if j > 0 && seg[j-1].To >= ed.To {
						t.Fatalf("node %d run %q: targets not strictly sorted: %v", v, run.Label, seg)
					}
				}
			}
			// Merged per-label view agrees with the compacted snapshot.
			for _, a := range s.Alphabet() {
				got, ref := s.WithLabel(Node(v), a), want.WithLabel(Node(v), a)
				if len(got) != len(ref) {
					t.Fatalf("node %d label %q: WithLabel %d edges, want %d", v, a, len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("node %d label %q: WithLabel[%d] = %v, want %v", v, a, i, got[i], ref[i])
					}
				}
				for _, ed := range ref {
					if !s.HasEdge(Node(v), a, ed.To) {
						t.Fatalf("HasEdge(%d,%q,%d) = false on overlay snapshot", v, a, ed.To)
					}
				}
			}
		}
		// EdgesFrom covers base-then-delta with no loss or duplication.
		gotAll, refAll := edgesOf(s, s.NumNodes()), edgesOf(want, s.NumNodes())
		for v := range gotAll {
			if len(gotAll[v]) != len(refAll[v]) {
				t.Fatalf("node %d: EdgesFrom yields %d edges, want %d", v, len(gotAll[v]), len(refAll[v]))
			}
		}
	}
}

// TestCompactionCrossover checks the threshold: small write bursts ride
// the delta overlay, and a delta past ~25% of the base triggers one
// compaction that resets it to zero.
func TestCompactionCrossover(t *testing.T) {
	g := NewDB()
	g.AddNodes(2000)
	for i := 0; i < 1000; i++ {
		g.AddEdge(Node(i), 'a', Node(i+1))
	}
	if s := g.Snapshot(); s.DeltaEdges() != 0 || int(s.baseLen) != 1000 {
		t.Fatalf("initial snapshot: base %d delta %d, want 1000/0", int(s.baseLen), s.DeltaEdges())
	}
	// Below threshold (needs > max(64, 1000/4) delta edges to compact).
	for i := 0; i < 200; i++ {
		g.AddEdge(Node(i), 'b', Node(i+1))
	}
	if s := g.Snapshot(); s.DeltaEdges() != 200 || int(s.baseLen) != 1000 {
		t.Fatalf("sub-threshold snapshot: base %d delta %d, want 1000/200", int(s.baseLen), s.DeltaEdges())
	}
	// Cross the threshold: 251*4 > 1000.
	for i := 0; i < 60; i++ {
		g.AddEdge(Node(i), 'c', Node(i+1))
	}
	if s := g.Snapshot(); s.DeltaEdges() != 0 || int(s.baseLen) != 1260 {
		t.Fatalf("post-threshold snapshot: base %d delta %d, want 1260/0 (compacted)", int(s.baseLen), s.DeltaEdges())
	}
}

// TestSuccessorsIsolated checks the Successors fix: the result is a
// sorted copy routed through the snapshot, so mutating it cannot
// corrupt the store.
func TestSuccessorsIsolated(t *testing.T) {
	g := NewDB()
	g.AddNodes(4)
	g.AddEdge(0, 'a', 3)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(0, 'b', 2)
	got := g.Successors(0, 'a')
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Successors = %v, want [1 3]", got)
	}
	got[0] = 99 // must not reach the store
	if again := g.Successors(0, 'a'); again[0] != 1 {
		t.Fatalf("mutating the returned slice corrupted the store: %v", again)
	}
	if g.Successors(0, 'z') != nil || g.Successors(1, 'a') != nil {
		t.Fatal("absent label should yield nil")
	}
}

// TestCloneReusesSnapshotState checks that a clone carries the parent's
// epoch, base CSR and cached snapshot instead of replaying AddEdge,
// stays equal edge-wise, and diverges independently afterwards; a write
// burst on a clone rides a delta overlay over the shared base.
func TestCloneReusesSnapshotState(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomTestDB(r, 10, 40, []rune("ab"))
	s := g.Snapshot()
	h := g.Clone()
	if h.Epoch() != g.Epoch() || h.NumEdges() != g.NumEdges() || h.NumNodes() != g.NumNodes() {
		t.Fatalf("clone epoch/size mismatch: %d/%d/%d vs %d/%d/%d",
			h.Epoch(), h.NumEdges(), h.NumNodes(), g.Epoch(), g.NumEdges(), g.NumNodes())
	}
	if hs := h.Snapshot(); hs != s {
		t.Fatal("clone of an unmutated DB should reuse the cached snapshot")
	}
	// Divergence: writes to the clone leave the parent untouched.
	h.AddEdge(0, 'z', 1)
	if g.HasEdge(0, 'z', 1) || g.Epoch() == h.Epoch() {
		t.Fatal("clone write leaked into the parent")
	}
	if !h.HasEdge(0, 'z', 1) || h.Snapshot().DeltaEdges() == 0 {
		t.Fatal("clone write should land in the clone's delta overlay")
	}
	// And vice versa.
	g.AddEdge(1, 'z', 0)
	if h.HasEdge(1, 'z', 0) {
		t.Fatal("parent write leaked into the clone")
	}

	// A write burst on a clone: the loops ride the clone's delta
	// overlay over the base it shares with the parent.
	g2 := randomTestDB(r, 20, 50, []rune("ab"))
	base := g2.Snapshot()
	h2 := g2.Clone()
	for v := 0; v < 20; v++ {
		h2.AddEdge(Node(v), 'c', Node(v))
	}
	if h2.NumEdges() != g2.NumEdges()+20 {
		t.Fatalf("clone has %d edges, want %d", h2.NumEdges(), g2.NumEdges()+20)
	}
	bs := h2.Snapshot()
	if int(bs.baseLen) != base.NumEdges() || bs.DeltaEdges() != 20 {
		t.Fatalf("clone snapshot: base %d delta %d, want %d/20 (burst as overlay)",
			int(bs.baseLen), bs.DeltaEdges(), base.NumEdges())
	}
	for v := 0; v < 20; v++ {
		if !bs.HasEdge(Node(v), 'c', Node(v)) || g2.HasEdge(Node(v), 'c', Node(v)) {
			t.Fatalf("loop at %d: clone has it %v, parent has it %v (want true, false)",
				v, bs.HasEdge(Node(v), 'c', Node(v)), g2.HasEdge(Node(v), 'c', Node(v)))
		}
	}
	if g2.Snapshot() != base {
		t.Fatal("clone burst republished the parent's snapshot")
	}
}

// TestSnapshotConcurrentWithWriters hammers Snapshot/reads from many
// goroutines while a writer storms AddEdge/AddNode — meaningful under
// -race: the pinned views must stay stable and the fast path must not
// tear.
func TestSnapshotConcurrentWithWriters(t *testing.T) {
	g := NewDB()
	g.AddNodes(50)
	for i := 0; i < 49; i++ {
		g.AddEdge(Node(i), 'a', Node(i+1))
	}
	var wg, writerWG sync.WaitGroup
	stop := make(chan struct{})
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		r := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g.AddEdge(Node(r.Intn(50)), rune('a'+r.Intn(3)), Node(r.Intn(50)))
			if i%17 == 0 {
				g.AddNode("")
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := g.Snapshot()
				n, e := s.NumNodes(), 0
				s.EachEdge(func(from Node, a rune, to Node) {
					e++
					if int(from) >= n || int(to) >= n {
						t.Errorf("snapshot edge (%d,%q,%d) outside its %d nodes", from, a, to, n)
					}
				})
				if e != s.NumEdges() {
					t.Errorf("snapshot iterates %d edges, claims %d", e, s.NumEdges())
				}
				// The live store's locked readers are safe alongside the writer.
				if !g.HasEdge(0, 'a', 1) {
					t.Error("HasEdge lost the edge (0, a, 1) mid-storm")
				}
				if v, ok := g.NodeByName("n1"); !ok || v != 1 {
					t.Errorf("NodeByName(n1) = %d, %v mid-storm", v, ok)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
}

// TestEachEdgeConcurrentWithWriters runs DB.EachEdge on four goroutines
// while a writer storms AddEdge and takes a snapshot every few writes —
// which sorts the unsorted write suffix in place and compacts — and is
// meaningful under -race. Every pass must visit each edge once, within
// the nodes, the initial chain among them, and its callback calls back
// into the store, which it could not if EachEdge held the write lock.
func TestEachEdgeConcurrentWithWriters(t *testing.T) {
	const n = 50
	g := NewDB()
	g.AddNodes(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(Node(i), 'a', Node(i+1))
	}
	var wg, writerWG sync.WaitGroup
	stop := make(chan struct{})
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		r := rand.New(rand.NewSource(2))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g.AddEdge(Node(r.Intn(n)), rune('a'+r.Intn(3)), Node(r.Intn(n)))
			if i%7 == 0 {
				g.Snapshot()
			}
		}
	}()
	type edge struct {
		from  Node
		label rune
		to    Node
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				seen := map[edge]bool{}
				g.EachEdge(func(from Node, a rune, to Node) {
					e := edge{from, a, to}
					if seen[e] {
						t.Errorf("EachEdge visited (%d,%q,%d) twice in one pass", from, a, to)
					}
					seen[e] = true
					if from < 0 || from >= n || to < 0 || to >= n {
						t.Errorf("EachEdge visited (%d,%q,%d) outside the %d nodes", from, a, to, n)
					}
					if !g.HasEdge(from, a, to) {
						t.Errorf("EachEdge visited (%d,%q,%d), which the store does not hold", from, a, to)
					}
				})
				for v := 0; v < n-1; v++ {
					if !seen[edge{Node(v), 'a', Node(v + 1)}] {
						t.Errorf("EachEdge missed the chain edge (%d,a,%d)", v, v+1)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
}

// TestCountsAndNamesConcurrentWithWriters reads NumNodes, NumEdges and
// Name while a writer adds nodes and edges and takes snapshots; it is
// meaningful under -race. The counts never fall, the newest node a
// count admits has its name, and the final counts are exact.
func TestCountsAndNamesConcurrentWithWriters(t *testing.T) {
	const writes = 2000
	g := NewDB()
	g.AddNodes(2)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		r := rand.New(rand.NewSource(3))
		for i := 0; i < writes; i++ {
			v := g.AddNode("")
			g.AddEdge(Node(r.Intn(int(v)+1)), rune('a'+r.Intn(3)), v)
			if i%16 == 0 {
				g.Snapshot()
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastN, lastE := 0, 0
			for {
				select {
				case <-done:
					return
				default:
				}
				n, e := g.NumNodes(), g.NumEdges()
				if n < lastN || e < lastE {
					t.Errorf("counts fell: %d nodes, %d edges after %d, %d", n, e, lastN, lastE)
					return
				}
				lastN, lastE = n, e
				if v := Node(n - 1); g.Name(v) == "" {
					t.Errorf("node %d of %d has no name", v, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, e := g.NumNodes(), g.NumEdges(); n != writes+2 || e != writes {
		t.Fatalf("store counts %d nodes and %d edges, want %d and %d", n, e, writes+2, writes)
	}
}
