package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/faultinject"
)

// overlayModel is the content a write script has produced, kept apart
// from the store: the node count and every edge once.
type overlayModel struct {
	n     int
	edges map[edgeKey]bool
}

func (m *overlayModel) addEdge(g *DB, from Node, a rune, to Node) {
	g.AddEdge(from, a, to)
	m.edges[edgeKey{from, a, to}] = true
}

func (m *overlayModel) addNode(g *DB) {
	g.AddNode("")
	m.n++
}

// compacted builds the model's content into a fresh store, whose first
// snapshot holds every edge in the base.
func (m *overlayModel) compacted() *Snapshot {
	h := NewDB()
	h.AddNodes(m.n)
	for k := range m.edges {
		h.AddEdge(k.from, k.label, k.to)
	}
	return h.Snapshot()
}

// runEdges resolves runs to their edges, in order, checking that runs
// are strictly label-sorted and each run's targets strictly sorted.
func runEdges(t testing.TB, s *Snapshot, v Node, runs []LabelRun) []Edge {
	t.Helper()
	var out []Edge
	for i, run := range runs {
		if i > 0 && runs[i-1].Label >= run.Label {
			t.Fatalf("node %d: runs not strictly label-sorted: %v", v, runs)
		}
		seg := s.EdgeRange(run.Start, run.End)
		if len(seg) == 0 {
			t.Fatalf("node %d: empty run %v", v, run)
		}
		for j, e := range seg {
			if e.Label != run.Label || j > 0 && seg[j-1].To >= e.To {
				t.Fatalf("node %d: run %q holds %v", v, run.Label, seg)
			}
		}
		out = append(out, seg...)
	}
	return out
}

// checkOverlay holds s to a compacted twin of the model, in order: per
// node the same runs with the same edges, from Runs, EdgesFrom and
// WithLabel alike, OutDegree counting them, and EachEdge listing the
// twin's edges in the twin's order.
func checkOverlay(t testing.TB, s *Snapshot, m *overlayModel) {
	t.Helper()
	want := m.compacted()
	if s.NumNodes() != m.n || s.NumEdges() != len(m.edges) || want.DeltaEdges() != 0 {
		t.Fatalf("snapshot holds %d nodes, %d edges (twin %d delta edges); the script wrote %d nodes, %d edges",
			s.NumNodes(), s.NumEdges(), want.DeltaEdges(), m.n, len(m.edges))
	}
	if !slices.Equal(s.Alphabet(), want.Alphabet()) {
		t.Fatalf("alphabet %q, want %q", string(s.Alphabet()), string(want.Alphabet()))
	}
	for v := Node(0); int(v) < m.n; v++ {
		listed := runEdges(t, s, v, s.Runs(v))
		ref := runEdges(t, want, v, want.Runs(v))
		if !slices.Equal(listed, ref) {
			t.Fatalf("node %d: runs list %v, compacted %v", v, listed, ref)
		}
		var got []Edge
		s.EdgesFrom(v, func(a rune, to Node) { got = append(got, Edge{a, to}) })
		if !slices.Equal(got, ref) {
			t.Fatalf("node %d: EdgesFrom %v, compacted %v", v, got, ref)
		}
		if s.OutDegree(v) != len(ref) {
			t.Fatalf("node %d: OutDegree %d, %d edges", v, s.OutDegree(v), len(ref))
		}
		for _, run := range want.Runs(v) {
			if w, g := want.EdgeRange(run.Start, run.End), s.WithLabel(v, run.Label); !slices.Equal(g, w) {
				t.Fatalf("node %d: WithLabel(%q) %v, compacted %v", v, run.Label, g, w)
			}
		}
	}
	type triple struct {
		from Node
		e    Edge
	}
	var each, ref []triple
	s.EachEdge(func(v Node, a rune, to Node) { each = append(each, triple{v, Edge{a, to}}) })
	want.EachEdge(func(v Node, a rune, to Node) { ref = append(ref, triple{v, Edge{a, to}}) })
	if !slices.Equal(each, ref) {
		t.Fatal("EachEdge differs from the compacted twin's")
	}
}

// forceCompaction takes g's snapshot with the compaction policy forced,
// so a store with unpublished writes compacts them all into its base.
func forceCompaction(g *DB) *Snapshot {
	faultinject.Set(func(p faultinject.Point, _ uint64) error {
		if p == faultinject.CompactionPolicy {
			return faultinject.ErrForced
		}
		return nil
	})
	defer faultinject.Clear()
	return g.Snapshot()
}

// runOverlayScript applies a write script to g: each op byte picks an
// edge write (most of them), a node added past the base, a snapshot
// checked against the model, a clone compacted at another point than
// its source, a checkpoint when the store is durable, a forced
// compaction, or a durable store closed and reopened from its directory.
func runOverlayScript(t testing.TB, g *DB, m *overlayModel, ops []byte) {
	t.Helper()
	for i := 0; i+2 < len(ops); i += 3 {
		op, x, y := ops[i], int(ops[i+1]), int(ops[i+2])
		switch op % 16 {
		case 0:
			m.addNode(g)
		case 1:
			checkOverlay(t, g.Snapshot(), m)
		case 2:
			// The same write lands in both stores; one of them compacts
			// it, and both must list the twin's order. The script goes on
			// with either; a durable source may later be reopened.
			h := g.Clone()
			from, a, to := Node(x*m.n/256), rune('a'+op%5), Node(y%m.n)
			m.addEdge(g, from, a, to)
			h.AddEdge(from, a, to)
			if x%2 == 0 {
				forceCompaction(h)
			} else {
				forceCompaction(g)
			}
			checkOverlay(t, g.Snapshot(), m)
			checkOverlay(t, h.Snapshot(), m)
			if y%2 == 0 {
				g = h
			}
		case 3:
			if g.Durable() {
				if err := g.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			// The last node, on either end.
			m.addEdge(g, Node(m.n-1), rune('a'+op%5), Node(x%m.n))
			m.addEdge(g, Node(y%m.n), rune('a'+op%5), Node(m.n-1))
		case 6:
			checkOverlay(t, forceCompaction(g), m)
		case 7:
			if g.Durable() {
				dir := g.dir
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
				var err error
				if g, err = OpenDir(dir); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { g.Close() })
				checkOverlay(t, g.Snapshot(), m)
			}
		default:
			m.addEdge(g, Node(x*m.n/256), rune('a'+op%5), Node(y%m.n))
		}
	}
	checkOverlay(t, g.Snapshot(), m)
}

// newOverlayStore returns a store of n nodes with a compacted base of
// about 2n random edges, and its model.
func newOverlayStore(t testing.TB, g *DB, r *rand.Rand, n int) *overlayModel {
	t.Helper()
	m := &overlayModel{edges: map[edgeKey]bool{}}
	for range n {
		m.addNode(g)
	}
	for range 2 * n {
		m.addEdge(g, Node(r.Intn(n)), rune('a'+r.Intn(3)), Node(r.Intn(n)))
	}
	if g.Durable() {
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	g.Snapshot()
	return m
}

// TestSnapshotOverlayMatchesCompacted runs random write scripts against
// memory-only and durable stores of node counts that are not multiples
// of 64, with nodes added past the base, writes at the last node, clones
// and checkpoints between the writes, and compactions when the delta
// crosses the threshold.
func TestSnapshotOverlayMatchesCompacted(t *testing.T) {
	for trial := range 12 {
		r := rand.New(rand.NewSource(int64(trial)))
		var g *DB
		if trial%3 == 2 {
			var err error
			if g, err = OpenDir(t.TempDir()); err != nil {
				t.Fatal(err)
			}
		} else {
			g = NewDB()
		}
		m := newOverlayStore(t, g, r, 60+r.Intn(150))
		ops := make([]byte, 3*400)
		r.Read(ops)
		runOverlayScript(t, g, m, ops)
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzSnapshotOverlay runs arbitrary write scripts (see
// runOverlayScript) over a small memory-only store; its seed corpus runs
// under go test.
func FuzzSnapshotOverlay(f *testing.F) {
	f.Add([]byte{5, 1, 2, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 4, 9, 9, 1, 0, 0, 2, 0, 0, 5, 255, 3, 1, 0, 0})
	f.Add([]byte{5, 10, 20, 5, 10, 21, 0, 0, 0, 20, 255, 66, 1, 0, 0, 3, 0, 0, 4, 1, 1})
	long := make([]byte, 3*300)
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := NewDB()
		m := newOverlayStore(t, g, rand.New(rand.NewSource(1)), 67)
		runOverlayScript(t, g, m, ops)
	})
}

// TestPostWriteSnapshotBytes bounds what a post-write snapshot costs
// over a large base: with a one-edge delta over 2¹⁶ nodes it allocates
// at most n/4 + 4 KiB, its index growing with the nodes the delta
// touches and an n/64-word source bitset, not two n-entry arrays.
func TestPostWriteSnapshotBytes(t *testing.T) {
	const n = 1 << 16
	g := NewDB()
	g.AddNodes(n)
	for v := range n - 1 {
		g.AddEdge(Node(v), 'a', Node(v+1))
	}
	g.Snapshot()
	g.AddEdge(n-1, 'b', 0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	s := g.Snapshot()
	runtime.ReadMemStats(&ms)
	if s.DeltaEdges() != 1 {
		t.Fatalf("the write compacted: %d delta edges", s.DeltaEdges())
	}
	got, bound := ms.TotalAlloc-before, uint64(n/4+4096)
	t.Logf("post-write snapshot over %d nodes: %d bytes (bound %d)", n, got, bound)
	if got > bound {
		t.Fatalf("post-write snapshot allocated %d bytes, bound %d", got, bound)
	}
}
