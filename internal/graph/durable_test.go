package graph

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/graph/segment"
)

// serialize renders g in the canonical text format — the byte-exact
// state fingerprint the recovery tests compare.
func serialize(t *testing.T, g *DB) string {
	t.Helper()
	var b strings.Builder
	if err := WriteText(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(a, 'x', b)
	g.AddEdge(b, 'y', c)
	g.AddEdge(a, 'x', b) // duplicate: no epoch, no WAL record
	want := serialize(t, g)
	wantEpoch := g.Epoch()
	if wantEpoch != 5 {
		t.Fatalf("epoch = %d, want 5 (3 nodes + 2 fresh edges)", wantEpoch)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without any checkpoint: pure WAL bootstrap.
	h, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := serialize(t, h); got != want {
		t.Fatalf("after WAL-only reopen:\n got %q\nwant %q", got, want)
	}
	if h.Epoch() != wantEpoch {
		t.Fatalf("epoch after reopen = %d, want %d", h.Epoch(), wantEpoch)
	}
	if rs := h.Recovery(); rs.SegmentPath != "" || rs.WALReplayed != 5 {
		t.Fatalf("recovery stats = %+v, want WAL-only with 5 replayed", rs)
	}

	// Checkpoint, write more, close, reopen: segment + WAL tail.
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d := h.AddNode("d")
	h.AddEdge(c, 'z', d)
	want = serialize(t, h)
	wantEpoch = h.Epoch()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	k, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if got := serialize(t, k); got != want {
		t.Fatalf("after segment+WAL reopen:\n got %q\nwant %q", got, want)
	}
	rs := k.Recovery()
	if rs.SegmentEpoch != 5 || rs.WALReplayed != 2 {
		t.Fatalf("recovery stats = %+v, want segment@5 + 2 replayed", rs)
	}
	if !k.Durable() {
		t.Fatal("reopened store not durable")
	}
	// Queries over the mapped base must agree with the delta path.
	if !k.HasEdge(a, 'x', b) || !k.Snapshot().HasEdge(b, 'y', c) {
		t.Fatal("recovered store lost edges")
	}
}

func TestDurableCheckpointIdempotent(t *testing.T) {
	dir := t.TempDir()
	g, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.AddEdge(g.AddNode("a"), 'x', g.AddNode("b"))
	for i := 0; i < 3; i++ {
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if st := g.DurableStats(); st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1 (later calls are no-ops at an unchanged epoch)", st.Checkpoints)
	}
}

// TestEveryOffsetCrash is the crash-safety property test of the
// acceptance criteria: for EVERY byte-length prefix of the final WAL
// (the states a kill -9 can leave behind), OpenDir must recover a
// prefix-consistent graph — exactly the state at some acknowledged
// epoch, losing at most the unacknowledged suffix — with the recovered
// epoch monotone in the prefix length.
func TestEveryOffsetCrash(t *testing.T) {
	dir := t.TempDir()
	g, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Scripted history with a mid-run checkpoint, recording the expected
	// serialized state at every epoch.
	expect := map[uint64]string{0: ""}
	mutate := func(f func()) {
		f()
		expect[g.Epoch()] = serialize(t, g)
	}
	for i := 0; i < 6; i++ {
		mutate(func() { g.AddNode(fmt.Sprintf("n%d", i)) })
	}
	for i := 0; i < 10; i++ {
		mutate(func() { g.AddEdge(Node(i%6), rune('a'+i%3), Node((i+1)%6)) })
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckEpoch := g.Epoch()
	for i := 0; i < 12; i++ {
		mutate(func() { g.AddEdge(Node(i%6), rune('p'+i%4), Node((i*2+1)%6)) })
	}
	final := g.Epoch()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	segFiles := segmentPaths(dir)
	if len(segFiles) != 1 {
		t.Fatalf("want exactly 1 segment after 1 checkpoint, got %v", segFiles)
	}
	segBytes, err := os.ReadFile(segFiles[0])
	if err != nil {
		t.Fatal(err)
	}

	prevEpoch := uint64(0)
	for cut := 0; cut <= len(wal); cut++ {
		crash := t.TempDir()
		if err := os.WriteFile(filepath.Join(crash, filepath.Base(segFiles[0])), segBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		h, err := OpenDir(crash)
		if err != nil {
			t.Fatalf("cut %d/%d: OpenDir: %v", cut, len(wal), err)
		}
		ep := h.Epoch()
		if ep < ckEpoch {
			t.Fatalf("cut %d: recovered epoch %d below checkpoint %d", cut, ep, ckEpoch)
		}
		if ep < prevEpoch {
			t.Fatalf("cut %d: recovered epoch %d not monotone (previous cut gave %d)", cut, ep, prevEpoch)
		}
		prevEpoch = ep
		want, ok := expect[ep]
		if !ok {
			t.Fatalf("cut %d: recovered epoch %d is not an acknowledged state", cut, ep)
		}
		if got := serialize(t, h); got != want {
			t.Fatalf("cut %d: recovered state at epoch %d diverges:\n got %q\nwant %q", cut, ep, got, want)
		}
		h.Close()
	}
	if prevEpoch != final {
		t.Fatalf("full WAL recovered epoch %d, want %d", prevEpoch, final)
	}
}

// TestEdgesSinceFloorAcrossRestart pins the delta-history floor
// semantics of recovery (satellite 1): after a restart the floor is the
// recovered segment's epoch — EdgesSince at or above it answers
// exactly the replayed writes, strictly below it refuses, and the
// boundary epoch itself (the checkpoint) succeeds with the full tail.
func TestEdgesSinceFloorAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	g, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, 'x', b)
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ck := g.Epoch()
	g.AddEdge(b, 'y', a)
	g.AddEdge(a, 'z', a)
	finalEpoch := g.Epoch()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	h, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	s := h.Snapshot()
	if s.HistoryFloor() != ck {
		t.Fatalf("HistoryFloor = %d, want checkpoint epoch %d", s.HistoryFloor(), ck)
	}
	// Boundary epoch: exactly answerable, returns both post-checkpoint edges.
	delta, ok := s.EdgesSince(ck)
	if !ok || len(delta) != 2 {
		t.Fatalf("EdgesSince(%d) = %v, %v; want the 2 replayed edges", ck, delta, ok)
	}
	if delta[0].Epoch != ck+1 || delta[1].Epoch != finalEpoch {
		t.Fatalf("replayed delta epochs = %d,%d; want %d,%d", delta[0].Epoch, delta[1].Epoch, ck+1, finalEpoch)
	}
	// One below the boundary: the pre-crash history is gone; must refuse,
	// exactly like the in-memory trimmed-window path.
	if _, ok := s.EdgesSince(ck - 1); ok {
		t.Fatalf("EdgesSince(%d) below recovered floor must refuse", ck-1)
	}
	if _, ok := s.LabelsSince(ck - 1); ok {
		t.Fatal("LabelsSince below recovered floor must refuse")
	}
}

func TestRecoveryGapRefusal(t *testing.T) {
	dir := t.TempDir()
	g, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(g.AddNode("a"), 'x', g.AddNode("b"))
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(g.AddNode("c"), 'y', g.AddNode("d"))
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	// Destroy the only segment. The WAL's checkpoint marker proves a
	// state newer than anything recoverable — OpenDir must refuse
	// instead of silently serving the pre-checkpoint graph as current.
	for _, p := range segmentPaths(dir) {
		if err := os.Truncate(p, 100); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenDir(dir); err == nil || !strings.Contains(err.Error(), "recovery gap") {
		t.Fatalf("OpenDir over a destroyed segment = %v, want recovery-gap refusal", err)
	}
}

func TestFaultWALAppend(t *testing.T) {
	dir := t.TempDir()
	g, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	a, b := g.AddNode("a"), g.AddNode("b")
	faultinject.Set(func(p faultinject.Point, n uint64) error {
		if p == faultinject.WALAppend {
			return errors.New("log device gone")
		}
		return nil
	})
	defer faultinject.Clear()
	g.AddEdge(a, 'x', b)
	// The mutation committed in memory and serving continues…
	if !g.HasEdge(a, 'x', b) {
		t.Fatal("mutation lost on WAL failure")
	}
	// …but the store reports itself crash-vulnerable.
	if err := g.DurableErr(); err == nil {
		t.Fatal("DurableErr must be sticky after a WAL append failure")
	}
	if st := g.DurableStats(); st.WALErrs != 1 || st.Err == "" {
		t.Fatalf("stats = %+v, want 1 wal error surfaced", st)
	}
	// A clean checkpoint re-establishes durability and clears the error.
	faultinject.Clear()
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := g.DurableErr(); err != nil {
		t.Fatalf("DurableErr after clean checkpoint = %v, want nil", err)
	}
}

func TestFaultCheckpointWrite(t *testing.T) {
	dir := t.TempDir()
	g, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, 'x', b)
	want := serialize(t, g)
	faultinject.Set(func(p faultinject.Point, n uint64) error {
		if p == faultinject.CheckpointWrite {
			return errors.New("disk full")
		}
		return nil
	})
	err = g.Checkpoint()
	faultinject.Clear()
	var ck *checkpointError
	if !errors.As(err, &ck) {
		t.Fatalf("Checkpoint under injection = %v, want *checkpointError", err)
	}
	if st := g.DurableStats(); st.CheckpointErrs != 1 || st.Checkpoints != 0 {
		t.Fatalf("stats = %+v, want the failure counted and no checkpoint", st)
	}
	// The WAL was left untouched: a restart recovers everything.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := serialize(t, h); got != want {
		t.Fatalf("failed checkpoint lost data:\n got %q\nwant %q", got, want)
	}
}

func TestFaultSegmentMap(t *testing.T) {
	dir := t.TempDir()
	g, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(g.AddNode("a"), 'x', g.AddNode("b"))
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	faultinject.Set(func(p faultinject.Point, n uint64) error {
		if p == faultinject.SegmentMap {
			return errors.New("mmap EIO")
		}
		return nil
	})
	defer faultinject.Clear()
	// With every segment unmappable and a WAL checkpointed past epoch 0,
	// recovery must refuse (gap) and report the skip — never serve a
	// silently truncated graph.
	_, err = OpenDir(dir)
	if err == nil || !strings.Contains(err.Error(), "recovery gap") {
		t.Fatalf("OpenDir with segments unmappable = %v, want recovery-gap refusal", err)
	}
}

func TestBulkIngestDurable(t *testing.T) {
	dir := t.TempDir()
	g, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = g.Bulk(func() error {
		return ParseTextInto(g, strings.NewReader("edge a x b\nedge b y c\nedge c z a\n"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// The load is durable via its checkpoint, not the WAL: the log must
	// hold only the checkpoint marker, and a reopen must see the data.
	if st := g.DurableStats(); st.Checkpoints != 1 {
		t.Fatalf("stats = %+v, want exactly 1 checkpoint ending the bulk", st)
	}
	want := serialize(t, g)
	recs, _ := readWAL(t, dir)
	if len(recs) != 1 || recs[0].Kind != segment.RecCheckpoint {
		t.Fatalf("wal after bulk = %+v, want only the checkpoint marker", recs)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := serialize(t, h); got != want {
		t.Fatalf("bulk load not durable:\n got %q\nwant %q", got, want)
	}
	if !h.Recovery().Mapped && mmapExpected() {
		t.Log("note: segment served from heap fallback, not a mapping")
	}
}

// mmapExpected reports whether this platform should normally map
// segments (informational only; tmpfs and overlayfs both mmap fine).
func mmapExpected() bool { return true }

func readWAL(t *testing.T, dir string) ([]segment.Record, int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return segment.ScanWAL(data)
}

func TestAutoCheckpointOnCompaction(t *testing.T) {
	dir := t.TempDir()
	g, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Force the delta past the compaction threshold with snapshots in
	// between; the threshold compaction must persist a segment and
	// truncate the WAL without any explicit Checkpoint call.
	n := 40
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < 400; i++ {
		g.AddEdge(Node(i%n), rune('a'+i%7), Node((i*13+1)%n))
		if i%50 == 0 {
			g.Snapshot()
		}
	}
	g.Snapshot()
	st := g.DurableStats()
	if st.Checkpoints == 0 {
		t.Fatalf("stats = %+v, want threshold compactions to checkpoint", st)
	}
	if len(segmentPaths(dir)) == 0 {
		t.Fatal("no segment file written by auto-checkpoint")
	}
	if st.WALBytes >= 1<<20 {
		t.Fatalf("wal grew unbounded: %d bytes", st.WALBytes)
	}
}

func TestSegmentPruning(t *testing.T) {
	dir := t.TempDir()
	g, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 5; i++ {
		g.AddEdge(g.AddNode(fmt.Sprintf("a%d", i)), 'x', g.AddNode(fmt.Sprintf("b%d", i)))
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(segmentPaths(dir)); got > segKeep {
		t.Fatalf("%d segments on disk after 5 checkpoints, want ≤ %d", got, segKeep)
	}
}

func TestMemoryStoreHasNoDurability(t *testing.T) {
	g := NewDB()
	g.AddEdge(g.AddNode("a"), 'x', g.AddNode("b"))
	if g.Durable() {
		t.Fatal("NewDB store claims durability")
	}
	if err := g.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint on memory store = %v, want ErrNotDurable", err)
	}
	// Bulk on a memory store is just fn.
	if err := g.Bulk(func() error { g.AddNode("c"); return nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.NodeByName("c"); !ok {
		t.Fatal("Bulk fn not applied on memory store")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}
