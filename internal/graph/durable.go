package graph

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/graph/segment"
)

// This file is the durability layer of the store: graph.OpenDir turns a
// directory into a DB whose compacted base CSR is an mmap'd segment
// file and whose delta log doubles as a write-ahead log.
//
// Directory layout:
//
//	seg-<epoch:016x>.seg   compacted base segments, newest wins
//	wal.log                mutations since the newest segment's epoch
//
// Invariants the recovery protocol leans on:
//
//   - Every successful mutation (fresh node, fresh edge) advances the
//     epoch by exactly one and, on a durable store, appends exactly one
//     WAL record stamped with that epoch — so a valid log is strictly
//     epoch-contiguous, and a segment at epoch E plus a log whose
//     records run E+1, E+2, … reconstructs the state losslessly.
//   - Duplicate AddNode/AddEdge calls advance nothing and log nothing.
//   - A segment at epoch E contains exactly E mutations (n nodes +
//     m edges with n+m == E) — checked at load as a cheap corruption
//     tripwire.
//   - Checkpoints are sidecar-atomic (temp + fsync + rename + dir
//     fsync) and only then truncate the WAL, so a crash at any byte
//     offset of the sequence leaves either the old state plus a
//     replayable log, or the new segment (with a possibly stale log
//     whose already-absorbed prefix is skipped by epoch).

// ErrNotDurable is returned by durability operations (Checkpoint) on a
// store that was not opened with OpenDir.
var ErrNotDurable = errors.New("graph: store is not durable")

// checkpointError wraps a failed segment checkpoint: the in-memory
// compaction already succeeded and the WAL is untouched (still fully
// replayable), so the store keeps serving — it is durability, not
// correctness, that is degraded until a checkpoint succeeds.
type checkpointError struct{ Err error }

func (e *checkpointError) Error() string { return "graph: checkpoint failed: " + e.Err.Error() }
func (e *checkpointError) Unwrap() error { return e.Err }

const (
	segPrefix = "seg-"
	segSuffix = ".seg"
	walName   = "wal.log"
	// segKeep is how many newest segments survive a checkpoint; the
	// extra one is a manual-recovery artifact (the WAL is truncated at
	// checkpoint, so automatic recovery never falls back past the
	// newest valid segment without detecting the gap).
	segKeep = 2
)

// Record sizes of the native-layout segment sections, written into the
// header as an architecture guard: a segment written by a host with a
// different struct layout is rejected at load instead of misread.
const (
	recEdge = uint32(unsafe.Sizeof(Edge{}))
	recRun  = uint32(unsafe.Sizeof(LabelRun{}))
)

// Options configures a durable store.
type Options struct {
	// SyncEveryWrite fsyncs the WAL after every record, making each
	// acknowledged mutation survive OS crashes and power loss. The
	// default (false) writes records to the kernel before acknowledging
	// — durable across process crashes (kill -9), with the unsynced
	// tail at risk only if the whole machine dies.
	SyncEveryWrite bool
}

// RecoveryStats describes what OpenDir found and did.
type RecoveryStats struct {
	SegmentPath     string `json:"segment_path,omitempty"`
	SegmentEpoch    uint64 `json:"segment_epoch"`
	SegmentsSkipped int    `json:"segments_skipped,omitempty"`
	Mapped          bool   `json:"mapped"`
	WALRecords      int    `json:"wal_records"`
	WALReplayed     int    `json:"wal_replayed"`
	WALBytes        int64  `json:"wal_bytes"`
	TornBytes       int64  `json:"torn_bytes,omitempty"`
}

// DurableStats is the introspection snapshot of the durability layer,
// shaped for /statz.
type DurableStats struct {
	Dir            string        `json:"dir"`
	SyncEveryWrite bool          `json:"sync_every_write"`
	Epoch          uint64        `json:"epoch"`
	LastCheckpoint uint64        `json:"last_checkpoint_epoch"`
	Checkpoints    uint64        `json:"checkpoints"`
	CheckpointErrs uint64        `json:"checkpoint_errs,omitempty"`
	WALErrs        uint64        `json:"wal_errs,omitempty"`
	WALBytes       int64         `json:"wal_bytes"`
	Err            string        `json:"err,omitempty"`
	Recovery       RecoveryStats `json:"recovery"`
}

// OpenDir opens (creating if necessary) the durable graph store rooted
// at dir: the newest valid segment file is mapped read-only as the base
// csr, the WAL tail is replayed on top (a torn final record is
// discarded), and subsequent mutations are write-ahead logged. The
// returned store serves exactly the acknowledged pre-crash state; call
// Close when done to release the mapping and the log.
func OpenDir(dir string) (*DB, error) { return OpenDirOptions(dir, Options{}) }

// OpenDirOptions is OpenDir with explicit Options.
func OpenDirOptions(dir string, o Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g := NewDB()
	g.dir = dir
	g.syncEvery = o.SyncEveryWrite
	fail := func(err error) (*DB, error) {
		g.closeMappings()
		return nil, err
	}
	// Map the newest valid segment; a candidate that fails to open,
	// parse or validate is skipped (counted) and the next older one is
	// tried — the gap check during replay catches the case where the
	// skip actually lost state.
	for _, p := range segmentPaths(dir) {
		if err := faultinject.Inject(faultinject.SegmentMap); err != nil {
			g.recovery.SegmentsSkipped++
			continue
		}
		f, err := segment.Open(p)
		if err != nil {
			g.recovery.SegmentsSkipped++
			continue
		}
		if err := g.loadSegment(f); err != nil {
			f.Close()
			g.recovery.SegmentsSkipped++
			continue
		}
		g.segs = append(g.segs, f)
		g.recovery.SegmentPath = p
		g.recovery.SegmentEpoch = f.Data.Epoch
		g.recovery.Mapped = f.Mapped()
		break
	}
	// EdgesSince can answer down to the segment epoch (replayed edges
	// rebuild the history tail above it) but no further: older history
	// died with the previous process.
	g.histFloor = g.recovery.SegmentEpoch
	g.lastCkpt = g.recovery.SegmentEpoch

	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return fail(err)
	}
	recs, valid := segment.ScanWAL(data)
	g.recovery.WALRecords = len(recs)
	g.recovery.WALBytes = int64(valid)
	g.recovery.TornBytes = int64(len(data) - valid)
	if err := g.replay(recs); err != nil {
		return fail(err)
	}
	w, err := segment.OpenWAL(walPath, int64(valid))
	if err != nil {
		return fail(err)
	}
	g.wal = w
	return g, nil
}

// segmentPaths lists dir's segment files newest-first; the fixed-width
// hex epoch in the name makes lexicographic order epoch order.
func segmentPaths(dir string) []string {
	paths, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	return paths
}

// castRecs reinterprets a page-aligned section as a record slice; the
// segment layer guarantees alignment, this checks divisibility.
func castRecs[T any](b []byte, what string) ([]T, error) {
	var zero T
	sz := int(unsafe.Sizeof(zero))
	if len(b)%sz != 0 {
		return nil, fmt.Errorf("graph: segment %s section length %d not a multiple of %d", what, len(b), sz)
	}
	if len(b) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/sz), nil
}

// loadSegment validates the structural invariants of an opened segment
// — offset monotonicity, run/edge sortedness, name uniqueness, the
// epoch/mutation-count identity — and installs it as the store's base.
// Nothing is copied: names point into the mapping, and the CSR arrays
// are casts of the mapped sections. The validation pass is what makes
// a CRC-valid but semantically hostile file (fuzzers, bit flips that
// collide CRC32) an error instead of an out-of-bounds panic later.
func (g *DB) loadSegment(f *segment.File) error {
	d := f.Data
	if d.RecEdge != recEdge || d.RecRun != recRun {
		return fmt.Errorf("graph: segment record sizes (%d,%d) do not match host (%d,%d)",
			d.RecEdge, d.RecRun, recEdge, recRun)
	}
	nodeOff, err := castRecs[int32](d.Sections[segment.SecNodeOff], "nodeOff")
	if err != nil {
		return err
	}
	runOff, err := castRecs[int32](d.Sections[segment.SecRunOff], "runOff")
	if err != nil {
		return err
	}
	runs, err := castRecs[LabelRun](d.Sections[segment.SecRuns], "runs")
	if err != nil {
		return err
	}
	edges, err := castRecs[Edge](d.Sections[segment.SecEdges], "edges")
	if err != nil {
		return err
	}
	alphabet, err := castRecs[rune](d.Sections[segment.SecAlphabet], "alphabet")
	if err != nil {
		return err
	}
	nameOff, err := castRecs[int32](d.Sections[segment.SecNameOff], "nameOff")
	if err != nil {
		return err
	}
	nameBytes := d.Sections[segment.SecNameBytes]

	if len(nodeOff) < 1 {
		return errors.New("graph: segment has no node table")
	}
	n := len(nodeOff) - 1
	if len(runOff) != n+1 || len(nameOff) != n+1 {
		return fmt.Errorf("graph: segment offset tables disagree on node count")
	}
	if err := checkOffsets(nodeOff, len(edges), "edge"); err != nil {
		return err
	}
	if err := checkOffsets(runOff, len(runs), "run"); err != nil {
		return err
	}
	if err := checkOffsets(nameOff, len(nameBytes), "name"); err != nil {
		return err
	}
	for i := 1; i < len(alphabet); i++ {
		if alphabet[i-1] >= alphabet[i] {
			return errors.New("graph: segment alphabet not strictly sorted")
		}
	}
	if d.Epoch != uint64(n)+uint64(len(edges)) {
		return fmt.Errorf("graph: segment epoch %d does not equal mutation count %d nodes + %d edges",
			d.Epoch, n, len(edges))
	}
	// Per-node structure: runs partition the node's edge range exactly,
	// with strictly increasing labels across runs and strictly
	// increasing in-bounds targets within a run.
	for v := 0; v < n; v++ {
		rr := runs[runOff[v]:runOff[v+1]]
		pos := nodeOff[v]
		for i, r := range rr {
			if r.Start != pos || r.End <= r.Start || r.End > nodeOff[v+1] {
				return fmt.Errorf("graph: segment node %d run %d does not tile its edge range", v, i)
			}
			if i > 0 && rr[i-1].Label >= r.Label {
				return fmt.Errorf("graph: segment node %d runs not sorted by label", v)
			}
			prev := Node(-1)
			for _, e := range edges[r.Start:r.End] {
				if e.Label != r.Label {
					return fmt.Errorf("graph: segment node %d edge label outside its run", v)
				}
				if e.To <= prev || int(e.To) >= n {
					return fmt.Errorf("graph: segment node %d edge targets unsorted or out of range", v)
				}
				prev = e.To
			}
			pos = r.End
		}
		if pos != nodeOff[v+1] {
			return fmt.Errorf("graph: segment node %d edges not covered by runs", v)
		}
	}
	// Interned names, zero-copy out of the mapping; byName is the one
	// per-node heap structure a segment-backed open materializes.
	names := make([]string, n)
	byName := make(map[string]Node, n)
	for v := 0; v < n; v++ {
		ln := nameOff[v+1] - nameOff[v]
		if ln == 0 {
			return fmt.Errorf("graph: segment node %d has an empty name", v)
		}
		name := unsafe.String(&nameBytes[nameOff[v]], ln)
		if _, dup := byName[name]; dup {
			return fmt.Errorf("graph: segment duplicate node name %q", name)
		}
		names[v] = name
		byName[name] = Node(v)
	}
	g.names = names
	g.byName = byName
	g.base = csrFromParts(edges, nodeOff, runOff, runs, alphabet)
	g.baseN = n
	g.nNodes.Store(int64(n))
	g.nEdges.Store(int64(len(edges)))
	g.epoch.Store(d.Epoch)
	return nil
}

// checkOffsets validates an n+1 offset table: starts at zero,
// non-decreasing, ends exactly at the section's record count.
func checkOffsets(off []int32, total int, what string) error {
	if off[0] != 0 || int(off[len(off)-1]) != total {
		return fmt.Errorf("graph: segment %s offsets do not span their section", what)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("graph: segment %s offsets decrease at %d", what, i)
		}
	}
	return nil
}

// replay applies the WAL tail on top of the recovered segment state.
// Records at or below the segment epoch were already absorbed by a
// checkpoint and are skipped; above it, epochs must be exactly
// contiguous — a gap means a state the log proves existed cannot be
// reconstructed (for example the segment holding it was corrupted and
// skipped), and recovery refuses rather than silently resurrecting an
// older graph as if it were current.
func (g *DB) replay(recs []segment.Record) error {
	cur := g.epoch.Load()
	for i, r := range recs {
		if r.Kind == segment.RecCheckpoint {
			if r.Epoch > cur {
				return fmt.Errorf("graph: recovery gap: wal was checkpointed at epoch %d but newest usable segment is at %d", r.Epoch, cur)
			}
			continue
		}
		if r.Epoch <= cur {
			continue
		}
		if r.Epoch != cur+1 {
			return fmt.Errorf("graph: recovery gap: wal record %d jumps from epoch %d to %d", i, cur, r.Epoch)
		}
		switch r.Kind {
		case segment.RecNode:
			g.AddNode(r.Name)
		case segment.RecEdge:
			n := uint64(len(g.names))
			if r.From >= n || r.To >= n {
				return fmt.Errorf("graph: wal record %d references node beyond %d", i, n)
			}
			g.AddEdge(Node(r.From), r.Label, Node(r.To))
		default:
			return fmt.Errorf("graph: wal record %d has unknown kind %d", i, r.Kind)
		}
		// A fresh mutation advances the epoch by one; anything else
		// (duplicate name, duplicate edge) means the log lies about the
		// history and the store refuses to guess.
		if got := g.epoch.Load(); got != r.Epoch {
			return fmt.Errorf("graph: wal record %d did not apply cleanly (epoch %d, want %d): duplicate mutation in log", i, got, r.Epoch)
		}
		cur = r.Epoch
		g.recovery.WALReplayed++
	}
	return nil
}

// walAppendNode logs a fresh node mutation; callers hold g.mu. On a
// memory-only store, during recovery replay, and inside Bulk it is a
// no-op. Failures (injected or real) are sticky: the mutation stays
// committed in memory and serving continues, but DurableErr reports
// the store crash-vulnerable until the next clean checkpoint.
func (g *DB) walAppendNode(ep uint64, name string) {
	if g.wal == nil || g.bulk {
		return
	}
	if err := faultinject.Inject(faultinject.WALAppend); err != nil {
		g.setWalErrLocked(fmt.Errorf("wal append node: %w", err))
		return
	}
	if err := g.wal.Append(segment.Record{Kind: segment.RecNode, Epoch: ep, Name: name}, g.syncEvery); err != nil {
		g.setWalErrLocked(fmt.Errorf("wal append node: %w", err))
	}
}

// walAppendEdge logs a fresh edge mutation; callers hold g.mu.
func (g *DB) walAppendEdge(e rawEdge) {
	if g.wal == nil || g.bulk {
		return
	}
	if err := faultinject.Inject(faultinject.WALAppend); err != nil {
		g.setWalErrLocked(fmt.Errorf("wal append edge: %w", err))
		return
	}
	rec := segment.Record{Kind: segment.RecEdge, Epoch: e.Epoch, From: uint64(e.From), Label: e.Label, To: uint64(e.To)}
	if err := g.wal.Append(rec, g.syncEvery); err != nil {
		g.setWalErrLocked(fmt.Errorf("wal append edge: %w", err))
	}
}

func (g *DB) setWalErrLocked(err error) {
	g.walErrs++
	if g.walErr == nil {
		g.walErr = err
	}
}

// Checkpoint compacts the store and persists the result as a fresh
// segment file, then truncates the WAL — the durable form of
// compaction. It is cheap when nothing changed since the last
// checkpoint and returns ErrNotDurable on a memory-only store; any
// other failure is a *checkpointError and leaves the WAL replayable.
func (g *DB) Checkpoint() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dir == "" {
		return ErrNotDurable
	}
	g.compactLocked()
	return g.checkpointWriteLocked()
}

// checkpointWriteLocked persists the (already fully compacted) base as
// seg-<epoch>.seg and truncates the WAL. Callers hold g.mu and have
// called compactLocked.
func (g *DB) checkpointWriteLocked() error {
	ep := g.epoch.Load()
	if ep == g.lastCkpt {
		return nil // durable state already at this epoch
	}
	if err := faultinject.Inject(faultinject.CheckpointWrite); err != nil {
		g.ckErrs++
		return &checkpointError{Err: err}
	}
	d := &segment.Data{Epoch: ep, RecEdge: recEdge, RecRun: recRun}
	c := g.base
	n := len(g.names)
	nameOff := make([]int32, n+1)
	total := 0
	for v, name := range g.names {
		total += len(name)
		nameOff[v+1] = int32(total)
	}
	nameBytes := make([]byte, 0, total)
	for _, name := range g.names {
		nameBytes = append(nameBytes, name...)
	}
	d.Sections[segment.SecNodeOff] = recBytes(c.nodeOff)
	d.Sections[segment.SecRunOff] = recBytes(c.runOff)
	d.Sections[segment.SecRuns] = recBytes(c.runs)
	d.Sections[segment.SecEdges] = recBytes(c.Edges)
	d.Sections[segment.SecAlphabet] = recBytes(c.alphabet)
	d.Sections[segment.SecNameOff] = recBytes(nameOff)
	d.Sections[segment.SecNameBytes] = nameBytes
	path := filepath.Join(g.dir, fmt.Sprintf("%s%016x%s", segPrefix, ep, segSuffix))
	if err := segment.Write(path, d); err != nil {
		g.ckErrs++
		return &checkpointError{Err: err}
	}
	if g.wal != nil {
		if err := g.wal.Truncate(ep); err != nil {
			g.ckErrs++
			return &checkpointError{Err: err}
		}
	}
	g.ckCount++
	g.lastCkpt = ep
	// A clean checkpoint re-establishes durability after a sticky WAL
	// failure: everything acknowledged is now in the segment.
	g.walErr = nil
	g.pruneSegmentsLocked()
	return nil
}

// recBytes reinterprets a record slice as its memory image.
func recBytes[T any](recs []T) []byte {
	if len(recs) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(&recs[0])), len(recs)*int(unsafe.Sizeof(zero)))
}

// pruneSegmentsLocked removes all but the newest segKeep segment
// files. Unlinking a still-mapped file is safe: the mapping (and the
// page cache behind it) survives until munmap at Close.
func (g *DB) pruneSegmentsLocked() {
	paths := segmentPaths(g.dir)
	if len(paths) <= segKeep {
		return
	}
	for _, p := range paths[segKeep:] {
		os.Remove(p)
	}
}

// Bulk runs fn with per-record WAL logging suspended and ends with a
// single checkpoint — the bulk-ingest fast path: a million-edge load
// pays one segment write and one fsync instead of a WAL record per
// edge. The trade is crash atomicity of the batch: a crash before Bulk
// returns loses the entire un-checkpointed load (the WAL has no record
// of it), never a torn prefix. The checkpoint runs even when fn fails,
// because fn's partial writes are already committed in memory and must
// not be silently lost on the next crash.
func (g *DB) Bulk(fn func() error) error {
	g.mu.Lock()
	if g.dir == "" {
		g.mu.Unlock()
		return fn() // memory-only: Bulk is just fn
	}
	if g.bulk {
		g.mu.Unlock()
		return errors.New("graph: nested Bulk")
	}
	g.bulk = true
	g.mu.Unlock()
	err := fn()
	g.mu.Lock()
	g.bulk = false
	g.mu.Unlock()
	return errors.Join(err, g.Checkpoint())
}

// Durable reports whether the store was opened with OpenDir.
func (g *DB) Durable() bool { return g.dir != "" }

// DurableErr returns the sticky first durability failure (WAL append
// or auto-checkpoint), nil while every acknowledged write is safe. It
// clears on the next clean checkpoint.
func (g *DB) DurableErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.walErr
}

// Recovery returns what OpenDir found and replayed (zero value on a
// memory-only store).
func (g *DB) Recovery() RecoveryStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recovery
}

// DurableStats returns the durability introspection snapshot.
func (g *DB) DurableStats() DurableStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := DurableStats{
		Dir:            g.dir,
		SyncEveryWrite: g.syncEvery,
		Epoch:          g.epoch.Load(),
		LastCheckpoint: g.lastCkpt,
		Checkpoints:    g.ckCount,
		CheckpointErrs: g.ckErrs,
		WALErrs:        g.walErrs,
		Recovery:       g.recovery,
	}
	if g.wal != nil {
		st.WALBytes = g.wal.Size()
	}
	if g.walErr != nil {
		st.Err = g.walErr.Error()
	}
	return st
}

// Close releases the WAL and every segment mapping. The store — and
// every Snapshot, Clone or slice obtained from it — must not be used
// afterwards: base CSR arrays and interned names may alias the
// mappings being released. Close does not checkpoint; callers wanting
// a clean shutdown call Checkpoint first (as the daemon's drain path
// does).
func (g *DB) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var errs []error
	if g.wal != nil {
		errs = append(errs, g.wal.Sync(), g.wal.Close())
		g.wal = nil
	}
	errs = append(errs, g.closeMappings())
	return errors.Join(errs...)
}

func (g *DB) closeMappings() error {
	var errs []error
	for _, f := range g.segs {
		errs = append(errs, f.Close())
	}
	g.segs = nil
	return errors.Join(errs...)
}
