// Package faultinject is a deterministic fault-injection harness for
// the serving stack. Engine packages declare named fault points at the
// places where real deployments hurt — snapshot construction, the inner
// product-BFS loop, the result-cache leader path, the compaction policy
// — and a test harness installs a hook that decides, per hit, whether
// to delay, fail, or pass.
//
// The disabled fast path is one atomic pointer load per hit, so the
// points are free in production builds; nothing about injection is
// randomized — hooks see a monotonically increasing per-point hit
// counter and decide from it, so a faulted run is exactly reproducible.
//
// The package is test infrastructure, but it lives in the main module
// (not in a _test file) because the call sites are production code.
package faultinject

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrForced is the conventional error for hooks driving boolean policy
// points (Forced): any non-nil error forces the slow path, this one
// documents the intent.
var ErrForced = errors.New("faultinject: forced")

// Point names one fault-injection site.
type Point uint8

const (
	// SnapshotBuild fires in DB.Snapshot's slow path, before a fresh
	// snapshot (delta merge or compaction) is built. A hook that sleeps
	// here models slow snapshot reads (cold storage, page faults).
	SnapshotBuild Point = iota
	// CompactionPolicy fires when the store consults its compaction
	// threshold. A hook that returns non-nil forces compaction on every
	// snapshot — a compaction storm.
	CompactionPolicy
	// BFSStep fires periodically inside the product BFS state loop
	// (same cadence as the cancellation check). A hook returning an
	// error aborts the evaluation with it — mid-BFS cancellation — and
	// a hook that panics models a crashing evaluation.
	BFSStep
	// CacheLeader fires in the result cache after a leader's compute
	// succeeds, before the value is admitted and handed to waiters. A
	// hook returning an error turns a successful leader into a failed
	// one — the cache-leader failure class.
	CacheLeader
	// DeltaBFS fires when Program.Advance commits to the delta pass,
	// after the free-revalidation checks. A hook returning
	// an error aborts the incremental attempt — the caller falls back to
	// full evaluation with an identical answer set — and a hook that
	// panics models a crash inside the delta machinery.
	DeltaBFS
	// WALAppend fires in the durable store before a write-ahead-log
	// record is appended. A hook returning an error models a failing log
	// device: the mutation still commits in memory, but the store's
	// sticky durability error trips (DurableErr) and the write is not
	// crash-safe until the next clean checkpoint.
	WALAppend
	// CheckpointWrite fires at the start of segment checkpointing,
	// before the temp file is created. A hook returning an error models
	// a full or failing disk: the checkpoint is abandoned, the WAL is
	// left untouched (still replayable), and the error surfaces as the
	// typed checkpoint failure.
	CheckpointWrite
	// SegmentMap fires in OpenDir once per candidate segment file,
	// before it is opened and mapped. A hook returning an error makes
	// recovery treat that segment as corrupt and fall back to the next
	// newer-to-older candidate (or to a WAL-only bootstrap).
	SegmentMap
	numPoints
)

// String names the point for error messages and logs.
func (p Point) String() string {
	switch p {
	case SnapshotBuild:
		return "graph.snapshot-build"
	case CompactionPolicy:
		return "graph.compaction-policy"
	case BFSStep:
		return "ecrpq.bfs-step"
	case CacheLeader:
		return "qcache.leader"
	case DeltaBFS:
		return "ecrpq.delta-bfs"
	case WALAppend:
		return "graph.wal-append"
	case CheckpointWrite:
		return "graph.checkpoint-write"
	case SegmentMap:
		return "graph.segment-map"
	}
	return "unknown"
}

// Hook inspects one hit of a fault point and returns the error to
// inject (nil = proceed normally). n is the 1-based hit count of this
// point since the hook was installed, so deterministic schedules
// ("fail the 3rd leader", "delay every snapshot") need no state of
// their own. Hooks may sleep (delay faults) or panic (crash faults).
type Hook func(p Point, n uint64) error

// active is the installed hook; nil when injection is disabled.
var active atomic.Pointer[hookState]

type hookState struct {
	fn   Hook
	hits [numPoints]atomic.Uint64
}

// installMu serializes Set/Clear so concurrent test harnesses cannot
// interleave half-installed configurations.
var installMu sync.Mutex

// Set installs hook process-wide and resets the per-point hit
// counters. Tests must Clear (typically via t.Cleanup) when done;
// parallel tests must not both Set.
func Set(hook Hook) {
	installMu.Lock()
	defer installMu.Unlock()
	active.Store(&hookState{fn: hook})
}

// Clear removes the installed hook, disabling injection.
func Clear() {
	installMu.Lock()
	defer installMu.Unlock()
	active.Store(nil)
}

// Inject fires the point: with no hook installed it is a single atomic
// load returning nil; with a hook it returns whatever the hook decides
// for this hit.
func Inject(p Point) error {
	st := active.Load()
	if st == nil {
		return nil
	}
	return st.fn(p, st.hits[p].Add(1))
}

// Forced reports whether the point fired with an injected error —
// the boolean form used by policy sites (CompactionPolicy), where the
// injected "error" means "force the slow path" rather than "fail".
func Forced(p Point) bool { return Inject(p) != nil }

// Hits returns how many times p fired since the current hook was
// installed (0 with no hook) — introspection for harness assertions.
func Hits(p Point) uint64 {
	st := active.Load()
	if st == nil {
		return 0
	}
	return st.hits[p].Load()
}
