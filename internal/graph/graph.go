// Package graph implements Σ-labeled graph databases — the data model of
// the ECRPQ paper (Section 2): a finite set of nodes V and a set of
// directed edges E ⊆ V × Σ × V. It provides the epoch-versioned store
// (each edge held once, in a compacted CSR base or the delta log of the
// writes since), immutable snapshots of it, paths and their labels λ(ρ),
// and a small text format for the command-line tools. The ⊥-loop
// extension G⊥ and the convolution powers Gᵐ of Section 5 are never
// built: the evaluator walks them on the fly over a snapshot.
package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph/segment"
)

// Node identifies a node of a DB; nodes are dense integers.
type Node int

// DB is a Σ-labeled graph database. Use NewDB. Node names are optional
// (auto-generated when absent) and are unique.
//
// Every edge is held in exactly one place: the immutable base CSR of
// the last compaction (which may be a read-only file mapping, see
// durable.go) or the delta log of the writes since. Readers and the
// duplicate check consult those two and nothing else.
//
// Concurrency: the store is epoch-versioned. Mutations (AddNode,
// AddEdge) serialize on an internal write mutex and advance a monotonic
// epoch; Snapshot returns an immutable epoch-stamped view that is safe
// to read from any number of goroutines concurrently with writers.
// NodeByName, HasEdge, Successors and EachEdge are safe alongside
// writers too; EachEdge visits the edges as of one moment between
// writes, without building a snapshot. The serving path for mixed
// read/write traffic is Snapshot.
type DB struct {
	// id is the process-unique store identity (see ID); snapshots are
	// stamped with it so downstream caches can key on (store, epoch)
	// without pinning the snapshot or the DB.
	id uint64
	// mu serializes mutations and the snapshot slow path.
	mu     sync.Mutex
	names  []string
	byName map[string]Node
	nEdges int

	// epoch counts successful mutations; it stamps snapshots and keys
	// downstream memos (an unchanged epoch means an unchanged graph).
	epoch atomic.Uint64
	// snap caches the current epoch's snapshot behind an atomic pointer
	// so concurrent readers share one snapshot without locking.
	snap atomic.Pointer[Snapshot]

	// base is the full CSR of the last compaction, covering baseN
	// nodes. The edges written since live in two pieces: deltaSorted is
	// the CSR-ordered prefix as of the last published snapshot (shared,
	// immutable once published — fresh merges allocate a new array),
	// and deltaNew holds the appends since. Writes are O(1) appends,
	// and a post-write snapshot merges the small unsorted suffix into
	// the sorted prefix — O(Δ) with a tiny sort, not a full rebuild and
	// not even an O(Δ log Δ) re-sort of the whole delta (see Snapshot).
	base        *csr
	baseN       int
	deltaSorted []rawEdge
	deltaNew    []rawEdge
	// deltaSet indexes the delta log (deltaSorted ∪ deltaNew) for the
	// duplicate check of edges the base does not hold. Compaction drops
	// it; nil means an empty delta.
	deltaSet map[edgeKey]struct{}

	// hist is the epoch-ordered edge write log: every fresh AddEdge
	// appends its stamped entry here, and unlike the delta overlay it is
	// NOT cleared by compaction — it is what Snapshot.EdgesSince answers
	// from. Only a bounded tail is retained (histKeep entries); histFloor
	// is the newest trimmed-away epoch, below which EdgesSince refuses.
	// Published snapshots share the backing array: entries are immutable
	// once written, appends land past every published length, and trims
	// move the tail to a fresh array.
	hist      []DeltaEdge
	histFloor uint64

	// Durability (see durable.go; all zero for a memory-only store).
	// dir is the store directory; wal the open write-ahead log; seg the
	// file mapping backing the base CSR, kept alive until Close. bulk
	// suspends per-record WAL appends during bulk ingest (the load is
	// made durable by the checkpoint that ends it). walErr is the sticky
	// first durability failure — mutations keep committing in memory,
	// but the store is crash-vulnerable until the next clean checkpoint.
	dir       string
	wal       *segment.WAL
	segs      []*segment.File
	bulk      bool
	walErr    error
	walErrs   uint64
	recovery  RecoveryStats
	ckCount   uint64
	ckErrs    uint64
	lastCkpt  uint64
	syncEvery bool
}

// histKeep bounds the retained delta-history tail. Trimming is
// amortized: the log grows to 2×histKeep, then the newest histKeep
// entries move to a fresh array, so steady writes pay O(1) amortized
// instead of a copy per write.
const histKeep = 4096

// Edge is one labeled out-edge of a node: an entry of csr.Edges, of a
// snapshot's delta overlay, or of the slices WithLabel and EdgeRange
// return. The source node is the one whose range holds it.
type Edge struct {
	Label rune
	To    Node
}

// edgeKey is an edge as a map key, for the delta log's duplicate check.
type edgeKey struct {
	from  Node
	label rune
	to    Node
}

// dbIDs issues process-unique store identities; 0 is never issued, so
// a zero id always means "no store".
var dbIDs atomic.Uint64

// NewDB returns an empty graph database.
func NewDB() *DB {
	return &DB{id: dbIDs.Add(1), byName: make(map[string]Node)}
}

// ID returns the process-unique identity of the store. Together with
// the epoch it names one immutable graph state: two snapshots with
// equal (ID, Epoch) pairs have identical content, and a snapshot whose
// epoch is behind the store's latest is dead for serving purposes —
// the hook the epoch-keyed result cache keys and invalidates on.
func (g *DB) ID() uint64 { return g.id }

// AddNode adds a node with the given name and returns it. If the name is
// already present the existing node is returned. An empty name generates
// "n<k>".
func (g *DB) AddNode(name string) Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addNodeLocked(name)
}

func (g *DB) addNodeLocked(name string) Node {
	if name == "" {
		name = fmt.Sprintf("n%d", len(g.names))
	}
	if v, ok := g.byName[name]; ok {
		return v
	}
	v := Node(len(g.names))
	g.names = append(g.names, name)
	g.byName[name] = v
	ep := g.epoch.Add(1)
	g.walAppendNode(ep, name)
	return v
}

// AddNodes adds k anonymous nodes and returns the first.
func (g *DB) AddNodes(k int) Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	first := Node(len(g.names))
	for i := 0; i < k; i++ {
		g.addNodeLocked("")
	}
	return first
}

// Epoch returns the current mutation epoch: zero for a fresh database,
// advanced by every successful AddNode/AddEdge. Snapshots are stamped
// with the epoch they were taken at.
func (g *DB) Epoch() uint64 { return g.epoch.Load() }

// NodeByName returns the node with the given name. It reads the name
// index under the store's lock, so a serving layer may resolve names
// while writes are in flight.
func (g *DB) NodeByName(name string) (Node, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.byName[name]
	return v, ok
}

// Name returns the name of v.
func (g *DB) Name(v Node) string { return g.names[v] }

// NumNodes returns |V|.
func (g *DB) NumNodes() int { return len(g.names) }

// NumEdges returns |E|.
func (g *DB) NumEdges() int { return g.nEdges }

// AddEdge adds the labeled edge (from, label, to). Duplicate edges are
// ignored (and do not advance the epoch); the duplicate check is a
// binary search of the compacted base CSR plus one lookup in the delta
// log's set. A fresh edge is appended to the delta log (and, on a
// durable store, to the write-ahead log) so the next Snapshot pays only
// for the delta overlay instead of a full CSR rebuild.
func (g *DB) AddEdge(from Node, label rune, to Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.hasEdgeLocked(from, label, to) {
		return
	}
	if g.deltaSet == nil {
		g.deltaSet = make(map[edgeKey]struct{})
	}
	g.deltaSet[edgeKey{from, label, to}] = struct{}{}
	g.nEdges++
	e := rawEdge{From: from, Label: label, To: to, Epoch: g.epoch.Add(1)}
	g.walAppendEdge(e)
	g.deltaNew = append(g.deltaNew, e)
	g.hist = append(g.hist, e)
	if len(g.hist) >= 2*histKeep {
		g.histFloor = g.hist[len(g.hist)-histKeep-1].Epoch
		tail := make([]DeltaEdge, histKeep, 2*histKeep)
		copy(tail, g.hist[len(g.hist)-histKeep:])
		g.hist = tail
	}
}

// hasEdgeLocked reports whether the store holds (from, label, to): a
// binary search over from's label run in the base, then one delta-set
// lookup. Callers hold g.mu (the base pointer swaps at compaction).
func (g *DB) hasEdgeLocked(from Node, label rune, to Node) bool {
	if g.base != nil && int(from) < g.baseN {
		es := g.base.WithLabel(from, label)
		i := sort.Search(len(es), func(i int) bool { return es[i].To >= to })
		if i < len(es) && es[i].To == to {
			return true
		}
	}
	_, ok := g.deltaSet[edgeKey{from, label, to}]
	return ok
}

// HasEdge reports whether (from, label, to) ∈ E.
func (g *DB) HasEdge(from Node, label rune, to Node) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hasEdgeLocked(from, label, to)
}

// Successors returns the targets of label-edges leaving from, sorted.
// The result is routed through the current snapshot and copied, so the
// caller can neither mutate the store nor race with writers through it.
func (g *DB) Successors(from Node, label rune) []Node {
	edges := g.Snapshot().WithLabel(from, label)
	if len(edges) == 0 {
		return nil
	}
	out := make([]Node, len(edges))
	for i, e := range edges {
		out[i] = e.To
	}
	return out
}

// EachEdge calls f once for every edge, in a deterministic order: the
// base CSR in CSR order (source, label, target), then the delta log —
// its sorted prefix, then the writes since the last snapshot in write
// order. It reads the edges as of its call: the base and the sorted
// prefix are immutable once built, and the writes since, which Snapshot
// sorts in place, are copied under the write lock. f runs after the
// lock is released, so it may call back into g, writes included.
func (g *DB) EachEdge(f func(from Node, label rune, to Node)) {
	g.mu.Lock()
	base, baseN, sorted := g.base, g.baseN, g.deltaSorted
	fresh := slices.Clone(g.deltaNew)
	g.mu.Unlock()
	if base != nil {
		for v := 0; v < baseN; v++ {
			for _, e := range base.out(Node(v)) {
				f(Node(v), e.Label, e.To)
			}
		}
	}
	for _, d := range [2][]rawEdge{sorted, fresh} {
		for _, e := range d {
			f(e.From, e.Label, e.To)
		}
	}
}

// Alphabet returns the edge labels used in the database, sorted. The
// result is cached in the CSR snapshot (see Snapshot) instead of
// rescanning every edge map per call; callers must not modify it.
func (g *DB) Alphabet() []rune { return g.Snapshot().Alphabet() }

// Clone returns a deep copy of the database. Instead of replaying
// AddEdge m times, the delta log and its set are copied directly and
// the immutable base CSR, sorted delta prefix and current snapshot are
// shared — the clone starts at the source's epoch with the same
// compaction state. A clone of a durable store is memory-only (no
// directory, no WAL) and borrows the source's base segment: if that
// base is a file mapping, the clone must not outlive the source's
// Close.
func (g *DB) Clone() *DB {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := &DB{
		id:          dbIDs.Add(1),
		names:       append([]string(nil), g.names...),
		byName:      maps.Clone(g.byName),
		nEdges:      g.nEdges,
		base:        g.base,        // immutable once built; safe to share
		deltaSorted: g.deltaSorted, // immutable once published; safe to share
		baseN:       g.baseN,
		deltaNew:    append([]rawEdge(nil), g.deltaNew...),
		deltaSet:    maps.Clone(g.deltaSet),
		// The history tail is copied, not shared: both stores keep
		// appending at the same index otherwise.
		hist:      append([]DeltaEdge(nil), g.hist...),
		histFloor: g.histFloor,
	}
	h.epoch.Store(g.epoch.Load())
	if s := g.snap.Load(); s != nil && s.epoch == h.epoch.Load() {
		// Snapshots are immutable; the clone reuses it. It keeps the
		// source's (id, epoch) stamp, which still names exactly this
		// content — epochs are monotonic per store — so result-cache
		// entries reached through it stay correct even after the clone
		// and the source diverge (the clone's own post-write snapshots
		// carry the clone's fresh id).
		h.snap.Store(s)
	}
	return h
}
