// Package graph implements Σ-labeled graph databases — the data model of
// the ECRPQ paper (Section 2): a finite set of nodes V and a set of
// directed edges E ⊆ V × Σ × V. It provides paths and their labels λ(ρ),
// the automaton view of a graph database, the ⊥-loop extension G⊥ and the
// product construction G₁⊗G₂ used to build the convolution powers Gᵐ of
// Section 5, and a small text format for the command-line tools.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph/segment"
	"repro/internal/regex"
)

// Node identifies a node of a DB; nodes are dense integers.
type Node int

// DB is a Σ-labeled graph database. The zero value is an empty database;
// use NewDB. Node names are optional (auto-generated when absent) and are
// unique.
//
// Concurrency: the store is epoch-versioned. Mutations (AddNode,
// AddEdge) serialize on an internal write mutex and advance a monotonic
// epoch; Snapshot returns an immutable epoch-stamped view that is safe
// to read from any number of goroutines concurrently with writers.
// Direct readers of the live DB (HasEdge, EachEdge, Successors, …) see
// the latest writes but must not run concurrently with them — the
// serving path for mixed read/write traffic is Snapshot.
type DB struct {
	// id is the process-unique store identity (see ID); snapshots are
	// stamped with it so downstream caches can key on (store, epoch)
	// without pinning the snapshot or the DB.
	id uint64
	// mu serializes mutations and the snapshot slow path.
	mu     sync.Mutex
	names  []string
	byName map[string]Node
	// out holds ONLY the edges written since the last compaction — the
	// delta segment's mutable index. Edges older than that live solely
	// in the base CSR (which may be a read-only file mapping, see
	// durable.go); readers and the duplicate check consult both. Keeping
	// the maps delta-only is what lets a segment-backed store open
	// without materializing per-node maps for millions of base edges.
	out    []map[rune][]Node
	nEdges int
	// dedup holds per-(node,label) membership sets for delta targets,
	// built lazily once a (node,label) fan-out crosses dedupThreshold so
	// bulk loads stay near-linear instead of paying an O(deg) scan per
	// insert. Like out, it covers the delta only.
	dedup []map[rune]map[Node]bool

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
	base        *CSR
	baseN       int
	deltaSorted []rawEdge
	deltaNew    []rawEdge

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

// dedupThreshold is the (node,label) fan-out beyond which AddEdge and
// HasEdge switch from a linear scan to a membership set.
const dedupThreshold = 8

// Edge is one labeled out-edge of a node, as stored in the adjacency
// slices returned by Adjacency.
type Edge struct {
	Label rune
	To    Node
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
	g.out = append(g.out, nil)
	g.dedup = append(g.dedup, nil)
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
// index without synchronization and is only safe when no writer is
// active; concurrent servers use LookupNode.
func (g *DB) NodeByName(name string) (Node, bool) {
	v, ok := g.byName[name]
	return v, ok
}

// LookupNode is NodeByName under the store's lock — the form a serving
// layer must use to resolve names while writes may be in flight.
func (g *DB) LookupNode(name string) (Node, bool) {
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
// ignored (and do not advance the epoch); the duplicate check consults
// the compacted base CSR by binary search and, beyond dedupThreshold
// parallel delta targets, a membership set, keeping bulk loads
// near-linear. A fresh edge is appended to the delta log (and, on a
// durable store, to the write-ahead log) so the next Snapshot pays only
// for the delta overlay instead of a full CSR rebuild.
func (g *DB) AddEdge(from Node, label rune, to Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.baseHasEdgeLocked(from, label, to) {
		return
	}
	if g.out[from] == nil {
		g.out[from] = make(map[rune][]Node)
	}
	tos := g.out[from][label]
	if set := g.dedup[from][label]; set != nil {
		if set[to] {
			return
		}
		set[to] = true
	} else {
		for _, t := range tos {
			if t == to {
				return
			}
		}
		if len(tos)+1 > dedupThreshold {
			set = make(map[Node]bool, 2*len(tos))
			for _, t := range tos {
				set[t] = true
			}
			set[to] = true
			if g.dedup[from] == nil {
				g.dedup[from] = make(map[rune]map[Node]bool)
			}
			g.dedup[from][label] = set
		}
	}
	g.out[from][label] = append(tos, to)
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

// baseHasEdgeLocked reports whether the compacted base segment holds
// (from, label, to): a binary search over from's label run. Callers
// hold g.mu (the base pointer swaps at compaction).
func (g *DB) baseHasEdgeLocked(from Node, label rune, to Node) bool {
	if g.base == nil || int(from) >= g.baseN {
		return false
	}
	es := g.base.WithLabel(from, label)
	i := sort.Search(len(es), func(i int) bool { return es[i].To >= to })
	return i < len(es) && es[i].To == to
}

// HasEdge reports whether (from, label, to) ∈ E, consulting the base
// segment and the delta maps.
func (g *DB) HasEdge(from Node, label rune, to Node) bool {
	if g.baseHasEdgeLocked(from, label, to) {
		return true
	}
	if set := g.dedup[from][label]; set != nil {
		return set[to]
	}
	for _, t := range g.out[from][label] {
		if t == to {
			return true
		}
	}
	return false
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

// EachEdge calls f for every edge: for each node the base-segment edges
// first (label/target order), then the delta edges in map order.
func (g *DB) EachEdge(f func(from Node, label rune, to Node)) {
	for v := range g.out {
		g.EdgesFrom(Node(v), func(a rune, to Node) { f(Node(v), a, to) })
	}
}

// EdgesFrom calls f for every edge leaving v, base segment first.
func (g *DB) EdgesFrom(v Node, f func(label rune, to Node)) {
	if g.base != nil && int(v) < g.baseN {
		for _, e := range g.base.Out(v) {
			f(e.Label, e.To)
		}
	}
	for a, tos := range g.out[v] {
		for _, to := range tos {
			f(a, to)
		}
	}
}

// Alphabet returns the edge labels used in the database, sorted. The
// result is cached in the CSR snapshot (see Snapshot) instead of
// rescanning every edge map per call; callers must not modify it.
func (g *DB) Alphabet() []rune { return g.Snapshot().Alphabet() }

// Clone returns a deep copy of the database. Instead of replaying
// AddEdge m times through the dedup machinery, the delta adjacency and
// dedup structures are copied directly and the immutable base CSR,
// delta log and current snapshot are shared/carried over — the clone
// starts at the source's epoch with the same compaction state. A clone
// of a durable store is memory-only (no directory, no WAL) and borrows
// the source's base segment: if that base is a file mapping, the clone
// must not outlive the source's Close.
func (g *DB) Clone() *DB {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := &DB{
		id:          dbIDs.Add(1),
		names:       append([]string(nil), g.names...),
		byName:      make(map[string]Node, len(g.byName)),
		out:         make([]map[rune][]Node, len(g.out)),
		dedup:       make([]map[rune]map[Node]bool, len(g.dedup)),
		nEdges:      g.nEdges,
		base:        g.base,        // immutable once built; safe to share
		deltaSorted: g.deltaSorted, // immutable once published; safe to share
		baseN:       g.baseN,
		deltaNew:    append([]rawEdge(nil), g.deltaNew...),
		// The history tail is copied, not shared: both stores keep
		// appending at the same index otherwise.
		hist:      append([]DeltaEdge(nil), g.hist...),
		histFloor: g.histFloor,
	}
	for name, v := range g.byName {
		h.byName[name] = v
	}
	for v, m := range g.out {
		if m == nil {
			continue
		}
		cp := make(map[rune][]Node, len(m))
		for a, tos := range m {
			cp[a] = append([]Node(nil), tos...)
		}
		h.out[v] = cp
	}
	for v, m := range g.dedup {
		if m == nil {
			continue
		}
		cp := make(map[rune]map[Node]bool, len(m))
		for a, set := range m {
			cs := make(map[Node]bool, len(set))
			for t := range set {
				cs[t] = true
			}
			cp[a] = cs
		}
		h.dedup[v] = cp
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

// WithBotLoops returns the Σ⊥-labeled database G⊥ of Section 5: a copy
// of g with a ⊥-labeled self-loop added to every node. The loops are
// recorded as a delta overlay on the parent's compaction state, so
// building G⊥ shares the parent's base CSR instead of rebuilding it.
func (g *DB) WithBotLoops() *DB {
	h := g.Clone()
	for v := 0; v < h.NumNodes(); v++ {
		h.AddEdge(Node(v), regex.Bot, Node(v))
	}
	return h
}

// Product returns the graph database g⊗h over the product alphabet
// (Section 5): nodes are pairs (encoded as v*h.NumNodes()+w), and there is
// an edge ((v,w), a·b, (v',w')) iff (v,a,v') ∈ g and (w,b,w') ∈ h. Labels
// of g and h must be single runes; the product's labels are the
// concatenated strings, so the result is exposed as a TupleDB.
func Product(g, h *DB) *TupleDB {
	tg := g.asTuple()
	return tg.Product(h)
}

// PairNode encodes the product node (v, w) of g⊗h given h's size.
func PairNode(v, w Node, hSize int) Node { return v*Node(hSize) + w }

// TupleDB is a graph database whose edge labels are m-tuples of runes
// (strings of fixed length m over Σ⊥); it represents the convolution
// powers Gᵐ of Section 5.
type TupleDB struct {
	M     int // tuple width
	Size  int // number of nodes
	out   []map[string][]Node
	nEdge int
}

// asTuple views a rune-labeled database as a 1-tuple database.
func (g *DB) asTuple() *TupleDB {
	t := &TupleDB{M: 1, Size: g.NumNodes(), out: make([]map[string][]Node, g.NumNodes())}
	g.EachEdge(func(from Node, a rune, to Node) { t.addEdge(from, string(a), to) })
	return t
}

func (t *TupleDB) addEdge(from Node, label string, to Node) {
	if t.out[from] == nil {
		t.out[from] = make(map[string][]Node)
	}
	t.out[from][label] = append(t.out[from][label], to)
	t.nEdge++
}

// NumEdges returns the number of edges.
func (t *TupleDB) NumEdges() int { return t.nEdge }

// Successors returns successor nodes by tuple label.
func (t *TupleDB) Successors(from Node, label string) []Node { return t.out[from][label] }

// EachEdge calls f for every edge.
func (t *TupleDB) EachEdge(f func(from Node, label string, to Node)) {
	for v := range t.out {
		for a, tos := range t.out[v] {
			for _, to := range tos {
				f(Node(v), a, to)
			}
		}
	}
}

// EdgesFrom calls f for every edge leaving v.
func (t *TupleDB) EdgesFrom(v Node, f func(label string, to Node)) {
	for a, tos := range t.out[v] {
		for _, to := range tos {
			f(a, to)
		}
	}
}

// Product returns t⊗h where h is rune-labeled: labels are extended by one
// component, nodes are pairs encoded as v*h.NumNodes()+w.
func (t *TupleDB) Product(h *DB) *TupleDB {
	out := &TupleDB{M: t.M + 1, Size: t.Size * h.NumNodes(), out: make([]map[string][]Node, t.Size*h.NumNodes())}
	hn := h.NumNodes()
	t.EachEdge(func(f1 Node, a string, t1 Node) {
		h.EachEdge(func(f2 Node, b rune, t2 Node) {
			out.addEdge(f1*Node(hn)+f2, a+string(b), t1*Node(hn)+t2)
		})
	})
	return out
}

// Power returns the m'th convolution power Gᵐ of Section 5:
// G¹ = G⊥ and Gᵐ⁺¹ = G⊥ ⊗ Gᵐ (all components carry ⊥-loops). Node
// (v₁,...,vₘ) is encoded in big-endian base NumNodes: v₁ is the most
// significant digit.
func Power(g *DB, m int) *TupleDB {
	gb := g.WithBotLoops()
	res := gb.asTuple()
	for i := 1; i < m; i++ {
		res = res.Product(gb)
	}
	return res
}

// DecodeTupleNode decodes a TupleDB node of a Power(g, m) database into
// its m component nodes of g.
func DecodeTupleNode(v Node, m, gSize int) []Node {
	out := make([]Node, m)
	for i := m - 1; i >= 0; i-- {
		out[i] = v % Node(gSize)
		v /= Node(gSize)
	}
	return out
}

// EncodeTupleNode is the inverse of DecodeTupleNode.
func EncodeTupleNode(vs []Node, gSize int) Node {
	var v Node
	for _, x := range vs {
		v = v*Node(gSize) + x
	}
	return v
}
