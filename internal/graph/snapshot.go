package graph

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/faultinject"
)

// Snapshot is an epoch-stamped immutable view of a DB: the last
// compacted full CSR plus a sorted delta overlay of the edges written
// since. Any number of readers may share a Snapshot concurrently with
// writers mutating the DB — a pinned Snapshot never changes, so an
// evaluation running against it is fully isolated from AddEdge/AddNode
// traffic. Obtain one from DB.Snapshot.
//
// The two-segment layout is what makes mixed read/write traffic cheap:
// a write appends to the DB's delta log, and the next Snapshot merges
// the few new writes into the already-sorted delta and indexes only
// the nodes the delta touches — O(Δ) plus one pass over an n/64-word
// source bitset — instead of rebuilding the full CSR (O(m log m)).
// Edge offsets are virtual — runs of the delta overlay are shifted
// past the base edge array — so a LabelRun from BaseRuns or DeltaRuns
// always resolves through EdgeRange, which picks the right segment.
type Snapshot struct {
	source uint64
	epoch  uint64
	n      int
	names  []string
	nEdges int

	base    *CSR  // full CSR at the last compaction
	baseN   int   // nodes covered by base
	baseLen int32 // len(base.Edges); delta offsets are shifted past it

	// Delta overlay: the edges written since the last compaction, in
	// CSR order (grouped by source, label-then-target within a node).
	// Only the m nodes with delta edges have index entries: bit v of
	// dSrc marks them, and v's entry is its rank among them, dRank (the
	// marked nodes before each word) plus a popcount within the word.
	// All slices are nil when the snapshot is fully compacted.
	dEdges   []Edge
	dSrc     []uint64   // per node: one bit, set when it has delta edges (n/64 words)
	dRank    []int32    // per dSrc word: the set bits in the words before it
	dNodeOff []int32    // per source node, in rank order: range of its delta edges (len m+1)
	dRuns    []LabelRun // Start/End are virtual (shifted by baseLen)
	dRunOff  []int32    // per source node, in rank order: range of its runs in dRuns (len m+1)

	alphabet []rune

	// Delta history: the retained tail of the store's epoch-ordered edge
	// write log (independent of the CSR-ordered overlay above, and NOT
	// cleared by compaction). EdgesSince answers from it for any epoch at
	// or above histFloor; older epochs have been trimmed away.
	hist      []DeltaEdge
	histFloor uint64
}

// Snapshotter is what every evaluation entry point takes: the one
// snapshot a question is answered on. A *DB yields its current
// snapshot; a pinned *Snapshot yields itself.
type Snapshotter interface {
	Snapshot() *Snapshot
}

// Snapshot returns s itself: a pinned snapshot is its own Snapshotter.
func (s *Snapshot) Snapshot() *Snapshot { return s }

// DeltaEdge is one epoch-stamped delta-log entry: an edge appended by
// AddEdge (already deduplicated), carrying the epoch its write advanced
// the store to. Snapshot.EdgesSince reports these, which is what lets
// incremental re-evaluation see exactly the writes between two epochs.
type DeltaEdge struct {
	From  Node
	Label rune
	To    Node
	Epoch uint64
}

// rawEdge is the delta log's internal name for its entries.
type rawEdge = DeltaEdge

// rawEdgeLess orders delta edges in CSR order: source, label, target.
func rawEdgeLess(a, b rawEdge) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	if a.Label != b.Label {
		return a.Label < b.Label
	}
	return a.To < b.To
}

// mergeDelta merges the freshly sorted suffix add into the sorted
// prefix into a new array (the prefix may be shared with published
// snapshots and is never mutated).
func mergeDelta(sorted, add []rawEdge) []rawEdge {
	out := make([]rawEdge, 0, len(sorted)+len(add))
	i, j := 0, 0
	for i < len(sorted) && j < len(add) {
		if rawEdgeLess(add[j], sorted[i]) {
			out = append(out, add[j])
			j++
		} else {
			out = append(out, sorted[i])
			i++
		}
	}
	out = append(out, sorted[i:]...)
	return append(out, add[j:]...)
}

// newSnapshot assembles the snapshot of a DB state: base CSR covering
// baseN nodes plus the delta overlay (already in CSR order), under n
// total nodes. sorted is owned by the snapshot store and immutable.
func newSnapshot(source, epoch uint64, names []string, base *CSR, baseN int, sorted []rawEdge, nEdges int, hist []DeltaEdge, histFloor uint64) *Snapshot {
	s := &Snapshot{
		source:    source,
		epoch:     epoch,
		n:         len(names),
		names:     names,
		nEdges:    nEdges,
		base:      base,
		baseN:     baseN,
		baseLen:   int32(len(base.Edges)),
		hist:      hist,
		histFloor: histFloor,
	}
	if len(sorted) == 0 {
		s.alphabet = base.alphabet
		return s
	}
	// Two passes over the sorted log: the first counts the source nodes
	// and label runs, so the second fills exactly sized arrays with the
	// edges, the runs and a node entry (with its source bit) at each
	// change of source.
	m, runs := 0, 0
	for i, e := range sorted {
		newNode := i == 0 || e.From != sorted[i-1].From
		if newNode {
			m++
		}
		if newNode || e.Label != sorted[i-1].Label {
			runs++
		}
	}
	s.dEdges = make([]Edge, len(sorted))
	s.dSrc = make([]uint64, (s.n+63)/64)
	s.dNodeOff = make([]int32, 0, m+1)
	s.dRunOff = make([]int32, 0, m+1)
	s.dRuns = make([]LabelRun, 0, runs)
	var extra []rune // delta labels the base alphabet lacks, once per run
	for i, e := range sorted {
		s.dEdges[i] = Edge{Label: e.Label, To: e.To}
		newNode := i == 0 || e.From != sorted[i-1].From
		if newNode {
			s.dSrc[e.From>>6] |= 1 << (uint(e.From) & 63)
			s.dNodeOff = append(s.dNodeOff, int32(i))
			s.dRunOff = append(s.dRunOff, int32(len(s.dRuns)))
		}
		if newNode || e.Label != sorted[i-1].Label {
			s.dRuns = append(s.dRuns, LabelRun{Label: e.Label, Start: s.baseLen + int32(i)})
			if !runeIn(base.alphabet, e.Label) {
				extra = append(extra, e.Label)
			}
		}
		s.dRuns[len(s.dRuns)-1].End = s.baseLen + int32(i) + 1
	}
	s.dNodeOff = append(s.dNodeOff, int32(len(sorted)))
	s.dRunOff = append(s.dRunOff, int32(len(s.dRuns)))
	s.dRank = make([]int32, len(s.dSrc))
	rank := 0
	for w, word := range s.dSrc {
		s.dRank[w] = int32(rank)
		rank += bits.OnesCount64(word)
	}
	// Alphabet: sorted union of the base alphabet and the delta labels.
	s.alphabet = base.alphabet
	if len(extra) > 0 {
		merged := append(append(make([]rune, 0, len(base.alphabet)+len(extra)), base.alphabet...), extra...)
		slices.Sort(merged)
		s.alphabet = slices.Compact(merged)
	}
	return s
}

// runeIn reports whether a is in the sorted rune slice rs.
func runeIn(rs []rune, a rune) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i] >= a })
	return i < len(rs) && rs[i] == a
}

// Epoch returns the DB epoch the snapshot was taken at. Epochs are
// monotonic per DB: every successful mutation advances the epoch, so
// two snapshots of one DB are identical iff their epochs agree (and
// downstream memos may key on the epoch, or on snapshot pointer
// identity — DB.Snapshot returns the same pointer for an unchanged
// epoch).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Source returns the ID of the store the snapshot was taken from (see
// DB.ID). The (Source, Epoch) pair names this exact graph content
// process-wide: it is the identity the epoch-keyed result cache keys
// entries on, and what lets it drop entries of dead epochs when a
// newer snapshot of the same store appears.
func (s *Snapshot) Source() uint64 { return s.source }

// NumNodes returns |V| at the snapshot's epoch.
func (s *Snapshot) NumNodes() int { return s.n }

// NumEdges returns |E| at the snapshot's epoch.
func (s *Snapshot) NumEdges() int { return s.nEdges }

// BaseEdges returns the number of edges in the compacted base segment
// (introspection for compaction tests and tooling).
func (s *Snapshot) BaseEdges() int { return int(s.baseLen) }

// DeltaEdges returns the number of edges in the delta overlay; zero
// means the snapshot is fully compacted.
func (s *Snapshot) DeltaEdges() int { return len(s.dEdges) }

// EdgesSince returns the edges written to the store strictly after
// epoch (and at or before the snapshot's own epoch), in write order
// with their epoch stamps, from the retained delta-history tail. The
// tail is bounded and survives compaction, but not forever: when epoch
// predates the retained window the second result is false and the
// caller must fall back to treating the whole graph as changed. The
// returned slice is shared and must not be modified.
//
// Node additions do NOT appear here (they carry no edge); a caller
// reasoning about changes between two epochs must separately compare
// NumNodes.
func (s *Snapshot) EdgesSince(epoch uint64) ([]DeltaEdge, bool) {
	if epoch >= s.epoch {
		return nil, true
	}
	if epoch < s.histFloor {
		return nil, false
	}
	h := s.hist
	i := sort.Search(len(h), func(i int) bool { return h[i].Epoch > epoch })
	return h[i:len(h):len(h)], true
}

// LabelsSince returns the distinct labels carried by the edges written
// strictly after epoch, sorted; like EdgesSince it reports false when
// epoch predates the retained history window.
func (s *Snapshot) LabelsSince(epoch uint64) ([]rune, bool) {
	since, ok := s.EdgesSince(epoch)
	if !ok {
		return nil, false
	}
	var labels []rune
	for _, e := range since {
		if !runeIn(labels, e.Label) {
			i := sort.Search(len(labels), func(i int) bool { return labels[i] >= e.Label })
			labels = append(labels, 0)
			copy(labels[i+1:], labels[i:])
			labels[i] = e.Label
		}
	}
	return labels, true
}

// LabelRange is an inclusive range of edge labels, the unit
// LabelRangesSince reports deltas in: consecutive interned labels
// coalesce, so a label-rich write burst usually collapses to a few
// ranges regardless of how many distinct labels it touched.
type LabelRange struct{ Lo, Hi rune }

// LabelRangesSince returns the distinct labels carried by the edges
// written strictly after epoch, coalesced into sorted disjoint
// inclusive ranges; like EdgesSince it reports false when epoch
// predates the retained history window.
func (s *Snapshot) LabelRangesSince(epoch uint64) ([]LabelRange, bool) {
	labels, ok := s.LabelsSince(epoch)
	if !ok {
		return nil, false
	}
	var out []LabelRange
	for _, a := range labels {
		if n := len(out); n > 0 && out[n-1].Hi+1 == a {
			out[n-1].Hi = a
		} else {
			out = append(out, LabelRange{Lo: a, Hi: a})
		}
	}
	return out, true
}

// HistoryFloor returns the oldest epoch EdgesSince can answer for:
// calls with an epoch at or above the floor succeed, older ones report
// an exhausted history window.
func (s *Snapshot) HistoryFloor() uint64 { return s.histFloor }

// Name returns the name of v at the snapshot's epoch.
func (s *Snapshot) Name(v Node) string { return s.names[v] }

// Alphabet returns the distinct edge labels of the snapshot, sorted
// (shared slice; do not modify).
func (s *Snapshot) Alphabet() []rune { return s.alphabet }

// BaseRuns returns the label runs of v in the base segment, sorted by
// label (shared slice; do not modify). Offsets resolve via EdgeRange.
func (s *Snapshot) BaseRuns(v Node) []LabelRun {
	if int(v) >= s.baseN {
		return nil
	}
	return s.base.Runs(v)
}

// DeltaRuns returns the label runs of v in the delta overlay, sorted
// by label (shared slice; do not modify). Offsets are virtual and
// resolve via EdgeRange.
func (s *Snapshot) DeltaRuns(v Node) []LabelRun {
	r := s.deltaEntry(v)
	if r < 0 {
		return nil
	}
	return s.dRuns[s.dRunOff[r]:s.dRunOff[r+1]]
}

// deltaEntry returns v's entry in the overlay index, or -1 when v has
// no delta edges: its rank among the marked nodes of dSrc.
func (s *Snapshot) deltaEntry(v Node) int {
	if s.dSrc == nil {
		return -1
	}
	w, b := v>>6, uint(v)&63
	word := s.dSrc[w]
	if word&(1<<b) == 0 {
		return -1
	}
	return int(s.dRank[w]) + bits.OnesCount64(word&(1<<b-1))
}

// EdgeRange resolves a LabelRun's virtual (start, end) pair to the
// backing edge slice (shared; do not modify).
func (s *Snapshot) EdgeRange(start, end int32) []Edge {
	if start >= s.baseLen {
		return s.dEdges[start-s.baseLen : end-s.baseLen]
	}
	return s.base.Edges[start:end]
}

// WithLabel returns the edges of v labeled a, sorted by target. When
// the label lives in a single segment the shared slice is returned;
// when both segments contribute, a fresh merged slice is built.
func (s *Snapshot) WithLabel(v Node, a rune) []Edge {
	var b []Edge
	if int(v) < s.baseN {
		b = s.base.WithLabel(v, a)
	}
	d := s.deltaWithLabel(v, a)
	switch {
	case len(d) == 0:
		return b
	case len(b) == 0:
		return d
	}
	out := make([]Edge, 0, len(b)+len(d))
	i, j := 0, 0
	for i < len(b) && j < len(d) {
		if b[i].To <= d[j].To {
			out = append(out, b[i])
			i++
		} else {
			out = append(out, d[j])
			j++
		}
	}
	out = append(out, b[i:]...)
	return append(out, d[j:]...)
}

// deltaWithLabel returns the delta-overlay edges of v labeled a.
func (s *Snapshot) deltaWithLabel(v Node, a rune) []Edge {
	runs := s.DeltaRuns(v)
	i := sort.Search(len(runs), func(i int) bool { return runs[i].Label >= a })
	if i < len(runs) && runs[i].Label == a {
		return s.EdgeRange(runs[i].Start, runs[i].End)
	}
	return nil
}

// HasEdge reports whether (v, a, w) is an edge of the snapshot.
func (s *Snapshot) HasEdge(v Node, a rune, w Node) bool {
	for _, seg := range [2][]Edge{s.baseWithLabel(v, a), s.deltaWithLabel(v, a)} {
		i := sort.Search(len(seg), func(i int) bool { return seg[i].To >= w })
		if i < len(seg) && seg[i].To == w {
			return true
		}
	}
	return false
}

func (s *Snapshot) baseWithLabel(v Node, a rune) []Edge {
	if int(v) >= s.baseN {
		return nil
	}
	return s.base.WithLabel(v, a)
}

// EdgesFrom calls f for every edge leaving v, base segment first.
func (s *Snapshot) EdgesFrom(v Node, f func(label rune, to Node)) {
	if int(v) < s.baseN {
		for _, e := range s.base.out(v) {
			f(e.Label, e.To)
		}
	}
	if r := s.deltaEntry(v); r >= 0 {
		for _, e := range s.dEdges[s.dNodeOff[r]:s.dNodeOff[r+1]] {
			f(e.Label, e.To)
		}
	}
}

// EachEdge calls f for every edge of the snapshot.
func (s *Snapshot) EachEdge(f func(from Node, label rune, to Node)) {
	for v := 0; v < s.n; v++ {
		s.EdgesFrom(Node(v), func(a rune, to Node) { f(Node(v), a, to) })
	}
}

// OutDegree returns the number of edges leaving v.
func (s *Snapshot) OutDegree(v Node) int {
	deg := 0
	if int(v) < s.baseN {
		st, en := s.base.OutRange(v)
		deg += int(en - st)
	}
	if r := s.deltaEntry(v); r >= 0 {
		deg += int(s.dNodeOff[r+1] - s.dNodeOff[r])
	}
	return deg
}

// AllPaths returns every path of the snapshot starting at from with at
// most maxLen edges. The number of such paths is exponential in maxLen
// in general; this is for the naive reference evaluator and tests.
func (s *Snapshot) AllPaths(from Node, maxLen int) []Path {
	out := []Path{EmptyPath(from)}
	frontier := []Path{EmptyPath(from)}
	for l := 0; l < maxLen; l++ {
		var next []Path
		for _, p := range frontier {
			s.EdgesFrom(p.To(), func(a rune, to Node) {
				np := p.Extend(a, to)
				next = append(next, np)
				out = append(out, np)
			})
		}
		frontier = next
	}
	return out
}

// compactMinDelta and compactFracDen set the compaction policy: a
// snapshot compacts the delta into a fresh full CSR when the delta has
// more than compactMinDelta edges AND exceeds base/compactFracDen —
// so small graphs and short write bursts ride the O(Δ) overlay, while
// a delta that grows past ~25% of the base pays one O(m log m) rebuild
// and resets to zero.
const (
	compactMinDelta = 64
	compactFracDen  = 4
)

// compactLocked merges the delta into a fresh full base CSR and clears
// the delta: the sorted prefix and fresh suffix are folded together,
// then linearly merged with the previous base (O(m), no re-sort of the
// base), and the delta set is dropped — after compaction the base CSR
// is the sole owner of every edge. Callers hold g.mu. The epoch-ordered history tail is NOT touched: EdgesSince
// keeps answering across compactions.
func (g *DB) compactLocked() {
	n := len(g.names)
	if len(g.deltaNew) > 0 {
		sort.Slice(g.deltaNew, func(i, j int) bool { return rawEdgeLess(g.deltaNew[i], g.deltaNew[j]) })
		g.deltaSorted = mergeDelta(g.deltaSorted, g.deltaNew)
		g.deltaNew = nil
	}
	if g.base != nil && g.baseN == n && len(g.deltaSorted) == 0 {
		return // already fully compacted
	}
	g.base = mergeCSR(g.base, g.baseN, g.deltaSorted, n)
	g.baseN = n
	g.deltaSorted = nil
	// nil, not clear: a cleared map keeps its buckets.
	g.deltaSet = nil
}

// compactionDue reports whether the delta log has crossed the
// compaction threshold (callers hold g.mu). The CompactionPolicy fault
// point can force it, so a harness can drive compaction storms — every
// post-write snapshot paying the full O(m log m) rebuild.
func (g *DB) compactionDue() bool {
	if g.base == nil {
		return true
	}
	if faultinject.Forced(faultinject.CompactionPolicy) {
		return true
	}
	d := len(g.deltaSorted) + len(g.deltaNew)
	return d > compactMinDelta && d*compactFracDen > g.base.NumEdges()
}

// Snapshot returns the epoch-stamped immutable snapshot of the
// database, building it on first use per epoch and caching it until
// the next mutation. It is safe to call concurrently with writers: the
// fast path is two atomic loads, and the slow path builds under the
// write lock. Steady read traffic with occasional writes pays, per
// post-write snapshot, a sort of the writes since the last one, a
// linear merge and copy of the delta (O(Δ)) and one pass over an
// n/64-word source bitset — the delta overlay — not the O(m log m)
// full rebuild, which only runs when the delta crosses the compaction
// threshold.
func (g *DB) Snapshot() *Snapshot {
	if s := g.snap.Load(); s != nil && s.epoch == g.epoch.Load() {
		return s
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ep := g.epoch.Load()
	if s := g.snap.Load(); s != nil && s.epoch == ep {
		return s
	}
	// Fault point: a hook that sleeps here models slow snapshot builds
	// (the store cannot fail to snapshot, so an injected error only
	// delays — the hook does the sleeping).
	faultinject.Inject(faultinject.SnapshotBuild)
	n := len(g.names)
	if g.compactionDue() {
		g.compactLocked()
		// On a durable store compaction IS checkpointing: the merged base
		// is persisted sidecar-atomically and the WAL truncated, so the
		// log stays bounded by the compaction threshold. A write failure
		// is sticky (DurableErr) but never blocks serving — the in-memory
		// compaction above already succeeded.
		if g.dir != "" {
			if err := g.checkpointWriteLocked(); err != nil {
				g.setWalErrLocked(err)
			}
		}
	} else if len(g.deltaNew) > 0 {
		// Fold the unsorted suffix (usually a handful of writes) into
		// the sorted prefix: a tiny sort plus one linear merge into a
		// fresh array, leaving arrays referenced by published snapshots
		// untouched.
		sort.Slice(g.deltaNew, func(i, j int) bool { return rawEdgeLess(g.deltaNew[i], g.deltaNew[j]) })
		g.deltaSorted = mergeDelta(g.deltaSorted, g.deltaNew)
		g.deltaNew = g.deltaNew[:0]
	}
	s := newSnapshot(g.id, ep, g.names[:n:n], g.base, g.baseN, g.deltaSorted, g.nEdges,
		g.hist[:len(g.hist):len(g.hist)], g.histFloor)
	g.snap.Store(s)
	return s
}
