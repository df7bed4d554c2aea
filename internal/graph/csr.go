package graph

import "sort"

// LabelRun is one contiguous run of equally-labeled out-edges of a node
// inside a CSR snapshot: the edges csr.Edges[Start:End] all leave the
// same node and carry Label. Inside a Snapshot the offsets are virtual
// (delta-overlay runs are shifted past the base edge array); resolve
// them with Snapshot.EdgeRange.
type LabelRun struct {
	Label rune
	Start int32
	End   int32
}

// csr is an immutable compressed-sparse-row edge index: one flat edge
// array holding every out-edge, grouped by source node and, within a
// node, sorted by label then target, plus a per-node label-run index.
// It is the hot-path substrate of the graph — the label-directed
// product BFS asks it "which labels leave v" and "the edges of v with
// label a", both answered with O(1)-ish contiguous slices instead of
// map walks.
//
// A CSR is safe for concurrent use by any number of readers; it never
// changes after construction. Evaluation consumes CSRs through the
// epoch-stamped Snapshot, which pairs the last compacted full CSR with
// a delta overlay of the writes since (see snapshot.go).
type csr struct {
	// Edges is the flat edge array; see the type comment for its order.
	// Callers must not modify it.
	Edges []Edge

	nodeOff  []int32 // per node: range of its edges in Edges (len n+1)
	runs     []LabelRun
	runOff   []int32 // per node: range of its runs in runs (len n+1)
	alphabet []rune  // distinct edge labels, sorted
}

// mergeCSR constructs the full CSR covering n nodes from the previous
// base (covering baseN nodes; nil for the first compaction) and the
// delta edges written since, already in CSR order (source, label,
// target) and already deduplicated against the base. Both inputs are
// sorted, so the merge is a single linear pass — compaction costs O(m)
// in the total edge count, with no re-sort of the base segment.
func mergeCSR(base *csr, baseN int, delta []rawEdge, n int) *csr {
	baseEdges := 0
	if base != nil {
		baseEdges = len(base.Edges)
	}
	c := &csr{
		Edges:   make([]Edge, 0, baseEdges+len(delta)),
		nodeOff: make([]int32, n+1),
		runOff:  make([]int32, n+1),
	}
	seen := map[rune]bool{}
	note := func(a rune) {
		if !seen[a] {
			seen[a] = true
			c.alphabet = append(c.alphabet, a)
		}
	}
	di := 0
	for v := 0; v < n; v++ {
		var b []Edge
		if base != nil && v < baseN {
			b = base.out(Node(v))
		}
		bi := 0
		emit := func(e Edge) {
			note(e.Label)
			if k := len(c.runs); k == int(c.runOff[v]) || c.runs[k-1].Label != e.Label {
				c.runs = append(c.runs, LabelRun{Label: e.Label, Start: int32(len(c.Edges))})
			}
			c.Edges = append(c.Edges, e)
			c.runs[len(c.runs)-1].End = int32(len(c.Edges))
		}
		for bi < len(b) || (di < len(delta) && int(delta[di].From) == v) {
			takeBase := bi < len(b)
			if takeBase && di < len(delta) && int(delta[di].From) == v {
				d := delta[di]
				if d.Label < b[bi].Label || (d.Label == b[bi].Label && d.To < b[bi].To) {
					takeBase = false
				}
			}
			if takeBase {
				emit(b[bi])
				bi++
			} else {
				emit(Edge{Label: delta[di].Label, To: delta[di].To})
				di++
			}
		}
		c.nodeOff[v+1] = int32(len(c.Edges))
		c.runOff[v+1] = int32(len(c.runs))
	}
	sort.Slice(c.alphabet, func(i, j int) bool { return c.alphabet[i] < c.alphabet[j] })
	return c
}

// csrFromParts assembles a CSR over externally built arrays — the
// segment-backed path, where Edges, runs and the offset tables are
// views into a read-only file mapping and must not be modified. No
// per-node structure is built on the heap: the edge payload stays in
// the page cache. The caller guarantees the arrays are structurally
// valid (loadSegment validates offsets, monotonicity and sortedness
// before handing them over).
func csrFromParts(edges []Edge, nodeOff, runOff []int32, runs []LabelRun, alphabet []rune) *csr {
	return &csr{Edges: edges, nodeOff: nodeOff, runOff: runOff, runs: runs, alphabet: alphabet}
}

// NumEdges returns the number of edges of the CSR.
func (c *csr) NumEdges() int { return len(c.Edges) }

// out returns v's edges, sorted by label then target (shared; do not
// modify).
func (c *csr) out(v Node) []Edge { return c.Edges[c.nodeOff[v]:c.nodeOff[v+1]] }

// Runs returns the label runs of v, sorted by label: one entry per
// distinct out-label, delimiting that label's edges in Edges (shared
// slice; do not modify). This is "the labels present at v".
func (c *csr) Runs(v Node) []LabelRun { return c.runs[c.runOff[v]:c.runOff[v+1]] }

// WithLabel returns the edges of v labeled a, found by binary search over
// v's label runs (shared slice; do not modify).
func (c *csr) WithLabel(v Node, a rune) []Edge {
	runs := c.Runs(v)
	i := sort.Search(len(runs), func(i int) bool { return runs[i].Label >= a })
	if i < len(runs) && runs[i].Label == a {
		return c.Edges[runs[i].Start:runs[i].End]
	}
	return nil
}
