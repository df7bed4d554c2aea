package ecrpq

import (
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// varRelation is a relation over node variables: the result of one
// component, input and output of the relational join. It is one flat,
// column-strided store: row i's value for vars[j] is
// nodes[i*len(vars)+j], and — only when the relation carries witnesses —
// its shortest witness for pvars[k] is paths[i*len(pvars)+k]. A relation
// only ever carries path variables the query outputs (engines
// reconstruct no others), and every path variable belongs to exactly one
// component, so the witness columns of two relations never overlap.
//
// row, witness and add are the accessors every producer and consumer
// goes through. A relation is mutated only by the code that is building
// it (and by semijoin, on component relations no one else holds yet);
// once the join layer has returned it, it is read-only. Every relation of
// an evaluation is scratch of its workspace (workspace.go): reset empties
// it for the next evaluation and keeps the storage, so no row of it may
// outlive the evaluation — assemble and the memo capture copy what they
// keep.
type varRelation struct {
	vars  []NodeVar
	pvars []PathVar
	n     int // rows; explicit because a Boolean projection has no columns
	nodes []graph.Node
	paths []graph.Path
}

// row returns row i's node tuple, aligned to vars (a read-only view).
func (r *varRelation) row(i int) []graph.Node {
	a := len(r.vars)
	return r.nodes[i*a : i*a+a : i*a+a]
}

// witness returns row i's witness paths, aligned to pvars (nil for a
// relation without witness columns).
func (r *varRelation) witness(i int) []graph.Path {
	a := len(r.pvars)
	return r.paths[i*a : i*a+a : i*a+a]
}

// reset empties r for rows over vars and pvars, keeping its storage. The
// witness slots are cleared: a stale path there would pin the walks of a
// result handed out long ago. Those past the rows are empty already
// (truncate clears what it drops), so the clearing costs the rows r
// holds, not the capacity a pooled store brings from a larger evaluation.
func (r *varRelation) reset(vars []NodeVar, pvars []PathVar) {
	clear(r.paths)
	r.vars, r.pvars, r.n = vars, pvars, 0
	r.nodes, r.paths = r.nodes[:0], r.paths[:0]
}

// oversized reports whether r's storage exceeds the pooled-scratch
// budget; the workspace drops it then.
func (r *varRelation) oversized() bool {
	return cap(r.nodes) > maxPooledScratch || cap(r.paths) > maxPooledScratch
}

// add appends a row, copying the tuple and its witnesses.
func (r *varRelation) add(nodes []graph.Node, paths []graph.Path) {
	r.nodes = append(r.nodes, nodes...)
	r.paths = append(r.paths, paths...)
	r.n++
}

// addRows appends rows [lo, hi) of o, which has r's columns.
func (r *varRelation) addRows(o *varRelation, lo, hi int) {
	a, p := len(o.vars), len(o.pvars)
	r.nodes = append(r.nodes, o.nodes[lo*a:hi*a]...)
	r.paths = append(r.paths, o.paths[lo*p:hi*p]...)
	r.n += hi - lo
}

// truncate drops every row from the n-th on, clearing their witnesses.
func (r *varRelation) truncate(n int) {
	clear(r.paths[n*len(r.pvars):])
	r.n = n
	r.nodes = r.nodes[:n*len(r.vars)]
	r.paths = r.paths[:n*len(r.pvars)]
}

// mergeShorter refines row i's witnesses with those of a duplicate of the
// row: per path variable a strictly shorter path replaces the held one,
// so among equally short witnesses the first seen stays.
func (r *varRelation) mergeShorter(i int, paths []graph.Path) {
	held := r.witness(i)
	for k, p := range paths {
		if p.Len() < held[k].Len() {
			held[k] = p
		}
	}
}

// hashNodes is FNV-1a over whole node ids with a finalizer, as in
// package intern: linear probing is sensitive to low-bit clustering.
func hashNodes(tup []graph.Node) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range tup {
		h ^= uint64(x)
		h *= 1099511628211
	}
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// indexSlots returns the open-addressed slot count for n entries: a power
// of two keeping the load under 3/4.
func indexSlots(n int) int {
	s := 16
	for 3*s < 4*(n+1) {
		s *= 2
	}
	return s
}

// rowSet deduplicates the rows of a relation under construction. It
// holds row ids only — the tuples stay in the relation's flat store — so
// a row is written once, where an interning table would keep a second
// copy of it.
type rowSet struct {
	slots []int32 // row id + 1; 0 = empty
	n     int     // rows indexed
}

// reset empties the set, keeping its slots for the next relation.
func (s *rowSet) reset() {
	clear(s.slots)
	s.n = 0
}

// intern returns the id of the row of r equal to tup, appending tup to r
// (node columns only: the caller appends the witnesses of a fresh row)
// when there is none. Rows r received by other means need not be in the
// set as long as no interned tuple can equal them.
func (s *rowSet) intern(r *varRelation, tup []graph.Node) (id int, added bool) {
	if 4*(s.n+1) > 3*len(s.slots) {
		s.rehash(r)
	}
	mask := uint64(len(s.slots) - 1)
	i := hashNodes(tup) & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if id := int(s.slots[i] - 1); slices.Equal(r.row(id), tup) {
			return id, false
		}
	}
	s.slots[i] = int32(r.n + 1)
	s.n++
	r.nodes = append(r.nodes, tup...)
	r.n++
	return r.n - 1, true
}

// put adds the row (tup, w) to r unless the set already holds the tuple;
// then the held row's witnesses are refined (shortest wins, first seen
// among equals). It is the one dedup-and-merge step of every projection.
func (s *rowSet) put(r *varRelation, tup []graph.Node, w []graph.Path) {
	if id, added := s.intern(r, tup); added {
		r.paths = append(r.paths, w...)
	} else {
		r.mergeShorter(id, w)
	}
}

// rehash doubles the slots (or sizes them for the rows r already has) and
// re-enters every row of r.
func (s *rowSet) rehash(r *varRelation) {
	s.slots = make([]int32, max(2*len(s.slots), indexSlots(r.n)))
	mask := uint64(len(s.slots) - 1)
	for id := 0; id < r.n; id++ {
		i := hashNodes(r.row(id)) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(id + 1)
	}
	s.n = r.n
}

// runRows deduplicates the rows of one witness-free product-BFS run. Two
// rows of one run agree on every column its start assignment fixes — the
// start variables and the bound ones — so the columns it leaves open tell
// them apart alone, and a set of the run's own, like the run's product
// states (tupleSet), is enough: a bitset indexed by the open columns'
// nodes packed in fields of nodeBits (one open column: a node bitset;
// none: a single bit). end clears the run's bits by walking the rows the
// run added, as clearStates clears its states, so a run pays for its
// rows, not for the key space. An execution whose key space passes
// bitsetWords, and a run that keeps witnesses, use rowSet instead: there
// a duplicate refines the held row's witnesses, which takes the row's id.
type runRows struct {
	on       bool
	nodeBits uint
	row0     int // the relation's rows before the run

	// The columns the runs leave open: those neither a start variable
	// (isStart) nor bound (bindVal, -1 unbound). Both are the engine's.
	isStart []bool
	bindVal []graph.Node

	// bits holds bit k iff the run added a row with key k, within the
	// words the key space takes; every word of it is zero outside a run.
	bits  []uint64
	words int
}

// plan readies the set for an execution over a snapshot of numNodes
// nodes, and turns it off when the key space passes bitsetWords.
func (s *runRows) plan(isStart []bool, bindVal []graph.Node, numNodes int) {
	s.isStart, s.bindVal = isStart, bindVal
	s.nodeBits = uint(bits.Len(uint(max(numNodes-1, 1))))
	keyBits := uint(0)
	for i, start := range isStart {
		if !start && bindVal[i] < 0 {
			keyBits += s.nodeBits
		}
	}
	s.words, s.on = bitsetLen(1, keyBits)
}

func (s *runRows) key(tup []graph.Node) uint64 {
	var k uint64
	for c, x := range tup {
		if !s.isStart[c] && s.bindVal[c] < 0 {
			k = k<<s.nodeBits | uint64(x)
		}
	}
	return k
}

// add appends tup to r unless the run has added a row with its open
// columns already, and reports whether it did.
func (s *runRows) add(r *varRelation, tup []graph.Node) bool {
	k := s.key(tup)
	w := int(k >> 6)
	if w >= len(s.bits) {
		// Grow geometrically within the key space; the new words are zero.
		grown := make([]uint64, min(max(w+1, 2*len(s.bits), 64), s.words))
		copy(grown, s.bits)
		s.bits = grown
	}
	m := uint64(1) << (k & 63)
	if s.bits[w]&m != 0 {
		return false
	}
	s.bits[w] |= m
	r.add(tup, nil)
	return true
}

// end clears the bits of the rows the run added to r since row0.
func (s *runRows) end(r *varRelation) {
	for i := s.row0; i < r.n; i++ {
		s.bits[s.key(r.row(i))>>6] = 0
	}
}

// release drops a bitset past the pooled-scratch budget and the engine's
// slices.
func (s *runRows) release() {
	if len(s.bits) > maxPooledScratch {
		s.bits = nil
	}
	s.on, s.isStart, s.bindVal = false, nil, nil
}

// rowIndex is a hash index over the rows of a finished relation, keyed
// on a subset of its columns: the build side of semijoins, projected
// joins and the backtracking enumeration. Like rowSet it stores row ids
// only. Rows with equal keys form a chain in ascending row order, which
// is the order every join iterates them in.
type rowIndex struct {
	rel   *varRelation
	cols  []int   // key columns, as positions in rel.vars
	slots []int32 // first row of the key's chain + 1; 0 = empty
	next  []int32 // next[i]: the row after i in its chain + 1; 0 = end
}

// build indexes rel on the given columns, reusing x's arrays; key is
// scratch of len(cols).
func (x *rowIndex) build(rel *varRelation, cols []int, key []graph.Node) {
	x.rel, x.cols = rel, cols
	x.slots = zeroed(x.slots, indexSlots(rel.n))
	x.next = zeroed(x.next, rel.n)
	mask := uint64(len(x.slots) - 1)
	// Rows enter in descending order, each at the head of its chain, so
	// the chains come out ascending.
	for id := rel.n - 1; id >= 0; id-- {
		row := rel.row(id)
		for k, c := range cols {
			key[k] = row[c]
		}
		i := hashNodes(key) & mask
		for ; x.slots[i] != 0; i = (i + 1) & mask {
			if x.matches(int(x.slots[i]-1), key) {
				x.next[id] = x.slots[i]
				break
			}
		}
		x.slots[i] = int32(id + 1)
	}
}

// oversized reports whether the index's arrays exceed the pooled-scratch
// budget.
func (x *rowIndex) oversized() bool {
	return cap(x.slots) > maxPooledScratch || cap(x.next) > maxPooledScratch
}

func (x *rowIndex) matches(id int, key []graph.Node) bool {
	row := x.rel.row(id)
	for k, c := range x.cols {
		if row[c] != key[k] {
			return false
		}
	}
	return true
}

// first returns the first row whose key columns equal key, or -1; after
// continues its chain.
func (x *rowIndex) first(key []graph.Node) int {
	mask := uint64(len(x.slots) - 1)
	for i := hashNodes(key) & mask; x.slots[i] != 0; i = (i + 1) & mask {
		if id := int(x.slots[i] - 1); x.matches(id, key) {
			return id
		}
	}
	return -1
}

// after returns the next row with row id's key, or -1.
func (x *rowIndex) after(id int) int { return int(x.next[id]) - 1 }

// zeroed returns s resized to n zero elements, reusing its array when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// carve returns the next n elements of *buf as a slice of their own,
// growing *buf when it has no room left (slices carved before keep the
// old array); *buf = (*buf)[:0] hands the storage out again. The elements
// are not cleared, and the result is never nil. It is how a workspace
// hands out the small per-evaluation buffers — keys, tuples, column
// lists, candidate lists — from a few arrays that outlive it. The first
// evaluations grow the array to what one evaluation needs; after that
// carving allocates nothing.
func carve[T any](buf *[]T, n int) []T {
	b := *buf
	if b == nil || cap(b)-len(b) < n {
		b = make([]T, 0, max(2*cap(b), n))
	}
	*buf = b[:len(b)+n]
	return b[len(b) : len(b)+n : len(b)+n]
}
