// Package intern provides dense-integer interning of int tuples. Joint
// automaton states, tuple symbols and relational row keys are small
// integer tuples that the engine maps to dense ids once and thereafter
// manipulates as plain ints — no string keys, no per-lookup allocation.
// The product BFS keeps its states here only where it needs their ids
// (the explicit answer automaton) or where the product space is too large
// for its state bitset.
package intern

// Table interns int tuples to dense ids 0,1,2,… in insertion order.
// Tuples may have any length (lengths can differ within one table); two
// tuples receive the same id iff they are element-wise equal. The index
// is an open-addressed hash table with linear probing; insertion is
// amortized O(len(tuple)) with no per-operation allocation. The zero
// value is an empty table.
type Table struct {
	data   []int    // all interned tuples, concatenated
	offs   []int32  // offs[id] .. offs[id+1] delimit tuple id in data
	hashes []uint64 // hash per id, kept for cheap rehashing
	slots  []int32  // open-addressed index; slot holds id+1, 0 = empty
	mask   uint64

	resetWork int // slots Reset has written, cumulative; read by the O(used) regression test
}

// NewTable returns an empty table. sizeHint is a capacity hint for the
// expected number of interned tuples (0 is fine); storage beyond a
// minimal index is allocated lazily.
func NewTable(sizeHint int) *Table {
	t := &Table{}
	if sizeHint > 8 {
		n := uint64(16)
		for int(n) < 2*sizeHint {
			n *= 2
		}
		t.slots = make([]int32, n)
		t.mask = n - 1
	}
	return t
}

// Len returns the number of interned tuples.
func (t *Table) Len() int {
	if len(t.offs) == 0 {
		return 0
	}
	return len(t.offs) - 1
}

// At returns tuple id as a slice into the table's storage; callers must
// not modify it, and must not retain it across later Intern calls (the
// backing array may be grown and moved).
func (t *Table) At(id int) []int { return t.data[t.offs[id]:t.offs[id+1]] }

// hash is FNV-1a over the tuple elements (whole ints, not bytes: the
// tuples are tiny and the mix is sufficient for bucketing).
func hash(tup []int) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range tup {
		h ^= uint64(x)
		h *= 1099511628211
	}
	// Finalize: linear probing is sensitive to low-bit clustering.
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

func (t *Table) equal(id int, tup []int) bool {
	got := t.data[t.offs[id]:t.offs[id+1]]
	if len(got) != len(tup) {
		return false
	}
	for i, x := range got {
		if x != tup[i] {
			return false
		}
	}
	return true
}

func (t *Table) grow() {
	n := uint64(16)
	if len(t.slots) > 0 {
		n = uint64(len(t.slots)) * 2
	}
	t.slots = make([]int32, n)
	t.mask = n - 1
	for id, h := range t.hashes {
		i := h & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = int32(id + 1)
	}
}

// Intern returns the dense id of tup, adding it if absent. added reports
// whether the tuple was new. The input slice is copied on insertion.
func (t *Table) Intern(tup []int) (id int, added bool) {
	if 4*(len(t.hashes)+1) > 3*len(t.slots) {
		t.grow()
	}
	h := hash(tup)
	i := h & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			break
		}
		if cand := int(s - 1); t.hashes[cand] == h && t.equal(cand, tup) {
			return cand, false
		}
		i = (i + 1) & t.mask
	}
	id = t.Len()
	if len(t.offs) == 0 {
		t.offs = append(t.offs, 0)
	}
	t.data = append(t.data, tup...)
	t.offs = append(t.offs, int32(len(t.data)))
	t.hashes = append(t.hashes, h)
	t.slots[i] = int32(id + 1)
	return id, true
}

// Lookup returns the id of tup without inserting.
func (t *Table) Lookup(tup []int) (id int, ok bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	h := hash(tup)
	i := h & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if cand := int(s - 1); t.hashes[cand] == h && t.equal(cand, tup) {
			return cand, true
		}
		i = (i + 1) & t.mask
	}
}

// Cap returns the capacity (in elements) of the tuple storage, a proxy
// for the table's memory footprint.
func (t *Table) Cap() int { return cap(t.data) }

// Bytes returns the bytes the table's arrays take at their capacity.
func (t *Table) Bytes() int {
	return 8*cap(t.data) + 4*cap(t.offs) + 8*cap(t.hashes) + 4*cap(t.slots)
}

// Reset empties the table, retaining allocated capacity, in time
// proportional to the entries in use rather than to the capacity one
// earlier large run left behind: a sparsely filled index is emptied by
// walking each id's probe chain to its own slot (the slots hold distinct
// values, so the walk cannot stop early on a slot already cleared), a
// densely filled one by clearing it whole.
func (t *Table) Reset() {
	if n := len(t.hashes); 8*n >= len(t.slots) {
		clear(t.slots)
		t.resetWork += len(t.slots)
	} else {
		for id, h := range t.hashes {
			i := h & t.mask
			for t.slots[i] != int32(id+1) {
				i = (i + 1) & t.mask
			}
			t.slots[i] = 0
		}
		t.resetWork += n
	}
	t.data = t.data[:0]
	if len(t.offs) > 0 {
		t.offs = t.offs[:1]
	}
	t.hashes = t.hashes[:0]
}
