package intern

import (
	"math/bits"
	"slices"
)

// Packed interns single-word keys to dense ids 0,1,2,… in insertion
// order, exactly like Table does for tuples: callers that can pack a
// small tuple into one uint64 (the product BFS packs tuple symbols this
// way, and (joint, nodes…) states where it needs their ids or the
// product space is too large for a bitset) get a probe that costs one
// multiply and touches one cache line — key, id and liveness stamp share a
// 16-byte slot, and nothing but the slot array is stored. Reset is O(1):
// it advances the generation stamp, so a table grown by one large run
// costs later small runs nothing. The zero value is not usable; call
// NewPacked.
type Packed struct {
	slots []packedSlot
	shift uint   // 64 - log2(len(slots)): the hash keeps the top bits
	n     int    // live entries
	gen   uint32 // current generation; a slot is live iff slot.gen == gen
}

type packedSlot struct {
	key uint64
	id  uint32
	gen uint32
}

const packedMinSlots = 16

// NewPacked returns an empty table sized for about sizeHint keys (0 is
// fine; the table grows by doubling).
func NewPacked(sizeHint int) *Packed {
	n := packedMinSlots
	for 3*n < 4*sizeHint {
		n *= 2
	}
	p := &Packed{gen: 1}
	p.alloc(n)
	return p
}

func (p *Packed) alloc(n int) {
	p.slots = make([]packedSlot, n)
	p.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// Len returns the number of interned keys.
func (p *Packed) Len() int { return p.n }

// Cap returns the number of slots, a proxy for the table's memory
// footprint (16 bytes each).
func (p *Packed) Cap() int { return len(p.slots) }

// home is Fibonacci hashing: the golden-ratio multiply spreads every
// input bit into the top bits, which index the table.
func (p *Packed) home(key uint64) uint64 { return (key * 0x9E3779B97F4A7C15) >> p.shift }

// Intern returns the dense id of key, adding it if absent. added reports
// whether the key was new.
func (p *Packed) Intern(key uint64) (id int, added bool) {
	if 4*(p.n+1) > 3*len(p.slots) {
		p.grow()
	}
	mask := uint64(len(p.slots) - 1)
	i := p.home(key)
	for {
		s := &p.slots[i]
		if s.gen != p.gen {
			id = p.n
			*s = packedSlot{key: key, id: uint32(id), gen: p.gen}
			p.n++
			return id, true
		}
		if s.key == key {
			return int(s.id), false
		}
		i = (i + 1) & mask
	}
}

// Lookup returns the id of key without inserting.
func (p *Packed) Lookup(key uint64) (id int, ok bool) {
	mask := uint64(len(p.slots) - 1)
	for i := p.home(key); ; i = (i + 1) & mask {
		s := &p.slots[i]
		if s.gen != p.gen {
			return 0, false
		}
		if s.key == key {
			return int(s.id), true
		}
	}
}

func (p *Packed) grow() {
	old := p.slots
	p.alloc(2 * len(old))
	mask := uint64(len(p.slots) - 1)
	for _, s := range old {
		if s.gen != p.gen {
			continue
		}
		i := p.home(s.key)
		for p.slots[i].gen == p.gen {
			i = (i + 1) & mask
		}
		p.slots[i] = s
	}
}

// AppendKeys appends the interned keys to dst in id order — the way out
// for a caller that must move to a wider representation mid-run and
// keep its ids. It scans the slot array, so it is for rare paths.
func (p *Packed) AppendKeys(dst []uint64) []uint64 {
	base := len(dst)
	dst = slices.Grow(dst, p.n)[:base+p.n]
	for _, s := range p.slots {
		if s.gen == p.gen {
			dst[base+int(s.id)] = s.key
		}
	}
	return dst
}

// Reset empties the table, retaining allocated capacity. It touches no
// slot: stale entries die with their generation. Only when the 32-bit
// stamp wraps (once per 2³² resets) is the array cleared.
func (p *Packed) Reset() {
	p.n = 0
	p.gen++
	if p.gen == 0 {
		clear(p.slots)
		p.gen = 1
	}
}
