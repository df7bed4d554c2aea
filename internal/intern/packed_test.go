package intern

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// checkAgainstTable drives a Packed and a Table (keys as 1-tuples) with
// the same operation stream and requires identical observable behaviour:
// ids in insertion order, added flags, lookups and lengths. op bytes
// select intern / lookup / reset so the fuzzer can reach every mix.
func checkAgainstTable(t *testing.T, keys []uint64, ops []byte) {
	t.Helper()
	p, ref := NewPacked(0), NewTable(0)
	for i, k := range keys {
		op := byte(0)
		if len(ops) > 0 {
			op = ops[i%len(ops)]
		}
		tup := []int{int(k)}
		switch {
		case op%16 == 15:
			p.Reset()
			ref.Reset()
		case op%4 == 3:
			id, ok := p.Lookup(k)
			wid, wok := ref.Lookup(tup)
			if id != wid || ok != wok {
				t.Fatalf("step %d: Lookup(%#x) = (%d, %v), Table says (%d, %v)", i, k, id, ok, wid, wok)
			}
		default:
			id, added := p.Intern(k)
			wid, wadded := ref.Intern(tup)
			if id != wid || added != wadded {
				t.Fatalf("step %d: Intern(%#x) = (%d, %v), Table says (%d, %v)", i, k, id, added, wid, wadded)
			}
		}
		if p.Len() != ref.Len() {
			t.Fatalf("step %d: Len = %d, Table says %d", i, p.Len(), ref.Len())
		}
	}
	got := p.AppendKeys(nil)
	if len(got) != ref.Len() {
		t.Fatalf("AppendKeys returned %d keys, want %d", len(got), ref.Len())
	}
	for id, k := range got {
		if want := uint64(ref.At(id)[0]); k != want {
			t.Fatalf("AppendKeys[%d] = %#x, want %#x", id, k, want)
		}
	}
}

func TestPackedMatchesTable(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for round := 0; round < 40; round++ {
		// Key spaces from dense-and-colliding to sparse 64-bit, stream
		// lengths that cross several growth steps.
		space := uint64(1) << uint(3+r.Intn(20))
		if round%5 == 4 {
			space = 0
		}
		keys := make([]uint64, 200+r.Intn(6000))
		for i := range keys {
			keys[i] = r.Uint64()
			if space != 0 {
				// Structured like a packed state: a small field in the
				// top bits, a counter-like field in the low ones.
				keys[i] = keys[i]%space | uint64(r.Intn(4))<<60
			}
		}
		ops := make([]byte, 1+r.Intn(64))
		r.Read(ops)
		checkAgainstTable(t, keys, ops)
	}
}

func TestPackedBasics(t *testing.T) {
	p := NewPacked(0)
	if _, ok := p.Lookup(0); ok || p.Len() != 0 {
		t.Fatal("empty table is not empty")
	}
	// Key 0 is an ordinary key, not an empty marker.
	if id, added := p.Intern(0); id != 0 || !added {
		t.Fatalf("Intern(0) = (%d, %v)", id, added)
	}
	if id, added := p.Intern(^uint64(0)); id != 1 || !added {
		t.Fatalf("Intern(max) = (%d, %v)", id, added)
	}
	if id, added := p.Intern(0); id != 0 || added {
		t.Fatalf("repeat Intern(0) = (%d, %v)", id, added)
	}
	if big := NewPacked(1000); big.Cap() < 1334 {
		t.Fatalf("NewPacked(1000) has %d slots: would grow before 1000 keys", big.Cap())
	}
}

// A reset table must forget every key even when the generation stamp
// wraps around to values stale slots still carry.
func TestPackedResetGenerationWrap(t *testing.T) {
	p := NewPacked(0)
	p.Intern(7)
	p.gen = ^uint32(0) - 1
	p.Reset() // gen = max: slot of 7 (gen 1) is stale
	p.Intern(8)
	p.Reset() // wraps: table cleared, gen back to 1
	if p.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", p.gen)
	}
	for _, k := range []uint64{7, 8} {
		if _, ok := p.Lookup(k); ok {
			t.Fatalf("key %d survived the wrap", k)
		}
	}
	if id, added := p.Intern(7); id != 0 || !added {
		t.Fatalf("Intern after wrap = (%d, %v)", id, added)
	}
}

// One 10⁵-entry run followed by 10⁴ tiny runs: the serving daemon's
// pattern when one start assignment of a component explodes and the
// other twenty thousand do not. Reset work must follow the entries in
// use, not the capacity the large run left behind.
func TestResetCostFollowsEntriesUsed(t *testing.T) {
	const big, runs, tiny = 100_000, 10_000, 4
	tab := NewTable(0)
	p := NewPacked(0)
	for i := 0; i < big; i++ {
		tab.Intern([]int{i, i >> 3})
		p.Intern(uint64(i) * 0x9E3779B9)
	}
	tab.Reset()
	p.Reset()
	slots, pslots := len(tab.slots), p.Cap()
	base := tab.resetWork
	for r := 0; r < runs; r++ {
		for i := 0; i < tiny; i++ {
			if id, added := tab.Intern([]int{r, i}); id != i || !added {
				t.Fatalf("run %d: Table.Intern = (%d, %v), want (%d, true)", r, id, added, i)
			}
			if id, added := p.Intern(uint64(r)<<8 | uint64(i)); id != i || !added {
				t.Fatalf("run %d: Packed.Intern = (%d, %v), want (%d, true)", r, id, added, i)
			}
		}
		if r > 0 {
			if _, ok := tab.Lookup([]int{r - 1, 0}); ok {
				t.Fatalf("run %d: Table still holds the previous run's tuple", r)
			}
			if _, ok := p.Lookup(uint64(r-1) << 8); ok {
				t.Fatalf("run %d: Packed still holds the previous run's key", r)
			}
		}
		tab.Reset()
		p.Reset()
	}
	if work := tab.resetWork - base; work > 2*runs*tiny {
		t.Fatalf("Table.Reset wrote %d slots over %d runs of %d entries (index holds %d): not O(used)",
			work, runs, tiny, slots)
	}
	// Packed.Reset has no loop to count outside the 2³²-reset wrap; what
	// can regress is the capacity being thrown away and rebuilt.
	if len(tab.slots) != slots || p.Cap() != pslots {
		t.Fatalf("capacity changed across resets: table %d→%d, packed %d→%d", slots, len(tab.slots), pslots, p.Cap())
	}
	for _, s := range tab.slots {
		if s != 0 {
			t.Fatal("Table.Reset left a slot occupied")
		}
	}
}

// Reset on a densely filled table takes the clear-everything branch;
// both branches must leave an equally empty, reusable table.
func TestTableResetDense(t *testing.T) {
	tab := NewTable(0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 3000; i++ {
			if id, added := tab.Intern([]int{i, round}); id != i || !added {
				t.Fatalf("round %d: Intern = (%d, %v), want (%d, true)", round, id, added, i)
			}
		}
		tab.Reset()
		if tab.Len() != 0 {
			t.Fatalf("Len after Reset = %d", tab.Len())
		}
		if _, ok := tab.Lookup([]int{5, round}); ok {
			t.Fatal("lookup after Reset succeeded")
		}
	}
}

// FuzzPacked reads the input as 8-byte keys followed by an op tail and
// checks Packed against Table on that stream.
func FuzzPacked(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 3})
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, ^uint64(0)), 1<<63), []byte{0, 0, 15, 3})
	seq := make([]byte, 0, 8*64)
	for i := uint64(0); i < 64; i++ {
		seq = binary.LittleEndian.AppendUint64(seq, i%24<<40|i%5)
	}
	f.Add(seq, []byte{0, 0, 0, 3, 0, 0, 15})
	f.Fuzz(func(t *testing.T, raw, ops []byte) {
		keys := make([]uint64, 0, len(raw)/8)
		for ; len(raw) >= 8; raw = raw[8:] {
			keys = append(keys, binary.LittleEndian.Uint64(raw))
		}
		checkAgainstTable(t, keys, ops)
	})
}

// BenchmarkInternState interns the same stream of (joint, node, node)
// product states — 2¹⁶ distinct out of 2¹⁸ — as 3-tuples into a Table
// and as packed words into a Packed, with one Reset per pass as a BFS
// run would do.
func BenchmarkInternState(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	type state struct{ joint, u, v int }
	states := make([]state, 1<<18)
	for i := range states {
		states[i] = state{r.Intn(16), r.Intn(64), r.Intn(64)}
	}
	b.Run("table", func(b *testing.B) {
		t := NewTable(0)
		tup := make([]int, 3)
		for i := 0; i < b.N; i++ {
			s := states[i&(len(states)-1)]
			tup[0], tup[1], tup[2] = s.joint, s.u, s.v
			t.Intern(tup)
			if i&(len(states)-1) == len(states)-1 {
				t.Reset()
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		p := NewPacked(0)
		for i := 0; i < b.N; i++ {
			s := states[i&(len(states)-1)]
			p.Intern(uint64(s.joint)<<12 | uint64(s.u)<<6 | uint64(s.v))
			if i&(len(states)-1) == len(states)-1 {
				p.Reset()
			}
		}
	})
}
