package regex

import (
	"math/rand"
	"slices"
	"testing"
	"unicode/utf8"
)

// TestRuneSetMatchesSortCompact: whatever mix of repeats, ASCII and
// larger runes a set is fed, Sorted is the sorted distinct input, and
// Reset empties it.
func TestRuneSetMatchesSortCompact(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var s RuneSet
	for trial := 0; trial < 200; trial++ {
		s.Reset()
		var want []rune
		for n := r.Intn(300); n > 0; n-- {
			x := rune(1 + r.Intn(200))
			if r.Intn(4) == 0 {
				x = rune(r.Intn(utf8.MaxRune) + 1)
			}
			s.Add(x)
			want = append(want, x)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		got := s.Sorted()
		if len(want) == 0 {
			want = nil
		}
		if !slices.Equal(got, want) || len(got) != cap(got) {
			t.Fatalf("trial %d: Sorted = %v (cap %d), want %v", trial, got, cap(got), want)
		}
	}
}

// TestPartitionLabelAndClassOf: ClassOf through the ASCII cache agrees
// with the binary search, and Label picks a label of the class it is
// asked for, the outside label for the wild and the dead class.
func TestPartitionLabelAndClassOf(t *testing.T) {
	var b PartitionBuilder
	for _, l := range "cabéac" {
		b.AddLabel(l)
	}
	b.AddClass(NewClass(false, Range{'x', 'z'}, Range{0x400, 0x4ff}))
	p := b.Build()
	if p.NumCells() != 6 { // a, b, c, é, x-z, Cyrillic
		t.Fatalf("cells %v, want 6", p)
	}
	for r := rune(1); r < 0x600; r++ {
		c := p.ClassOf(r)
		if c != p.classOf(r) {
			t.Fatalf("ClassOf(%U) = %d, binary search %d", r, c, p.classOf(r))
		}
		if l := p.Label(c); p.ClassOf(l) != c {
			t.Fatalf("Label(%d) = %U, which is in class %d", c, l, p.ClassOf(l))
		}
	}
	if p.Label(p.DeadClass()) != 1 || p.ClassOf(1) != p.DeadClass() {
		t.Fatalf("outside label %U, want U+0001 in the dead class", p.Label(p.DeadClass()))
	}
}
