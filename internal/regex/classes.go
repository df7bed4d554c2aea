package regex

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// This file is the label-class layer for RDF/Wikidata-scale alphabets:
// character classes over rune ranges in the query syntax, and a
// per-query partition of the label space into singles, disjoint ranges
// and a wild bucket (the technique of nex's insertLimits), so that
// automata and live-set pruning transition on O(classes-in-query)
// class IDs instead of O(|Σ|) individual labels.

// Range is an inclusive rune interval [Lo, Hi].
type Range struct{ Lo, Hi rune }

// ClassExpr is a character class: a union of disjoint sorted rune
// ranges, optionally negated. The padding symbol ⊥ is never matched,
// negated or not — classes are over edge labels only. A negated class
// with no ranges is the wildcard ".".
type ClassExpr struct {
	Ranges []Range
	Negate bool
}

// NewClass builds a normalized class: ranges are sorted and merged
// (overlapping or adjacent ranges coalesce). Ranges must not cover ⊥.
func NewClass(negate bool, ranges ...Range) *ClassExpr {
	return &ClassExpr{Ranges: NormalizeRanges(append([]Range(nil), ranges...)), Negate: negate}
}

// wildcard returns the wildcard class ".": every label, no label excluded.
func wildcard() *ClassExpr { return &ClassExpr{Negate: true} }

// Contains reports whether the class matches label r. ⊥ never matches.
func (c *ClassExpr) Contains(r rune) bool {
	if r == Bot {
		return false
	}
	return RangesContain(c.Ranges, r) != c.Negate
}

// String renders the class in the concrete syntax accepted by Parse:
// "[a-fx]", "[^a-f]", or "." for the wildcard.
func (c *ClassExpr) String() string {
	if c.Negate && len(c.Ranges) == 0 {
		return "."
	}
	var b strings.Builder
	b.WriteByte('[')
	if c.Negate {
		b.WriteByte('^')
	}
	esc := func(r rune) {
		if strings.ContainsRune(`()[]|*+?\<>,_.-^`, r) {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	for _, rg := range c.Ranges {
		esc(rg.Lo)
		if rg.Hi != rg.Lo {
			b.WriteByte('-')
			esc(rg.Hi)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// ClassNode wraps a class in an AST node. An empty positive class is ∅.
func ClassNode(c *ClassExpr) *Node[rune] {
	if !c.Negate && len(c.Ranges) == 0 {
		return None[rune]()
	}
	return &Node[rune]{Op: OpClass, Class: c}
}

// HasClass reports whether the expression contains any class node — the
// trigger for class-based compilation of the component it appears in.
func HasClass[S comparable](n *Node[S]) bool {
	switch n.Op {
	case OpClass:
		return true
	case OpConcat, OpAlt:
		return HasClass(n.Left) || HasClass(n.Right)
	case OpStar:
		return HasClass(n.Left)
	}
	return false
}

// ---------------------------------------------------------------------
// Range algebra. All functions expect and produce normalized range
// lists: sorted by Lo, disjoint, non-adjacent.

// NormalizeRanges sorts rs by Lo and merges overlapping or adjacent
// ranges in place, returning the shortened slice.
func NormalizeRanges(rs []Range) []Range {
	if len(rs) <= 1 {
		return rs
	}
	slices.SortFunc(rs, func(a, b Range) int { return cmp.Compare(a.Lo, b.Lo) })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// RangesContain reports whether r falls in one of the normalized ranges
// (binary search).
func RangesContain(rs []Range, r rune) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi >= r })
	return i < len(rs) && rs[i].Lo <= r
}

// UnionRanges returns the normalized union of two normalized lists.
func UnionRanges(a, b []Range) []Range {
	return NormalizeRanges(append(append([]Range(nil), a...), b...))
}

// IntersectRanges returns the normalized intersection of two normalized
// lists.
func IntersectRanges(a, b []Range) []Range {
	var out []Range
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].Lo, a[i].Hi
		if b[j].Lo > lo {
			lo = b[j].Lo
		}
		if b[j].Hi < hi {
			hi = b[j].Hi
		}
		if lo <= hi {
			out = append(out, Range{lo, hi})
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Partition: the per-component alphabet compiler.

// Partition is a per-query partition of the label space into cells:
// class IDs are dense runes 1..NumClasses() (0 is reserved so ⊥ keeps
// its encoding), cell i (class rune i+1) covers the range cells[i], and
// when Wild() is set the class rune len(cells)+1 covers every label in
// no cell. DeadClass() is one past the last class: labels a query
// without a wild bucket can never consume map there, and no compiled
// automaton has transitions on it.
//
// The cells refine every input handed to the builder: each added
// single label is alone in its cell, and each added class range is an
// exact union of cells (nex's insertLimits boundary splitting). That
// makes class-based evaluation exact: a literal transition keeps
// matching only its own label, and a class transition matches exactly
// the labels its ClassExpr matches.
type Partition struct {
	cells []Range
	wild  bool

	// ascii caches ClassOf for the ASCII labels whose class fits a byte
	// (0: not cached), the common case of a small alphabet: the move
	// planner maps every label run it plans through ClassOf.
	ascii [128]uint8
	// outside is the least label in no cell: the representative of the
	// wild and the dead class (Label).
	outside rune
}

// NumClasses returns the number of class IDs (wild bucket included).
func (p *Partition) NumClasses() int {
	n := len(p.cells)
	if p.wild {
		n++
	}
	return n
}

// Wild reports whether the partition has a wild bucket (some input
// class was negated or a wildcard).
func (p *Partition) Wild() bool { return p.wild }

// WildClass returns the class rune of the wild bucket, or 0 if none.
func (p *Partition) WildClass() rune {
	if !p.wild {
		return 0
	}
	return rune(len(p.cells) + 1)
}

// DeadClass returns the reject class rune: one past every real class.
// ClassOf maps labels outside all cells there when the partition has no
// wild bucket; no automaton transitions on it, so such labels are dead.
func (p *Partition) DeadClass() rune { return rune(p.NumClasses() + 1) }

// NumCells returns the number of range cells (wild bucket excluded).
func (p *Partition) NumCells() int { return len(p.cells) }

// Cell returns the range of class rune c (1 ≤ c ≤ NumCells()).
func (p *Partition) Cell(c rune) Range { return p.cells[c-1] }

// ClassOf maps a label to its class rune: its cell's class, the wild
// class if outside all cells and the partition has a wild bucket, or
// DeadClass() otherwise. ⊥ maps to ⊥ (class 0 is reserved for it).
func (p *Partition) ClassOf(r rune) rune {
	if uint32(r) < uint32(len(p.ascii)) && p.ascii[r] != 0 {
		return rune(p.ascii[r])
	}
	return p.classOf(r)
}

// classOf is ClassOf without the ASCII cache: a binary search over the
// cells.
func (p *Partition) classOf(r rune) rune {
	if r == Bot {
		return Bot
	}
	cs := p.cells
	lo, hi := 0, len(cs) // the first cell with Hi ≥ r is in [lo, hi]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cs[mid].Hi < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cs) && cs[lo].Lo <= r {
		return rune(lo + 1)
	}
	if p.wild {
		return rune(len(cs) + 1)
	}
	return p.DeadClass()
}

// Label returns a representative label of class rune c: the least label
// of its cell, or for the wild and the dead class the least label in no
// cell. Every label of a class behaves alike in every automaton the
// partition was built from, so stepping one by the representative steps
// it by the class.
func (p *Partition) Label(c rune) rune {
	if c >= 1 && int(c) <= len(p.cells) {
		return p.cells[c-1].Lo
	}
	return p.outside
}

// ClassesOf returns the class runes whose cells the class expression
// covers, in increasing order — exact, because the partition refines
// the expression's ranges. The wild bucket is included iff the
// expression is negated (wild labels are outside every added range, so
// a negation matches all of them).
func (p *Partition) ClassesOf(c *ClassExpr) []rune {
	var out []rune
	for i, cell := range p.cells {
		if RangesContain(c.Ranges, cell.Lo) != c.Negate {
			out = append(out, rune(i+1))
		}
	}
	if p.wild && c.Negate {
		out = append(out, rune(len(p.cells)+1))
	}
	return out
}

// String renders the partition for Explain-style output: each cell as a
// label or range, "?" for the wild bucket.
func (p *Partition) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, cell := range p.cells {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(FormatLabelRange(cell))
	}
	if p.wild {
		if len(p.cells) > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('?')
	}
	b.WriteByte('}')
	return b.String()
}

// FormatLabelRange renders one label range compactly ("a" or "a-f").
func FormatLabelRange(r Range) string {
	if r.Lo == r.Hi {
		return string(r.Lo)
	}
	return string(r.Lo) + "-" + string(r.Hi)
}

// PartitionBuilder accumulates the label distinctions of one query
// component: every literal label and every rune a non-class relation
// automaton transitions on becomes a singleton cell, every class range
// splits the space at its boundaries, and any negated class turns on
// the wild bucket.
type PartitionBuilder struct {
	singles RuneSet
	ranges  []Range
	wild    bool
}

// AddLabel records a label that must be its own singleton cell. A
// relation automaton names each label once per transition, so most calls
// repeat a label.
func (b *PartitionBuilder) AddLabel(r rune) {
	if r != Bot {
		b.singles.Add(r)
	}
}

// AddClass records a class expression's distinctions.
func (b *PartitionBuilder) AddClass(c *ClassExpr) {
	b.ranges = append(b.ranges, c.Ranges...)
	if c.Negate {
		b.wild = true
	}
}

// AddNode records every label distinction in a rune AST: literals as
// singles, classes via AddClass.
func (b *PartitionBuilder) AddNode(n *Node[rune]) {
	switch n.Op {
	case OpSym:
		b.AddLabel(n.Sym)
	case OpClass:
		b.AddClass(n.Class)
	case OpConcat, OpAlt:
		b.AddNode(n.Left)
		b.AddNode(n.Right)
	case OpStar:
		b.AddNode(n.Left)
	}
}

// Build compiles the accumulated distinctions into a partition via
// boundary splitting: collect the half-open limits of every input
// (r and r+1 for a single, Lo and Hi+1 for a range), and every
// elementary interval between consecutive limits that some input covers
// becomes one cell. Each single ends up alone in its cell and each
// input range is an exact union of cells.
func (b *PartitionBuilder) Build() *Partition {
	singles := b.singles.Sorted()
	limits := make([]rune, 0, 2*(len(singles)+len(b.ranges)))
	for _, r := range singles {
		limits = append(limits, r, r+1)
	}
	for _, rg := range b.ranges {
		limits = append(limits, rg.Lo, rg.Hi+1)
	}
	if len(limits) == 0 {
		return newPartition(nil, b.wild)
	}
	slices.Sort(limits)
	uniq := slices.Compact(limits)
	// Coverage: the normalized union of all inputs.
	cov := make([]Range, 0, len(singles)+len(b.ranges))
	for _, r := range singles {
		cov = append(cov, Range{r, r})
	}
	cov = append(cov, b.ranges...)
	cov = NormalizeRanges(cov)
	var cells []Range
	for i := 0; i+1 < len(uniq); i++ {
		lo, hi := uniq[i], uniq[i+1]-1
		if RangesContain(cov, lo) {
			cells = append(cells, Range{lo, hi})
		}
	}
	return newPartition(cells, b.wild)
}

// RuneSet gathers a set of runes from a stream with many repeats: runes
// below 128 — ASCII labels, and the class runes of a partition of fewer
// than 127 classes — go into a bitmap, so a repeat costs a bit test; the
// rest are appended, then sorted and deduplicated when the set is read.
// The zero value is an empty set.
type RuneSet struct {
	low  [2]uint64
	high []rune
}

// Add adds r to the set.
func (s *RuneSet) Add(r rune) {
	if uint32(r) < 128 {
		s.low[r>>6] |= 1 << (r & 63)
		return
	}
	s.high = append(s.high, r)
}

// Reset empties the set, keeping its storage.
func (s *RuneSet) Reset() {
	s.low = [2]uint64{}
	s.high = s.high[:0]
}

// Sorted returns the set's runes in increasing order in a fresh
// exactly-sized slice, nil when the set is empty.
func (s *RuneSet) Sorted() []rune {
	slices.Sort(s.high)
	s.high = slices.Compact(s.high)
	n := bits.OnesCount64(s.low[0]) + bits.OnesCount64(s.low[1]) + len(s.high)
	if n == 0 {
		return nil
	}
	out := make([]rune, 0, n)
	for w, word := range s.low {
		for ; word != 0; word &= word - 1 {
			out = append(out, rune(w*64+bits.TrailingZeros64(word)))
		}
	}
	return append(out, s.high...)
}

// newPartition builds the partition of the given cells, filling its
// ASCII cache and finding its outside label.
func newPartition(cells []Range, wild bool) *Partition {
	p := &Partition{cells: cells, wild: wild, outside: 1}
	for _, cell := range cells {
		if cell.Lo > p.outside {
			break
		}
		p.outside = cell.Hi + 1
	}
	for r := range p.ascii {
		if c := p.classOf(rune(r)); c <= 0xff {
			p.ascii[r] = uint8(c)
		}
	}
	return p
}

// ---------------------------------------------------------------------
// Live-label ranges.

// LabelRanges over-approximates the labels an expression can consume,
// as normalized ranges: literal labels and positive class ranges.
// universal=true means the expression contains a negated class or
// wildcard, whose label set is cofinite — callers should treat the
// expression as unconstrained.
func LabelRanges(n *Node[rune]) (rs []Range, universal bool) {
	var walk func(*Node[rune])
	walk = func(n *Node[rune]) {
		switch n.Op {
		case OpSym:
			if n.Sym != Bot {
				rs = append(rs, Range{n.Sym, n.Sym})
			}
		case OpClass:
			if n.Class.Negate {
				universal = true
				return
			}
			rs = append(rs, n.Class.Ranges...)
		case OpConcat, OpAlt:
			walk(n.Left)
			walk(n.Right)
		case OpStar:
			walk(n.Left)
		}
	}
	walk(n)
	if universal {
		return nil, true
	}
	return NormalizeRanges(rs), false
}
