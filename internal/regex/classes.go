package regex

import (
	"sort"
	"strings"
	"unicode/utf8"
)

// This file is the label-class layer for RDF/Wikidata-scale alphabets:
// character classes over rune ranges in the query syntax, and a
// per-query partition of the label space into singles, disjoint ranges
// and a wild bucket (the technique of nex's insertLimits), so that
// automata and live-set pruning transition on O(classes-in-query)
// class IDs instead of O(|Σ|) individual labels.

// MaxLabel is the largest rune a label class can cover; the wild bucket
// of a partition spans up to it.
const MaxLabel = utf8.MaxRune

// Range is an inclusive rune interval [Lo, Hi].
type Range struct{ Lo, Hi rune }

// Contains reports whether r falls in the range.
func (r Range) Contains(x rune) bool { return r.Lo <= x && x <= r.Hi }

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

// Wild returns the wildcard class ".": every label, no label excluded.
func Wild() *ClassExpr { return &ClassExpr{Negate: true} }

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
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
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

// RangesOverlap reports whether two normalized lists share any rune.
func RangesOverlap(a, b []Range) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Hi < b[j].Lo {
			i++
		} else if b[j].Hi < a[i].Lo {
			j++
		} else {
			return true
		}
	}
	return false
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
	if r == Bot {
		return Bot
	}
	cs := p.cells
	i := sort.Search(len(cs), func(i int) bool { return cs[i].Hi >= r })
	if i < len(cs) && cs[i].Lo <= r {
		return rune(i + 1)
	}
	if p.wild {
		return rune(len(cs) + 1)
	}
	return p.DeadClass()
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

// AppendClassRanges appends the label ranges class rune c covers: its
// cell, or — for the wild class — the complement of all cells over the
// label space (1..MaxLabel). The dead class covers nothing.
func (p *Partition) AppendClassRanges(c rune, dst []Range) []Range {
	if c >= 1 && int(c) <= len(p.cells) {
		return append(dst, p.cells[c-1])
	}
	if p.wild && c == rune(len(p.cells)+1) {
		lo := rune(1)
		for _, cell := range p.cells {
			if cell.Lo > lo {
				dst = append(dst, Range{lo, cell.Lo - 1})
			}
			lo = cell.Hi + 1
		}
		if lo <= MaxLabel {
			dst = append(dst, Range{lo, MaxLabel})
		}
	}
	return dst
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
	singles []rune
	ranges  []Range
	wild    bool
}

// AddLabel records a label that must be its own singleton cell.
func (b *PartitionBuilder) AddLabel(r rune) {
	if r != Bot {
		b.singles = append(b.singles, r)
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
	limits := make([]rune, 0, 2*(len(b.singles)+len(b.ranges)))
	for _, r := range b.singles {
		limits = append(limits, r, r+1)
	}
	for _, rg := range b.ranges {
		limits = append(limits, rg.Lo, rg.Hi+1)
	}
	if len(limits) == 0 {
		return &Partition{wild: b.wild}
	}
	sort.Slice(limits, func(i, j int) bool { return limits[i] < limits[j] })
	uniq := limits[:1]
	for _, l := range limits[1:] {
		if l != uniq[len(uniq)-1] {
			uniq = append(uniq, l)
		}
	}
	// Coverage: the normalized union of all inputs.
	cov := make([]Range, 0, len(b.singles)+len(b.ranges))
	for _, r := range b.singles {
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
	return &Partition{cells: cells, wild: b.wild}
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
