package regex

import (
	"testing"
)

// FuzzRegexParse is the regex parser's front door, class syntax included
// ([^a-c], ranges, escapes, ⊥ as '_'): any source either fails with an
// error and no expression, or parses into one that String renders in a
// form Parse reads back, with the same language on the short words over
// the source's runes (checked for short sources). (The rendering need not be a fixed point: a class
// that normalizes to single labels, "[a-a2]", renders as "[2a]", which
// reads back as the plain alternation 2|a.) The label-space analyses a
// compiled query runs on every expression (LabelRanges, the partition
// builder) must take it too. The seed corpus (testdata/fuzz/
// FuzzRegexParse) is drawn from the expressions of the regex, class and
// start-domain tests.
func FuzzRegexParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			if n != nil {
				t.Fatalf("Parse(%q) failed (%v) but returned an expression", src, err)
			}
			return
		}
		if n == nil {
			t.Fatalf("Parse(%q) returned neither an expression nor an error", src)
		}
		rendered := String(n)
		m, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", src, rendered, err)
		}
		LabelRanges(n)
		var b PartitionBuilder
		b.AddNode(n)
		b.Build()
		if len(src) > 64 {
			return // Match by derivatives is quadratic in the expression
		}
		var alpha []rune
		for _, r := range src + "_" {
			if len(alpha) < 4 && !containsRune(alpha, r) {
				alpha = append(alpha, r)
			}
		}
		for _, w := range shortWords(alpha, 3) {
			if Match(n, w) != Match(m, w) {
				t.Fatalf("Parse(%q) and Parse(%q) disagree on %q", src, rendered, string(w))
			}
		}
	})
}

func containsRune(rs []rune, r rune) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

// shortWords lists every word over alpha of length at most k.
func shortWords(alpha []rune, k int) [][]rune {
	words := [][]rune{nil}
	for prev := words; k > 0; k-- {
		var next [][]rune
		for _, w := range prev {
			for _, r := range alpha {
				next = append(next, append(append([]rune(nil), w...), r))
			}
		}
		words = append(words, next...)
		prev = next
	}
	return words
}
