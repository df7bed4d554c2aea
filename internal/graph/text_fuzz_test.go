package graph

import (
	"strings"
	"testing"
)

// FuzzParseText is the text format's front door: any input either fails
// with an error and no graph — never a partial one — or parses into a
// store that WriteText renders and ParseText reads back identically. The
// seed corpus (testdata/fuzz/FuzzParseText) is drawn from the lines of
// the text-format tests: node and edge lines, quoted fields, the arrow
// form and the malformed lines that must be refused.
func FuzzParseText(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		g, err := ParseText(strings.NewReader(text))
		if err != nil {
			if g != nil {
				t.Fatalf("ParseText(%q) failed (%v) but returned a graph", text, err)
			}
			return
		}
		if g == nil {
			t.Fatalf("ParseText(%q) returned neither a graph nor an error", text)
		}
		var b strings.Builder
		if err := WriteText(&b, g); err != nil {
			t.Fatal(err)
		}
		h, err := ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("ParseText(%q) parsed, but its WriteText does not: %v\n%s", text, err, b.String())
		}
		if err := graphsEqual(g, h); err != nil {
			t.Fatalf("ParseText(%q) does not survive WriteText: %v\n%s", text, err, b.String())
		}
	})
}
