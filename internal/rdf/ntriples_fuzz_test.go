package rdf

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
)

// lineErr matches the line number every LoadNTriples error names.
var lineErr = regexp.MustCompile(`^rdf: line (\d+): `)

// FuzzLoadNTriples is the N-Triples front door: any input either fails
// with an error that names the line (counted from 1) it stopped at, or
// loads with every line the scanner read accounted for — as a triple or
// as a comment or blank line — and every interned predicate label mapping
// back to its IRI and forth to itself. The seed corpus
// (testdata/fuzz/FuzzLoadNTriples) is drawn from ntriples_test.go: the
// sample document, the shared-vocabulary loads and the malformed lines
// that must be refused.
func FuzzLoadNTriples(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc string) {
		g := graph.NewDB()
		vocab, stats, err := LoadNTriples(strings.NewReader(doc), g, nil)
		if vocab == nil {
			t.Fatalf("LoadNTriples(%q) returned no vocabulary", doc)
		}
		if err != nil {
			m := lineErr.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("LoadNTriples(%q) failed without naming a line: %v", doc, err)
			}
			if n, _ := strconv.Atoi(m[1]); n < 1 {
				t.Fatalf("LoadNTriples(%q) names line %d: %v", doc, n, err)
			}
			return
		}
		// bufio.ScanLines yields one line per newline, plus an unterminated
		// last one.
		lines := strings.Count(doc, "\n")
		if doc != "" && !strings.HasSuffix(doc, "\n") {
			lines++
		}
		if got := stats.Triples + stats.Comments; got != lines {
			t.Fatalf("LoadNTriples(%q): %d triples + %d comments, but the document has %d lines",
				doc, stats.Triples, stats.Comments, lines)
		}
		iris := vocab.Predicates()
		if len(iris) != vocab.NumPreds() {
			t.Fatalf("LoadNTriples(%q): %d predicates listed, %d interned", doc, len(iris), vocab.NumPreds())
		}
		for _, iri := range iris {
			label, ok := vocab.LookupPred(iri)
			if !ok {
				t.Fatalf("LoadNTriples(%q): listed predicate %q has no label", doc, iri)
			}
			if back, ok := vocab.PredIRI(label); !ok || back != iri {
				t.Fatalf("LoadNTriples(%q): label %d of %q maps back to %q, %v", doc, label, iri, back, ok)
			}
		}
		if g.NumEdges() > stats.Triples {
			t.Fatalf("LoadNTriples(%q): %d edges from %d triples", doc, g.NumEdges(), stats.Triples)
		}
	})
}
