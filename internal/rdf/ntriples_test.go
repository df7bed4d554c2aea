package rdf

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

const sampleNT = `# a comment line
<http://ex.org/alice> <http://ex.org/knows> <http://ex.org/bob> .

<http://ex.org/bob> <http://ex.org/knows> <http://ex.org/carol> .
<http://ex.org/alice> <http://ex.org/name> "Alice" .
<http://ex.org/bob> <http://ex.org/name> "Bob \"the builder\""@en .
<http://ex.org/carol> <http://ex.org/age> "39"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://ex.org/knows> <http://ex.org/alice> .
`

func TestLoadNTriples(t *testing.T) {
	g := graph.NewDB()
	vocab, stats, err := LoadNTriples(strings.NewReader(sampleNT), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Triples != 6 {
		t.Fatalf("Triples = %d, want 6", stats.Triples)
	}
	if stats.Comments != 2 {
		t.Fatalf("Comments = %d, want 2 (one # line, one blank)", stats.Comments)
	}
	if vocab.NumPreds() != 3 {
		t.Fatalf("NumPreds = %d, want 3: %v", vocab.NumPreds(), vocab.Predicates())
	}

	// Predicates intern densely from rune(1) in first-seen order.
	knows, ok := vocab.LookupPred("http://ex.org/knows")
	if !ok || knows != 1 {
		t.Fatalf("knows label = %v, %v; want 1", knows, ok)
	}
	name, _ := vocab.LookupPred("http://ex.org/name")
	if name != 2 {
		t.Fatalf("name label = %v, want 2", name)
	}
	if iri, ok := vocab.PredIRI(knows); !ok || iri != "http://ex.org/knows" {
		t.Fatalf("PredIRI(1) = %q, %v", iri, ok)
	}

	// Subjects/objects dedupe into named nodes; the knows-graph is
	// queryable through the standard path machinery.
	alice, ok := g.NodeByName("http://ex.org/alice")
	if !ok {
		t.Fatal("alice node missing")
	}
	carol, _ := g.NodeByName("http://ex.org/carol")
	if succ := g.Successors(alice, knows); len(succ) != 1 {
		t.Fatalf("alice knows %d nodes, want 1", len(succ))
	} else if hops := g.Successors(succ[0], knows); len(hops) != 1 || hops[0] != carol {
		t.Fatalf("alice-knows-knows = %v, want [carol]", hops)
	}

	// Literals stay distinct nodes with their decoration intact.
	if _, ok := g.NodeByName(`"Bob \"the builder\""@en`); !ok {
		t.Error("language-tagged literal node missing")
	}
	if _, ok := g.NodeByName(`"39"^^<http://www.w3.org/2001/XMLSchema#integer>`); !ok {
		t.Error("typed literal node missing")
	}
	if _, ok := g.NodeByName("_:b0"); !ok {
		t.Error("blank node missing")
	}
}

func TestLoadNTriplesSharedVocab(t *testing.T) {
	g1, g2 := graph.NewDB(), graph.NewDB()
	vocab, _, err := LoadNTriples(strings.NewReader("<a:s> <a:p> <a:o> .\n"), g1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadNTriples(strings.NewReader("<b:s> <a:p> <b:o> .\n<b:s> <b:q> <b:o> .\n"), g2, vocab); err != nil {
		t.Fatal(err)
	}
	p1, _ := vocab.LookupPred("a:p")
	q, _ := vocab.LookupPred("b:q")
	if p1 != 1 || q != 2 {
		t.Fatalf("shared vocab labels = %v, %v; want 1, 2", p1, q)
	}
}

func TestLoadNTriplesErrors(t *testing.T) {
	for _, bad := range []string{
		"<a:s> <a:p> <a:o>\n",            // missing dot
		"<a:s> <a:p> .\n",                // missing object
		"<a:s> \"lit\" <a:o> .\n",        // literal predicate
		"_:b <a:p> <a:o> . extra\n",      // trailing garbage
		"<a:s <a:p> <a:o> .\n",           // unterminated IRI
		"<a:s> <a:p> \"open .\n",         // unterminated literal
		"<a:s> <a:p> \"x\"^^<broken .\n", // unterminated datatype
		"\"lit\" <a:p> <a:o> .\n",        // literal subject
	} {
		g := graph.NewDB()
		if _, _, err := LoadNTriples(strings.NewReader(bad), g, nil); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

// TestPrecMemoInvalidation pins the closure memo against later Sub
// declarations: a probe must not freeze the hierarchy.
func TestPrecMemoInvalidation(t *testing.T) {
	h := NewHierarchy().Sub('a', 'b')
	if !h.Prec('a', 'b') || h.Prec('a', 'c') {
		t.Fatal("initial closure wrong")
	}
	h.Sub('b', 'c')
	if !h.Prec('a', 'c') {
		t.Fatal("closure memo survived a Sub declaration")
	}
	h.Reflexive()
	if !h.Prec('a', 'a') {
		t.Fatal("closure memo survived Reflexive")
	}
}

// TestPrecCycle: cyclic declarations must terminate and relate all
// members of the cycle.
func TestPrecCycle(t *testing.T) {
	h := NewHierarchy().Sub('a', 'b').Sub('b', 'a')
	if !h.Prec('a', 'a') || !h.Prec('b', 'a') || !h.Prec('a', 'b') {
		t.Fatal("cycle closure wrong")
	}
	if h.Prec('a', 'z') {
		t.Fatal("unrelated property in closure")
	}
}
