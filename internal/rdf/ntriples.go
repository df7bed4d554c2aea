package rdf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf16"

	"repro/internal/graph"
)

// This file is the bulk ingestion path for real RDF data: a streaming
// N-Triples parser that maps IRIs onto the engine's rune-labeled graph
// model. Subjects and objects become graph nodes named by their term
// text; predicates intern to dense rune labels starting at rune(1)
// (rune 0 is the engine's ⊥ padding symbol), skipping the surrogate
// block. A Wikidata-scale vocabulary of tens of thousands of distinct
// predicates therefore lands in a huge sparse alphabet — exactly the
// regime the label-class partition is built for.

// Vocab is the bidirectional term table built by LoadNTriples: the
// predicate IRI ↔ rune label interning and the subject/object term →
// node index.
type Vocab struct {
	preds    map[string]rune
	predIRIs map[rune]string
	next     rune
}

// NewVocab returns an empty vocabulary. Labels are assigned from
// rune(1) in first-seen order.
func NewVocab() *Vocab {
	return &Vocab{preds: map[string]rune{}, predIRIs: map[rune]string{}, next: 1}
}

// PredLabel interns a predicate IRI, assigning the next free label on
// first sight.
func (v *Vocab) PredLabel(iri string) rune {
	if r, ok := v.preds[iri]; ok {
		return r
	}
	r := v.next
	v.preds[iri] = r
	v.predIRIs[r] = iri
	v.next++
	if utf16.IsSurrogate(v.next) {
		v.next = 0xE000 // labels must stay valid runes in tuple-symbol strings
	}
	return r
}

// LookupPred returns the label of a predicate IRI seen before, without
// interning.
func (v *Vocab) LookupPred(iri string) (rune, bool) {
	r, ok := v.preds[iri]
	return r, ok
}

// PredIRI returns the IRI a label was assigned to.
func (v *Vocab) PredIRI(label rune) (string, bool) {
	iri, ok := v.predIRIs[label]
	return iri, ok
}

// NumPreds returns the number of interned predicates.
func (v *Vocab) NumPreds() int { return len(v.preds) }

// Predicates returns the interned predicate IRIs sorted by label — the
// order they were first seen in the stream.
func (v *Vocab) Predicates() []string {
	labels := make([]rune, 0, len(v.predIRIs))
	for r := range v.predIRIs {
		labels = append(labels, r)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	out := make([]string, len(labels))
	for i, r := range labels {
		out[i] = v.predIRIs[r]
	}
	return out
}

// LoadStats summarizes one LoadNTriples run.
type LoadStats struct {
	Triples  int // triples ingested
	Comments int // comment/blank lines skipped
}

// LoadNTriples streams an N-Triples document into g, interning
// predicates through vocab (a nil vocab allocates a fresh one, returned
// either way). Subject and object terms become nodes named by their
// lexical form — IRIs keep the angle brackets stripped, blank nodes
// keep the "_:" prefix, literals keep quotes and any language tag or
// datatype so distinct literals stay distinct nodes. Lines are parsed
// one at a time; the document never materializes in memory.
//
// The grammar accepted is the N-Triples core: one triple per line,
// `<s> <p> <o> .` with `#` comments and blank lines skipped. Subjects
// are IRIs or blank nodes, predicates IRIs, objects IRIs, blank nodes
// or literals (with \-escapes, @lang, ^^<datatype>). A malformed line
// aborts with an error naming the line number.
func LoadNTriples(r io.Reader, g *graph.DB, vocab *Vocab) (*Vocab, LoadStats, error) {
	if vocab == nil {
		vocab = NewVocab()
	}
	var stats LoadStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			stats.Comments++
			continue
		}
		subj, rest, err := parseTerm(line, false)
		if err != nil {
			return vocab, stats, fmt.Errorf("rdf: line %d: subject: %w", lineNo, err)
		}
		pred, rest, err := parseTerm(rest, false)
		if err != nil {
			return vocab, stats, fmt.Errorf("rdf: line %d: predicate: %w", lineNo, err)
		}
		if !strings.HasPrefix(pred, "<") {
			return vocab, stats, fmt.Errorf("rdf: line %d: predicate must be an IRI, got %q", lineNo, pred)
		}
		obj, rest, err := parseTerm(rest, true)
		if err != nil {
			return vocab, stats, fmt.Errorf("rdf: line %d: object: %w", lineNo, err)
		}
		if rest = strings.TrimSpace(rest); rest != "." {
			return vocab, stats, fmt.Errorf("rdf: line %d: expected terminating '.', got %q", lineNo, rest)
		}
		s := g.AddNode(nodeName(subj))
		o := g.AddNode(nodeName(obj))
		g.AddEdge(s, vocab.PredLabel(strings.Trim(pred, "<>")), o)
		stats.Triples++
	}
	if err := sc.Err(); err != nil {
		// The scanner failed reading the line after the last one it
		// returned (one longer than its buffer, say).
		return vocab, stats, fmt.Errorf("rdf: line %d: %w", lineNo+1, err)
	}
	return vocab, stats, nil
}

// LoadNTriplesBulk is LoadNTriples inside graph.DB.Bulk — the durable
// bulk-ingest fast path. On a durable store, per-triple WAL records are
// suspended and the whole load is made durable by one segment
// checkpoint (a single fsync) at the end, so Wikidata-scale ingest is
// parser-bound instead of WAL-bound; a crash mid-load loses the whole
// un-checkpointed batch, never a torn prefix. On a memory-only store it
// behaves exactly like LoadNTriples.
func LoadNTriplesBulk(r io.Reader, g *graph.DB, vocab *Vocab) (*Vocab, LoadStats, error) {
	var stats LoadStats
	err := g.Bulk(func() error {
		var err error
		vocab, stats, err = LoadNTriples(r, g, vocab)
		return err
	})
	return vocab, stats, err
}

// nodeName maps a parsed term to its node name: IRIs lose the angle
// brackets, everything else (blank nodes, literals) keeps its lexical
// form.
func nodeName(term string) string {
	if strings.HasPrefix(term, "<") && strings.HasSuffix(term, ">") {
		return term[1 : len(term)-1]
	}
	return term
}

// parseTerm scans one RDF term off the front of s, returning the term
// and the unconsumed remainder. allowLiteral admits quoted literals
// (objects only).
func parseTerm(s string, allowLiteral bool) (term, rest string, err error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "<"):
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated IRI")
		}
		return s[:end+1], s[end+1:], nil
	case strings.HasPrefix(s, "_:"):
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			end = len(s)
		}
		if end == 2 {
			return "", "", fmt.Errorf("empty blank node label")
		}
		return s[:end], s[end:], nil
	case strings.HasPrefix(s, `"`):
		if !allowLiteral {
			return "", "", fmt.Errorf("literal not allowed here")
		}
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return "", "", fmt.Errorf("unterminated literal")
		}
		// Optional @lang or ^^<datatype> suffix rides with the term.
		i := end + 1
		if i < len(s) && s[i] == '@' {
			for i < len(s) && s[i] != ' ' && s[i] != '\t' {
				i++
			}
		} else if strings.HasPrefix(s[i:], "^^<") {
			dt := strings.IndexByte(s[i:], '>')
			if dt < 0 {
				return "", "", fmt.Errorf("unterminated datatype IRI")
			}
			i += dt + 1
		}
		return s[:i], s[i:], nil
	case s == "" || s == ".":
		return "", "", fmt.Errorf("missing term")
	default:
		return "", "", fmt.Errorf("unrecognized term at %q", s)
	}
}
