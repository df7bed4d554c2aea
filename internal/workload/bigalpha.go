package workload

import (
	"math/rand"
	"unicode/utf16"

	"repro/internal/graph"
)

// This file is the RDF/Wikidata-scale workload: graphs whose edge
// labels come from a huge sparse predicate vocabulary (|Σ| in the tens
// of thousands) with a heavy-tailed frequency distribution — the regime
// the N-Triples loader produces from real dumps and the label-class
// partition (regex.Partition) exists for. The benchmark's bigalpha
// cases select predicate bands of it with range classes.

// BigAlphabetSigma returns k distinct labels assigned the way the
// N-Triples loader interns predicates: densely from rune(1), skipping
// '_' (the textual ⊥) and the surrogate block.
func BigAlphabetSigma(k int) []rune {
	out := make([]rune, 0, k)
	for r := rune(1); len(out) < k; r++ {
		if r == '_' {
			continue
		}
		if utf16.IsSurrogate(r) {
			r = 0xDFFF
			continue
		}
		out = append(out, r)
	}
	return out
}

// BigAlphabet builds a Wikidata-like labeled graph: n nodes, roughly
// avgDeg·n edges with uniformly random endpoints, and edge labels drawn
// from a mixture matching the predicate frequency profile of real RDF
// datasets — half Zipf-skewed (a few head predicates dominate) and half
// uniform over the whole vocabulary (the long tail where most
// predicates occur at least once, so a graph of E edges carries
// Θ(min(E, |Σ|)) distinct labels).
func BigAlphabet(r *rand.Rand, n int, sigma []rune, avgDeg float64) *graph.DB {
	g := graph.NewDB()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	z := rand.NewZipf(r, 1.1, 8, uint64(len(sigma)-1))
	edges := int(avgDeg * float64(n))
	for e := 0; e < edges; e++ {
		from := graph.Node(r.Intn(n))
		to := graph.Node(r.Intn(n))
		var lab rune
		if r.Intn(2) == 0 {
			lab = sigma[z.Uint64()]
		} else {
			lab = sigma[r.Intn(len(sigma))]
		}
		g.AddEdge(from, lab, to)
	}
	return g
}

// bigAlphaLabels and bigAlphaNodes size BigAlphabetGraph.
const (
	bigAlphaLabels = 10000
	bigAlphaNodes  = 2048
)

// BigAlphabetGraph builds the fixed Wikidata-like graph
// (deterministic: 2048 nodes, |Σ| = 10⁴, avg degree 4).
func BigAlphabetGraph() *graph.DB {
	sigma := BigAlphabetSigma(bigAlphaLabels)
	return BigAlphabet(rand.New(rand.NewSource(97)), bigAlphaNodes, sigma, 4.0)
}
