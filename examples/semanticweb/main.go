// Semantic-web associations (Section 4 of the paper, after Anyanwu &
// Sheth): load an RDF graph from N-Triples, declare a subproperty
// hierarchy over its properties, find ρ-isoAssociated entities, and
// return the actual ρ-isomorphic property sequences with a ρ-query.
//
//	go run ./examples/semanticweb
package main

import (
	_ "embed"
	"fmt"
	"log"
	"strings"

	"repro/internal/rdf"

	"repro"
)

//go:embed provenance.nt
var provenance string

const ex = "http://example.org/"

func main() {
	g := pathquery.NewGraph()
	vocab, stats, err := rdf.LoadNTriples(strings.NewReader(provenance), g, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d triples, %d predicates\n", stats.Triples, vocab.NumPreds())

	// createdBy ≺ supervisedBy: creation is a kind of supervision for
	// this ontology.
	createdBy, _ := vocab.LookupPred(ex + "createdBy")
	supervisedBy, _ := vocab.LookupPred(ex + "supervisedBy")
	h := rdf.NewHierarchy().Sub(createdBy, supervisedBy).Reflexive()
	name := func(v pathquery.Node) string { return strings.TrimPrefix(g.Name(v), ex) }

	pairs, err := h.IsoAssociated(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ρ-isoAssociated pairs:")
	for _, p := range pairs {
		if p[0] < p[1] { // print each unordered pair once
			fmt.Printf("  %s ~ %s\n", name(p[0]), name(p[1]))
		}
	}

	// The ρ-query: which property sequences witness the association of
	// paper and dataset?
	paper, _ := g.NodeByName(ex + "paper")
	dataset, _ := g.NodeByName(ex + "dataset")
	seqs, err := h.RhoQuery(g, paper, dataset, 10, 6)
	if err != nil {
		log.Fatal(err)
	}
	props := func(labels []rune) string {
		var out []string
		for _, l := range labels {
			iri, _ := vocab.PredIRI(l)
			out = append(out, strings.TrimPrefix(iri, ex))
		}
		return "[" + strings.Join(out, " ") + "]"
	}
	fmt.Println("\nρ-isomorphic property sequences from (paper, dataset):")
	for _, pr := range seqs {
		fmt.Printf("  %s ~ %s\n", props(pr[0].Labels), props(pr[1].Labels))
	}
}
