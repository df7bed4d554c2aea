// Semantic-web associations (Section 4 of the paper, after Anyanwu &
// Sheth): declare a subproperty hierarchy over RDF-style properties, find
// ρ-isoAssociated entities, and return the actual ρ-isomorphic property
// sequences with a ρ-query.
//
//	go run ./examples/semanticweb
package main

import (
	"fmt"
	"log"

	"repro/internal/rdf"

	"repro"
)

func main() {
	// Properties: c = "createdBy", s = "supervisedBy", f = "fundedBy",
	// with c ≺ s (creation is a kind of supervision for this ontology).
	h := rdf.NewHierarchy().Sub('c', 's').Reflexive()

	// A small provenance graph: two artifacts trace back to labs through
	// comparable property chains.
	g := pathquery.NewGraph()
	paper := g.AddNode("paper")
	dataset := g.AddNode("dataset")
	alice := g.AddNode("alice")
	bob := g.AddNode("bob")
	lab := g.AddNode("lab")
	agency := g.AddNode("agency")
	g.AddEdge(paper, 'c', alice) // paper createdBy alice
	g.AddEdge(alice, 's', lab)   // alice supervisedBy lab
	g.AddEdge(dataset, 's', bob) // dataset supervisedBy bob
	g.AddEdge(bob, 's', lab)     // bob supervisedBy lab
	g.AddEdge(lab, 'f', agency)  // lab fundedBy agency

	pairs, err := h.IsoAssociated(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ρ-isoAssociated pairs:")
	for _, p := range pairs {
		if p[0] < p[1] { // print each unordered pair once
			fmt.Printf("  %s ~ %s\n", g.Name(p[0]), g.Name(p[1]))
		}
	}

	// The ρ-query: which property sequences witness the association of
	// paper and dataset?
	seqs, err := h.RhoQuery(g, paper, dataset, 10, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nρ-isomorphic property sequences from (paper, dataset):")
	for _, pr := range seqs {
		fmt.Printf("  %q ~ %q\n", pr[0].LabelString(), pr[1].LabelString())
	}
}
