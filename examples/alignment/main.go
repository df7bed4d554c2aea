// Biological sequence alignment with ECRPQs (Section 4 of the paper):
// decide bounded edit distance with the regular relation D≤k, extract
// the actual gaps and mismatches with the alignment-extraction query, and
// decide a multiple alignment of three sequences as one ECRPQ.
//
//	go run ./examples/alignment
package main

import (
	"fmt"
	"log"

	"repro/internal/align"
)

func main() {
	dna := []rune{'a', 'c', 'g', 't'}
	pairs := [][2]string{
		{"acgt", "acgt"},
		{"acgt", "agt"},
		{"gattaca", "gatttaca"},
		{"acca", "tcct"},
	}
	for _, p := range pairs {
		x, y := p[0], p[1]
		d := align.Distance(x, y)
		within, err := align.WithinK(x, y, 2, dna)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("de(%q, %q) = %d; ECRPQ D≤2 says within 2: %v\n", x, y, d, within)
		al, ok, err := align.Extract(x, y, 2, dna)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			fmt.Println("  no alignment within distance 2")
			continue
		}
		fmt.Printf("  alignment at distance %d:", al.K)
		if len(al.Edits) == 0 {
			fmt.Print(" identical")
		}
		for _, e := range al.Edits {
			switch {
			case e.X == "":
				fmt.Printf(" [insert %s]", e.Y)
			case e.Y == "":
				fmt.Printf(" [delete %s]", e.X)
			default:
				fmt.Printf(" [%s→%s]", e.X, e.Y)
			}
		}
		fmt.Println()
	}
	// Multiple alignment: one path per sequence and a D≤k atom per pair,
	// evaluated as a single three-tape component.
	seqs := []string{"gattaca", "gatttaca", "gactaca"}
	for _, k := range []int{1, 2} {
		ok, err := align.MultiWithinK(seqs, k, dna)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%q pairwise within %d: %v\n", seqs, k, ok)
	}
}
