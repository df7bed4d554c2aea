package workload

import (
	"math/rand"
	"testing"
)

func TestBigAlphabetSigma(t *testing.T) {
	sigma := BigAlphabetSigma(10000)
	if len(sigma) != 10000 {
		t.Fatalf("len = %d", len(sigma))
	}
	seen := map[rune]bool{}
	for _, r := range sigma {
		if r == 0 || r == '_' || (r >= 0xD800 && r <= 0xDFFF) {
			t.Fatalf("forbidden label %U", r)
		}
		if seen[r] {
			t.Fatalf("duplicate label %U", r)
		}
		seen[r] = true
	}
}

func TestBigAlphabetDeterministic(t *testing.T) {
	sigma := BigAlphabetSigma(500)
	g1 := BigAlphabet(rand.New(rand.NewSource(7)), 64, sigma, 3.0)
	g2 := BigAlphabet(rand.New(rand.NewSource(7)), 64, sigma, 3.0)
	if g1.NumEdges() != g2.NumEdges() || g1.NumNodes() != g2.NumNodes() {
		t.Fatal("generator not deterministic")
	}
	if g1.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
}
