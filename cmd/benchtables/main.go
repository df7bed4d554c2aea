// Command benchtables regenerates the paper's evaluation tables: every
// cell of Figure 1 (data/combined complexity of CRPQs, ECRPQs, acyclic
// restrictions, Q_len, repetition, negation, linear constraints) as an
// empirical scaling sweep, plus the Proposition 3.2 separation, the
// Proposition 5.2 answer-automaton sizes, and the join ablation.
//
//	go run ./cmd/benchtables                   # all experiments
//	go run ./cmd/benchtables -only E8          # one experiment
//
// The theorem → package → test map in docs/ARCHITECTURE.md says which
// result each table measures. Engine performance is measured by
// `bash benchmark/run.sh` (see BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment (E1..E12, E14, E16)")
	flag.Parse()
	table := map[string]func(io.Writer){
		"E1":  experiments.E1CRPQData,
		"E2":  experiments.E2ECRPQData,
		"E3":  experiments.E3CRPQCombined,
		"E4":  experiments.E4E6ECRPQCombined,
		"E6":  experiments.E4E6ECRPQCombined,
		"E5":  experiments.E5AcyclicCRPQ,
		"E7":  experiments.E7Qlen,
		"E8":  experiments.E8Repetition,
		"E9":  experiments.E9CRPQNegData,
		"E10": experiments.E10ECRPQNeg,
		"E11": experiments.E11LinConstraints,
		"E12": experiments.E12Separation,
		"E14": experiments.E14AnswerAutomaton,
		"E16": experiments.E16Yannakakis,
	}
	if *only != "" {
		f, ok := table[*only]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtables: unknown experiment %q\n", *only)
			os.Exit(2)
		}
		f(os.Stdout)
		return
	}
	experiments.All(os.Stdout)
}
