package ecrpq

import (
	"testing"

	"repro/internal/graph"
)

// FuzzParseQuery is the query parser's front door: any text either
// fails to parse or parses into a query that evaluates — to answers or
// to an error, never a panic — on a small cyclic graph under a tight
// state budget. The seed corpus (testdata/fuzz/FuzzParseQuery) is drawn
// from the query texts of the test suites and the benchmark.
func FuzzParseQuery(f *testing.F) {
	env := Env{Sigma: []rune("abc")}
	g := graph.NewDB()
	g.AddNodes(3)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	g.AddEdge(2, 'a', 0)
	g.AddEdge(1, 'a', 1)
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src, env)
		if err != nil {
			return
		}
		_, _ = Eval(q, g, Options{MaxProductStates: 10_000})
	})
}
