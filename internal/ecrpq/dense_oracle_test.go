package ecrpq

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// This file cross-checks the dense interned product engine against the
// naive reference evaluator on randomized inputs: answer sets must agree
// exactly, and for queries with head path variables the witness-path
// lengths must agree too (both engines keep the shortest witness per
// head path variable among duplicate node tuples).

// oracleQueries mixes CRPQs and ECRPQs with and without head paths.
func oracleQueries(t *testing.T) []*Query {
	t.Helper()
	srcs := []string{
		"Ans(x, y, p1) <- (x,p1,y), a+(p1)",
		"Ans(x, y, p) <- (x,p,y), (a|b)*a(p)",
		"Ans(x, y, p1, p2) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)",
		"Ans(x, y, p1, p2) <- (x,p1,z), (z,p2,y), eq(p1,p2)",
		"Ans(x, y, p1, p2) <- (x,p1,y), (x,p2,y), prefix(p1,p2)",
		"Ans(x, z) <- (x,p1,y), (y,p2,z), a*(p1), (a|b)*(p2)",
		"Ans() <- (x,p1,y), (x,p2,y), el(p1,p2), a+(p1), b+(p2)",
	}
	out := make([]*Query, len(srcs))
	for i, s := range srcs {
		out[i] = MustParse(s, env())
	}
	return out
}

// randomOracleQuery assembles a random chain query: 1–3 path atoms with
// random unary languages, optionally tied by a random binary relation,
// with a random subset of head node and path variables.
func randomOracleQuery(t *testing.T, r *rand.Rand) *Query {
	t.Helper()
	langs := []string{"a*", "b+", "(a|b)*a", "(ab)*", "(a|b)*"}
	bins := []string{"el", "eq", "prefix"}
	m := 1 + r.Intn(3)
	body := ""
	for i := 0; i < m; i++ {
		if i > 0 {
			body += ", "
		}
		body += fmt.Sprintf("(x%d,p%d,x%d)", i, i, i+1)
	}
	for i := 0; i < m; i++ {
		body += fmt.Sprintf(", %s(p%d)", langs[r.Intn(len(langs))], i)
	}
	if m >= 2 && r.Intn(2) == 0 {
		body += fmt.Sprintf(", %s(p0,p%d)", bins[r.Intn(len(bins))], 1+r.Intn(m-1))
	}
	head := "x0"
	if r.Intn(2) == 0 {
		head += fmt.Sprintf(", x%d", m)
	}
	if r.Intn(2) == 0 {
		head += fmt.Sprintf(", p%d", r.Intn(m))
	}
	return MustParse(fmt.Sprintf("Ans(%s) <- %s", head, body), env())
}

// checkAgainstNaive compares Eval with the naive oracle on one DAG.
func checkAgainstNaive(t *testing.T, q *Query, g *graph.DB, label string) {
	t.Helper()
	res, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatalf("%s: eval: %v", label, err)
	}
	naive, err := NaiveEval(q, g, g.NumNodes())
	if err != nil {
		t.Fatalf("%s: naive: %v", label, err)
	}
	want := map[string]Answer{}
	for _, a := range naive {
		want[a.Key()] = a
	}
	if len(res.Answers) != len(want) {
		t.Fatalf("%s: query %q: eval %d answers, naive %d", label, q, len(res.Answers), len(want))
	}
	for _, a := range res.Answers {
		na, ok := want[a.Key()]
		if !ok {
			t.Fatalf("%s: query %q: eval answer %s not in naive output", label, q, a.Key())
		}
		for pi, chi := range q.HeadPaths {
			p := a.Paths[pi]
			if err := p.Validate(g); err != nil {
				t.Fatalf("%s: query %q: witness for %s invalid: %v", label, q, chi, err)
			}
			if p.Len() != na.Paths[pi].Len() {
				t.Fatalf("%s: query %q answer %s: witness length for %s = %d, naive shortest = %d",
					label, q, a.Key(), chi, p.Len(), na.Paths[pi].Len())
			}
		}
	}
}

func TestDenseEngineMatchesNaiveOracle(t *testing.T) { eachTable(t, testDenseEngineMatchesNaiveOracle) }

func testDenseEngineMatchesNaiveOracle(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	queries := oracleQueries(t)
	for trial := 0; trial < 12; trial++ {
		g := randomDAG(r, 5, 0.5, sigmaAB)
		for qi, q := range queries {
			checkAgainstNaive(t, q, g, fmt.Sprintf("trial %d query %d", trial, qi))
		}
	}
}

func TestDenseEngineMatchesNaiveOnRandomQueries(t *testing.T) {
	eachTable(t, testDenseEngineMatchesNaiveOnRandomQueries)
}

func testDenseEngineMatchesNaiveOnRandomQueries(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 30; trial++ {
		g := randomDAG(r, 4+r.Intn(3), 0.45, sigmaAB)
		q := randomOracleQuery(t, r)
		checkAgainstNaive(t, q, g, fmt.Sprintf("trial %d", trial))
	}
}

// TestEngineCacheAcrossGraphs evaluates one query object against many
// graphs in sequence, exercising the cross-Eval engine cache (the joint
// runner and symbol table persist; everything graph-dependent must be
// refreshed).
func TestEngineCacheAcrossGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	q := MustParse("Ans(x, y, p1, p2) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	for trial := 0; trial < 10; trial++ {
		g := randomDAG(r, 5, 0.6, sigmaAB)
		checkAgainstNaive(t, q, g, fmt.Sprintf("graph %d", trial))
	}
}

// sigmaRich is the label-rich test alphabet (|Σ| = 8).
var sigmaRich = []rune("abcdefgh")

func envRich() Env { return Env{Sigma: sigmaRich} }

// skewedDAG builds a label-rich DAG with a skewed degree profile:
// low-numbered nodes are hubs with dense fan-out over many labels, the
// tail is sparse. On DAGs NaiveEval with maxLen = n is complete, so the
// naive oracle pins the pruned label-directed BFS exactly.
func skewedDAG(r *rand.Rand, n int, sigma []rune) *graph.DB {
	g := graph.NewDB()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	for i := 0; i < n; i++ {
		density := 2.0 / float64(i+2) // hubs early, sparse tail
		for j := i + 1; j < n; j++ {
			if r.Float64() < density {
				g.AddEdge(graph.Node(i), sigma[r.Intn(len(sigma))], graph.Node(j))
			}
			if r.Float64() < density/2 {
				// Parallel edge under a second label: multi-label fan-out.
				g.AddEdge(graph.Node(i), sigma[r.Intn(len(sigma))], graph.Node(j))
			}
		}
	}
	return g
}

// labelRichQueries mixes selective queries (languages over a sliver of
// Σ — the label-directed BFS prunes almost everything) with permissive
// and binary-relation ones on the 8-letter alphabet.
func labelRichQueries(t *testing.T) []*Query {
	t.Helper()
	srcs := []string{
		"Ans(x, y, p1, p2) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)",
		"Ans(x, y, p) <- (x,p,y), (a|b)*c(p)",
		"Ans(x, y, p1, p2) <- (x,p1,z), (z,p2,y), eq(p1,p2)",
		"Ans(x, y, p1, p2) <- (x,p1,y), (x,p2,y), prefix(p1,p2)",
		"Ans(x, z) <- (x,p1,y), (y,p2,z), c*(p1), [abcdefgh]*(p2)",
		"Ans(x, y) <- (x,p1,z), (z,p2,y), (ab)+(p1), h+(p2)",
		"Ans() <- (x,p1,y), (x,p2,y), el(p1,p2), a+(p1), [cdef]+(p2)",
	}
	out := make([]*Query, len(srcs))
	for i, s := range srcs {
		out[i] = MustParse(s, envRich())
	}
	return out
}

// checkPrunedUnpruned asserts that the label-directed BFS and the
// exhaustive-enumeration ablation produce identical answer sets and
// witness lengths — the pruned == unpruned semantics property.
func checkPrunedUnpruned(t *testing.T, q *Query, g *graph.DB, label string) {
	t.Helper()
	pruned, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatalf("%s: pruned eval: %v", label, err)
	}
	full, err := Eval(q, g, Options{NoPrune: true})
	if err != nil {
		t.Fatalf("%s: unpruned eval: %v", label, err)
	}
	if len(pruned.Answers) != len(full.Answers) {
		t.Fatalf("%s: query %q: pruned %d answers, unpruned %d", label, q, len(pruned.Answers), len(full.Answers))
	}
	for i, a := range pruned.Answers {
		fa := full.Answers[i]
		if a.Key() != fa.Key() {
			t.Fatalf("%s: query %q: answer %d differs: pruned %s, unpruned %s", label, q, i, a.Key(), fa.Key())
		}
		for pi, chi := range q.HeadPaths {
			if a.Paths[pi].Len() != fa.Paths[pi].Len() {
				t.Fatalf("%s: query %q answer %s: witness length for %s: pruned %d, unpruned %d",
					label, q, a.Key(), chi, a.Paths[pi].Len(), fa.Paths[pi].Len())
			}
		}
	}
}

// TestLabelDirectedMatchesNaiveOnLabelRich pins the label-directed BFS
// on label-rich skewed graphs three ways: against the naive oracle
// (answers and shortest-witness lengths), against the unpruned
// exhaustive enumeration, and stream against eval.
func TestLabelDirectedMatchesNaiveOnLabelRich(t *testing.T) {
	eachTable(t, testLabelDirectedMatchesNaiveOnLabelRich)
}

func testLabelDirectedMatchesNaiveOnLabelRich(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	queries := labelRichQueries(t)
	for trial := 0; trial < 8; trial++ {
		g := skewedDAG(r, 5+r.Intn(3), sigmaRich)
		for qi, q := range queries {
			label := fmt.Sprintf("trial %d query %d", trial, qi)
			checkAgainstNaive(t, q, g, label)
			checkPrunedUnpruned(t, q, g, label)
			checkStreamAgainstEval(t, q, g, label)
		}
	}
}

// TestConcurrentProgramLabelRich shares one compiled Program (and with
// it the joint runners' memoized live-label tables, freshly warmed per
// borrowed engine) between goroutines evaluating and streaming a
// label-rich graph; run under -race.
func TestConcurrentProgramLabelRich(t *testing.T) {
	q := MustParse("Ans(x, y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", envRich())
	g := skewedDAG(rand.New(rand.NewSource(89)), 8, sigmaRich)
	prog, err := CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prog.Eval(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := prog.Eval(context.Background(), g, Options{})
				if err != nil {
					errs[w] = err
					return
				}
				if len(res.Answers) != len(ref.Answers) {
					errs[w] = fmt.Errorf("worker %d: got %d answers, want %d", w, len(res.Answers), len(ref.Answers))
					return
				}
				n := 0
				for _, err := range prog.Stream(context.Background(), g, StreamOptions{}) {
					if err != nil {
						errs[w] = err
						return
					}
					n++
				}
				if n != len(ref.Answers) {
					errs[w] = fmt.Errorf("worker %d: streamed %d answers, want %d", w, n, len(ref.Answers))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentEvalSameQuery runs concurrent Evals of one query object;
// the engine cache hands engines off atomically, so results must be
// identical and race-free (run under -race).
func TestConcurrentEvalSameQuery(t *testing.T) {
	q := MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	// The reference run uses a separate but identical graph so the shared
	// graph below is evaluated cold: the first concurrent Evals race to
	// build its adjacency snapshot and the engine cache entry.
	ref, err := Eval(q, stringGraph("aaabbb"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := stringGraph("aaabbb")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := Eval(q, g, Options{})
				if err != nil {
					errs[w] = err
					return
				}
				if len(res.Answers) != len(ref.Answers) {
					errs[w] = fmt.Errorf("worker %d: got %d answers, want %d", w, len(res.Answers), len(ref.Answers))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
