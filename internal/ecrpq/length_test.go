package ecrpq_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/regex"
	"repro/internal/relations"
	"repro/internal/workload"
)

// TestLengthRelationsMatchExpansion runs each length relation as the
// parser builds it — in class form, compiled against the component's
// partition — and as its label-level expansion passed through
// Env.Relations, which the parser consults before its builtins. The
// answers must fingerprint alike by default and under NoPrune, on one
// worker and on two, on label-rich graphs over 8, 32 and 256 labels, with
// x bound to node 7 (node 0, the biggest hub, makes NoPrune over the
// expansion slow without testing more).
func TestLengthRelationsMatchExpansion(t *testing.T) {
	sigmas := []struct {
		name  string
		sigma []rune
	}{
		{"sigma=8", workload.LabelRichSigma(8)},
		{"sigma=32", workload.LabelRichSigma(32)},
		{"sigma=256", workload.BigAlphabetSigma(256)},
	}
	answered := 0
	for si, sc := range sigmas {
		// lo and hi split Σ in halves, so the class-bearing atoms read as
		// many labels at every alphabet size.
		half := len(sc.sigma) / 2
		lo, hi := halfClass(sc.sigma[:half]), halfClass(sc.sigma[half:])
		texts := []string{
			"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)",
			"Ans(x,y) <- (x,p1,z), (z,p2,y), " + lo + "+(p1), " + hi + "+(p2), el(p1,p2)",
			"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), (b|c)+(p2), lt(p1,p2)",
			"Ans(x,z) <- (x,p1,y), (x,p2,z), " + hi + "+(p1), le(p2,p1), " + lo + "*(p2)",
			"Ans(x,y,p2) <- (x,p1,z), (z,p2,y), " + lo + "(p1), .*(p2), le(p1,p2)",
		}
		if len(sc.sigma) <= 32 {
			// Three tapes: NoPrune over the expansion's 256 singleton cells
			// a tape takes tens of seconds at σ = 256.
			texts = append(texts, "Ans(y,w) <- (x,p1,y), (x,p2,z), (z,p3,w), "+lo+hi+"?(p1), el(p1,p2), lt(p3,p1), a*(p3)")
		}
		g := workload.LabelRich(rand.New(rand.NewSource(int64(40+si))), 40, sc.sigma, 4.0)
		s := g.Snapshot()
		builtin := ecrpq.Env{Sigma: sc.sigma}
		expanded := ecrpq.Env{Sigma: sc.sigma, Relations: map[string]*relations.Relation{
			"el": relations.EqualLength(sc.sigma).Expand(),
			"lt": relations.ShorterLen(sc.sigma).Expand(),
			"le": relations.ShorterEqLen(sc.sigma).Expand(),
		}}
		for _, text := range texts {
			for _, noPrune := range []bool{false, true} {
				for _, w := range []int{1, 2} {
					opts := ecrpq.Options{Bind: map[ecrpq.NodeVar]graph.Node{"x": 7}, NoPrune: noPrune, BFSWorkers: w}
					label := fmt.Sprintf("%s %s NoPrune=%v W=%d", sc.name, text, noPrune, w)
					got := evalText(t, label, text, builtin, s, opts)
					want := evalText(t, label, text, expanded, s, opts)
					if got.Fingerprint() != want.Fingerprint() || len(got.Answers) != len(want.Answers) {
						t.Fatalf("%s: class form gives %d answers (%016x), expansion %d (%016x)",
							label, len(got.Answers), got.Fingerprint(), len(want.Answers), want.Fingerprint())
					}
					if len(got.Answers) > 0 {
						answered++
					}
				}
			}
		}
	}
	if answered < 40 {
		t.Fatalf("only %d of 68 evaluations have answers; the graphs exercise too little", answered)
	}
}

// halfClass renders the labels as a character class of the query syntax.
func halfClass(labels []rune) string {
	rs := make([]regex.Range, len(labels))
	for i, a := range labels {
		rs[i] = regex.Range{Lo: a, Hi: a}
	}
	return regex.NewClass(false, rs...).String()
}

func evalText(t *testing.T, label, text string, env ecrpq.Env, s *graph.Snapshot, opts ecrpq.Options) *ecrpq.Result {
	t.Helper()
	q, err := ecrpq.Parse(text, env)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	p, err := plan.Compile(q, env)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	res, err := p.EvalSnapshot(context.Background(), s, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res
}

// TestLengthRelationOverBigAlphabet parses, compiles and first-evaluates
// the selective el query over an alphabet of 10⁴ labels on the big-alphabet
// graph: el spelled over labels would be 10⁸ transitions; in class form
// the whole cold path fits in 50 ms and 5 MB (the best of three runs, so
// a busy host does not fail it).
func TestLengthRelationOverBigAlphabet(t *testing.T) {
	sigma := workload.BigAlphabetSigma(10000)
	env := ecrpq.Env{Sigma: sigma}
	s := workload.BigAlphabetGraph().Snapshot()
	const text = "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)"
	// Node 54 is one of the graph's five sources of an a-edge.
	opts := ecrpq.Options{Bind: map[ecrpq.NodeVar]graph.Node{"x": 54}}
	best, bestBytes := time.Duration(1<<62), uint64(1<<62)
	var before, after runtime.MemStats
	for run := 0; run < 3; run++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		evalText(t, "big alphabet", text, env, s, opts)
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&after)
		best, bestBytes = min(best, elapsed), min(bestBytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("|Σ| = 10⁴: parse + compile + first evaluation %v, %d KiB", best, bestBytes>>10)
	if best > 50*time.Millisecond {
		t.Errorf("parse + compile + first evaluation took %v, bound 50ms", best)
	}
	if bestBytes > 5<<20 {
		t.Errorf("parse + compile + first evaluation allocated %d bytes, bound 5 MiB", bestBytes)
	}
}
