package pathquery_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/workload"
)

// TestMinimizedWork pins the product states an evaluation of each
// engine_warm case (and adhoc_cold's lr32_permissive, the same query and
// graph as lr_permissive) explores — the least MaxProductStates it passes
// with, as in TestFigure1 — by default, where the product BFS runs over
// each component's minimal class table, and under NoPrune, where it runs
// over the lazy runner's joint states. The cases are the benchmark's,
// built from the same internal/workload generators with the same seeds
// but not permuted, so x binds node 0. The counts are deterministic: a
// row that moves is a real change in the work an evaluation does.
//
//	go test -run TestMinimizedWork -v .
//
// prints the table. Default never explores more than NoPrune.
func TestMinimizedWork(t *testing.T) {
	ab := []rune{'a', 'b'}
	type workCase struct {
		name string
		g    *graph.DB
		q    *ecrpq.Query
		bind map[ecrpq.NodeVar]graph.Node
		opts ecrpq.Options

		// The committed counts. NoPrune explores the lazy runner's joint
		// states, which the tables do not change.
		def, noPrune int
	}
	x0 := map[ecrpq.NodeVar]graph.Node{"x": 0}
	rei, err := workload.REIQuery([]string{"(a|b)*a", "a+|b+", "(ab|ba)*(a|b)?"}, ab)
	if err != nil {
		t.Fatal(err)
	}
	lr := map[string]workload.ScaleCase{}
	for _, c := range workload.ScaleLabelRichCases() {
		lr[c.Name] = c
	}
	big := workload.Random(rand.New(rand.NewSource(8)), 32, 3.0, ab)
	bigQ := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), (a|b)*a(p1), (a|b)*b(p2), el(p1,p2)", ecrpq.Env{Sigma: ab})
	s32 := workload.LabelRichSigma(32)
	lr32 := ecrpq.MustParse(fmt.Sprintf("Ans(x,y) <- (x,p,y), [%s]*(p)", string(s32)), ecrpq.Env{Sigma: s32})
	cases := []workCase{
		{"fig1a_m3", workload.REIGraph(ab), rei, nil, ecrpq.Options{}, 1, 54},
		{"lr_selective", lr["selective/sigma=8/n=256"].Graph, lr["selective/sigma=8/n=256"].Query, x0, ecrpq.Options{}, 97, 3787},
		{"lr_permissive", lr["permissive/sigma=32/n=256"].Graph, lr["permissive/sigma=32/n=256"].Query, x0, ecrpq.Options{}, 255, 1405},
		{"lr_chain", lr["chain/sigma=8/n=256"].Graph, lr["chain/sigma=8/n=256"].Query, x0, ecrpq.Options{}, 33, 931},
		{"bigcomp_w1", big, bigQ, x0, ecrpq.Options{BFSWorkers: 1}, 28180, 66270},
		{"bigcomp_wmax", big, bigQ, x0, ecrpq.Options{}, 28180, 66270},
		{"lr32_permissive", lr["selective/sigma=32/n=256"].Graph, lr32, x0, ecrpq.Options{}, 255, 1405},
	}
	t.Logf("%-16s %12s %12s", "case", "default", "NoPrune")
	for _, c := range cases {
		states := func(noPrune bool) int {
			return leastBudget(t, ecrpq.ErrBudget, func(b int) error {
				opts := c.opts
				opts.Bind, opts.MaxProductStates, opts.NoPrune = c.bind, b, noPrune
				if noPrune {
					opts.BFSWorkers = 1
				}
				_, err := ecrpq.Eval(c.q, c.g, opts)
				return err
			})
		}
		def, ref := states(false), states(true)
		t.Logf("%-16s %12d %12d", c.name, def, ref)
		if def > ref {
			t.Errorf("%s: default explores %d product states, NoPrune %d", c.name, def, ref)
		}
		if def != c.def || ref != c.noPrune {
			t.Errorf("%s: %d product states by default, %d under NoPrune; committed %d and %d", c.name, def, ref, c.def, c.noPrune)
		}
	}
}
