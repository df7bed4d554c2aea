package pathquery_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/workload"
)

// TestMinimizedWork pins the product states an evaluation of each
// engine_warm and adhoc_cold case explores — the least MaxProductStates
// it passes with, as in TestFigure1 — by default, where the product BFS
// runs over each component's minimal class table, and under NoPrune,
// where it runs over the lazy runner's joint states. It also pins each
// component's table shape: the joint states the exploration reached →
// the table's live states, with each tape's label classes before →
// after coarsening, or "lazy" when the exploration passed its bound — and
// the fingerprint of the answers, which neither the tables nor the
// automata behind them may change. For adhoc_cold's six texts it also
// pins the allocations of what one cold query costs its caller: parse,
// compile and the first evaluation on a fresh program, counted by
// testing.AllocsPerRun, which runs at GOMAXPROCS 1 (printed but not
// compared under the race detector). The fresh program's evaluation
// buffers come from the process-wide scratch pool, which AllocsPerRun's
// warm-up run has grown to the query's needs as a rotation's earlier
// queries would, so the count is the same whatever ran before. The
// cases are the benchmark's, built from the same internal/workload
// generators with the same seeds and texts but not permuted, so x binds
// node 0. The counts and shapes are deterministic: a row that moves is a
// real change in the work an evaluation does or in the table it runs on.
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

		// The committed counts, shapes and answer fingerprint. NoPrune
		// explores the lazy runner's joint states, which the tables do
		// not change; the fingerprint depends on neither.
		def, noPrune int
		table        string
		fp           uint64

		// cold, set for adhoc_cold's cases, holds the query as that
		// workload receives it and the committed allocations of parsing,
		// compiling and first evaluating it.
		cold *coldQuery
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
	env32 := ecrpq.Env{Sigma: s32}
	lr32 := lr["selective/sigma=32/n=256"].Graph
	sigma := workload.BigAlphabetSigma(10000)
	const band = 2500
	bandPlus := func(lo, hi rune) string {
		return regex.NewClass(false, regex.Range{Lo: lo, Hi: hi}).String() + "+"
	}
	bigAlpha := workload.BigAlphabetGraph()
	bigText := func(body string) string { return "Ans(x,y) <- " + body }
	cold := func(name string, g *graph.DB, text string, env ecrpq.Env, def, noPrune int, table string, fp uint64, allocs int) workCase {
		return workCase{name: name, g: g, q: ecrpq.MustParse(text, env), bind: x0, def: def, noPrune: noPrune, table: table, fp: fp,
			cold: &coldQuery{text, env, allocs}}
	}
	cases := []workCase{
		{"fig1a_m3", workload.REIGraph(ab), rei, nil, ecrpq.Options{}, 1, 54, "3→2 [2→1 2→1 2→1]", 0x5b2a969b42d238a4, nil},
		{"lr_selective", lr["selective/sigma=8/n=256"].Graph, lr["selective/sigma=8/n=256"].Query, x0, ecrpq.Options{}, 97, 3787, "2→2 [3→1 3→1]", 0xc83736fe702239f6, nil},
		{"lr_permissive", lr["permissive/sigma=32/n=256"].Graph, lr["permissive/sigma=32/n=256"].Query, x0, ecrpq.Options{}, 255, 256, "2→1 [32→1]", 0xddcf6039779086ea, nil},
		{"lr_chain", lr["chain/sigma=8/n=256"].Graph, lr["chain/sigma=8/n=256"].Query, x0, ecrpq.Options{}, 33, 908, "2→2 [1→1] + 2→2 [1→1]", 0x61b11fe896d1bfbc, nil},
		{"bigcomp_w1", big, bigQ, x0, ecrpq.Options{BFSWorkers: 1}, 28180, 66270, "5→2 [2→2 2→2]", 0x8a8f89d20af59f95, nil},
		{"bigcomp_wmax", big, bigQ, x0, ecrpq.Options{}, 28180, 66270, "5→2 [2→2 2→2]", 0x8a8f89d20af59f95, nil},
		// adhoc_cold's six texts.
		cold("bigalpha_head", bigAlpha, bigText("(x,p,y), "+bandPlus(sigma[0], sigma[band-1])+"(p)"), ecrpq.Env{}, 1704, 1704, "2→2 [1→1]", 0xc0b45faa69b3741f, 281),
		cold("bigalpha_tail", bigAlpha, bigText("(x,p,y), "+bandPlus(sigma[len(sigma)/2], sigma[len(sigma)/2+band-1])+"(p)"), ecrpq.Env{}, 1, 1, "2→2 [1→1]", 0xa8c7f832281a39c5, 278),
		cold("bigalpha_join", bigAlpha, bigText("(x,p1,y), (x,p2,z), "+bandPlus(sigma[0], sigma[band/2-1])+"(p1), "+
			bandPlus(sigma[band/2], sigma[band-1])+"(p2)"), ecrpq.Env{}, 1463, 1464, "2→2 [1→1] + 2→2 [1→1]", 0x6d8c7ad40f949f0b, 545),
		cold("lr32_selective", lr32, "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env32, 36, 396, "2→2 [4→1 4→1]", 0xba4f7a1510c183ee, 738),
		cold("lr32_permissive", lr32, fmt.Sprintf("Ans(x,y) <- (x,p,y), [%s]*(p)", string(s32)), env32, 255, 256, "2→1 [32→1]", 0xddcf6039779086ea, 667),
		cold("lr32_chain", lr32, "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", env32, 14, 70, "2→2 [1→1] + 2→2 [1→1]", 0x970777a288aef96b, 716),
		// Not a benchmark case: the selective text over the |Σ| = 10⁴
		// alphabet, where el reads Σ as one class (5 cells beside a and
		// b). x binds node 54, one of the graph's five sources of an a-edge.
		{"bigalpha_el", bigAlpha, ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", ecrpq.Env{Sigma: sigma}),
			map[ecrpq.NodeVar]graph.Node{"x": 54}, ecrpq.Options{}, 1, 5, "2→2 [5→1 5→1]", 0xa8c7f832281a39c5, nil},
	}
	t.Logf("%-16s %12s %12s  %-18s  %-24s  %s", "case", "default", "NoPrune", "fingerprint", "tables", "cold allocs")
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
		table := tableShapes(t, c.q)
		opts := c.opts
		opts.Bind = c.bind
		res, err := ecrpq.Eval(c.q, c.g, opts)
		if err != nil {
			t.Fatal(err)
		}
		fp := res.Fingerprint()
		allocs := "-"
		if c.cold != nil {
			n := c.cold.allocations(t, c.g, opts)
			allocs = fmt.Sprint(n)
			if n != c.cold.allocs && !raceEnabled {
				t.Errorf("%s: %d allocations to parse, compile and first evaluate; committed %d", c.name, n, c.cold.allocs)
			}
		}
		t.Logf("%-16s %12d %12d  %#016x  %-24s  %s", c.name, def, ref, fp, table, allocs)
		if def > ref {
			t.Errorf("%s: default explores %d product states, NoPrune %d", c.name, def, ref)
		}
		if def != c.def || ref != c.noPrune {
			t.Errorf("%s: %d product states by default, %d under NoPrune; committed %d and %d", c.name, def, ref, c.def, c.noPrune)
		}
		if table != c.table {
			t.Errorf("%s: tables %q, committed %q", c.name, table, c.table)
		}
		if fp != c.fp {
			t.Errorf("%s: fingerprint %#016x, committed %#016x", c.name, fp, c.fp)
		}
	}
}

// coldQuery is a query as text, with the allocations TestMinimizedWork
// committed for it.
type coldQuery struct {
	text   string
	env    ecrpq.Env
	allocs int
}

// allocations counts the allocations of one cold query: parse the text,
// compile a fresh program and evaluate it once.
func (c *coldQuery) allocations(t *testing.T, g *graph.DB, opts ecrpq.Options) int {
	t.Helper()
	return int(testing.AllocsPerRun(5, func() {
		q, err := ecrpq.Parse(c.text, c.env)
		if err == nil {
			_, err = ecrpq.Eval(q, g, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}))
}

// tableShapes renders the minimal class table of each of q's components
// as "explored→minimal [classes before→after per tape]", or "lazy", the
// components joined by " + ".
func tableShapes(t *testing.T, q *ecrpq.Query) string {
	t.Helper()
	prog, err := ecrpq.CompileProgram(q, false)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, c := range prog.Components() {
		if c.Table == nil {
			out = append(out, "lazy")
			continue
		}
		classes := make([]string, len(c.Table.Classes))
		for i, n := range c.Table.Classes {
			classes[i] = fmt.Sprintf("%d→%d", n[0], n[1])
		}
		out = append(out, fmt.Sprintf("%d→%d [%s]", c.Table.JointStates[0], c.Table.JointStates[1], strings.Join(classes, " ")))
	}
	return strings.Join(out, " + ")
}
