package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/regex"
	"repro/internal/workload"
)

// libBudget is the product-state budget of the library workloads, the
// one the repository's own scale benchmarks use.
const libBudget = 50_000_000

// libCase is one query of a library workload's rotation.
type libCase struct {
	name   string
	env    ecrpq.Env
	db     *graph.DB
	opts   ecrpq.Options
	repeat int // evaluations per rotation

	// engine_warm: a prepared plan over one pinned snapshot.
	query *ecrpq.Query
	plan  *plan.Plan
	snap  *graph.Snapshot
	// adhoc_cold: the query arrives as text and is compiled per use.
	text string

	ref     uint64 // reference fingerprint, computed at set-up
	answers int
}

// reference evaluates the case on a program of its own with label-directed
// pruning off and the sequential engine — the configuration the measured
// one must agree with byte for byte.
func (c *libCase) reference() error {
	q := c.query
	if q == nil {
		var err error
		if q, err = ecrpq.Parse(c.text, c.env); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	p, err := plan.Compile(q, c.env)
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	opts := c.opts
	opts.NoPrune, opts.BFSWorkers = true, 1
	res, err := p.EvalSnapshot(context.Background(), c.db.Snapshot(), opts)
	if err != nil {
		return fmt.Errorf("%s: reference evaluation: %w", c.name, err)
	}
	c.ref, c.answers = res.Fingerprint(), len(res.Answers)
	return nil
}

// libFx runs a rotation of cases from one goroutine.
type libFx struct {
	cases   []libCase
	ops     int64
	queryMs []float64 // the last rotation's query latencies; reused
}

func (f *libFx) clients() int                 { return 1 }
func (f *libFx) counters() map[string]float64 { return nil }
func (f *libFx) verify() (int, int)           { return 0, 0 }
func (f *libFx) close()                       {}

// op is one rotation. Every case's last result is compared with the
// set-up reference. One query is what one caller waits for: an evaluation
// and, when the query arrives as text, the parse and compile before it.
func (f *libFx) op(_ int, tr *tracer) opResult {
	f.ops++
	ctx := context.Background()
	root := tr.begin(spanOp, -1, f.ops)
	var out opResult
	f.queryMs = f.queryMs[:0]
	for i := range f.cases {
		c := &f.cases[i]
		var res *ecrpq.Result
		var err error
		for r := 0; r < c.repeat && err == nil; r++ {
			t0 := time.Now()
			p, s := c.plan, c.snap
			if c.text != "" {
				p, s, err = c.compileCold(tr, root, f.ops)
				if err != nil {
					break
				}
			}
			id := tr.begin(spanEval, root, f.ops)
			res, err = p.EvalSnapshot(ctx, s, c.opts)
			tr.end(id)
			f.queryMs = append(f.queryMs, float64(time.Since(t0).Nanoseconds())/1e6)
			if err == nil {
				out.answers += len(res.Answers)
			}
		}
		if err != nil || res.Fingerprint() != c.ref {
			out.failed = true
		}
	}
	tr.end(root)
	out.queryMs = f.queryMs
	return out
}

// compileCold is what a caller with a query string pays before its first
// evaluation: parse, compile, take the current snapshot.
func (c *libCase) compileCold(tr *tracer, root int32, op int64) (*plan.Plan, *graph.Snapshot, error) {
	id := tr.begin(spanParse, root, op)
	q, err := ecrpq.Parse(c.text, c.env)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin(spanCompile, root, op)
	p, err := plan.Compile(q, c.env)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin(spanSnapshot, root, op)
	s := c.db.Snapshot()
	tr.end(id)
	return p, s, nil
}

// Query texts of the label-rich family (workload.ScaleLabelRichCases
// builds the same queries; adhoc_cold needs them as text).
const (
	selectiveText = "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)"
	chainText     = "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)"
	bigcompText   = "Ans(x,y) <- (x,p1,z), (z,p2,y), (a|b)*a(p1), (a|b)*b(p2), el(p1,p2)"
)

func permissiveText(sigma []rune) string {
	return fmt.Sprintf("Ans(x,y) <- (x,p,y), [%s]*(p)", string(sigma))
}

// labelRichCase finds one case of the repository's Scale_LabelRich suite.
func labelRichCase(suite []workload.ScaleCase, name string) workload.ScaleCase {
	for _, c := range suite {
		if c.Name == name {
			return c
		}
	}
	panic("benchmark: no label-rich case " + name)
}

// Repeat counts of the engine_warm rotation. They were fixed when the
// benchmark landed so that no case takes more than about 30 % of a
// rotation on the reference box, and are not retuned: changing them
// changes what ops_per_s means.
const (
	repFig1a      = 300
	repSelective  = 36
	repPermissive = 18
	repChain      = 50
)

// setupEngineWarm builds the six prepared cases of engine_warm.
func setupEngineWarm(seed int64) (*libFx, error) {
	r := rand.New(rand.NewSource(seed))
	ab := []rune{'a', 'b'}
	fx := &libFx{}
	add := func(name string, base *graph.DB, q *ecrpq.Query, env ecrpq.Env, bound bool, workers, repeat int) {
		p := permute(base, r)
		c := libCase{name: name, env: env, db: p.memDB(), query: q, repeat: repeat,
			opts: ecrpq.Options{MaxProductStates: libBudget, BFSWorkers: workers}}
		if bound {
			c.opts.Bind = map[ecrpq.NodeVar]graph.Node{"x": p.perm[0]}
		}
		fx.cases = append(fx.cases, c)
	}

	rei, err := workload.REIQuery([]string{"(a|b)*a", "a+|b+", "(ab|ba)*(a|b)?"}, ab)
	if err != nil {
		return nil, err
	}
	add("fig1a_m3", workload.REIGraph(ab), rei, ecrpq.Env{Sigma: ab}, false, 0, repFig1a)

	lr := workload.ScaleLabelRichCases()
	sel := labelRichCase(lr, "selective/sigma=8/n=256")
	add("lr_selective", sel.Graph, sel.Query, ecrpq.Env{}, true, 0, repSelective)
	perm := labelRichCase(lr, "permissive/sigma=32/n=256")
	add("lr_permissive", perm.Graph, perm.Query, ecrpq.Env{}, true, 0, repPermissive)
	chain := labelRichCase(lr, "chain/sigma=8/n=256")
	add("lr_chain", chain.Graph, chain.Query, ecrpq.Env{}, true, 0, repChain)

	big := workload.Random(rand.New(rand.NewSource(8)), 32, 3.0, ab)
	bigQ, err := ecrpq.Parse(bigcompText, ecrpq.Env{Sigma: ab})
	if err != nil {
		return nil, err
	}
	add("bigcomp_w1", big, bigQ, ecrpq.Env{Sigma: ab}, true, 1, 1)
	// Same graph, same bound node: only the worker count differs.
	w1 := fx.cases[len(fx.cases)-1]
	w1.name, w1.opts.BFSWorkers = "bigcomp_wmax", 0
	fx.cases = append(fx.cases, w1)

	for i := range fx.cases {
		c := &fx.cases[i]
		if c.plan, err = plan.Compile(c.query, c.env); err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		c.snap = c.db.Snapshot()
		if err := c.reference(); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// bandPlus renders C+ for the inclusive label band [lo, hi] in the
// query syntax's class form.
func bandPlus(lo, hi rune) string {
	return regex.NewClass(false, regex.Range{Lo: lo, Hi: hi}).String() + "+"
}

// setupAdhocCold builds the six cold cases of adhoc_cold: the three
// big-alphabet shapes (|Σ| = 10⁴) as text with class syntax, and the
// label-rich shapes at σ = 32.
func setupAdhocCold(seed int64) (*libFx, error) {
	r := rand.New(rand.NewSource(seed))
	fx := &libFx{}
	add := func(name, text string, env ecrpq.Env, p permuted, db *graph.DB) {
		fx.cases = append(fx.cases, libCase{name: name, text: text, env: env, db: db, repeat: 1,
			opts: ecrpq.Options{MaxProductStates: libBudget,
				Bind: map[ecrpq.NodeVar]graph.Node{"x": p.perm[0]}}})
	}

	sigma := workload.BigAlphabetSigma(10000)
	const band = 2500
	bp := permute(workload.BigAlphabetGraph(), r)
	bdb := bp.memDB()
	add("bigalpha_head", "Ans(x,y) <- (x,p,y), "+bandPlus(sigma[0], sigma[band-1])+"(p)", ecrpq.Env{}, bp, bdb)
	add("bigalpha_tail", "Ans(x,y) <- (x,p,y), "+bandPlus(sigma[len(sigma)/2], sigma[len(sigma)/2+band-1])+"(p)", ecrpq.Env{}, bp, bdb)
	add("bigalpha_join", "Ans(x,y) <- (x,p1,y), (x,p2,z), "+bandPlus(sigma[0], sigma[band/2-1])+"(p1), "+
		bandPlus(sigma[band/2], sigma[band-1])+"(p2)", ecrpq.Env{}, bp, bdb)

	s32 := workload.LabelRichSigma(32)
	lp := permute(labelRichCase(workload.ScaleLabelRichCases(), "selective/sigma=32/n=256").Graph, r)
	ldb := lp.memDB()
	env := ecrpq.Env{Sigma: s32}
	add("lr32_selective", selectiveText, env, lp, ldb)
	add("lr32_permissive", permissiveText(s32), env, lp, ldb)
	add("lr32_chain", chainText, env, lp, ldb)

	for i := range fx.cases {
		if err := fx.cases[i].reference(); err != nil {
			return nil, err
		}
	}
	return fx, nil
}
