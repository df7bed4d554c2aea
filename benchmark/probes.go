package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/automata"
	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/regex"
	"repro/internal/relations"
	"repro/internal/workload"
)

// The layer probes time calls into each layer's exported functions, the
// same way in every traced run whatever the workload: they are where the
// per-layer time metrics come from. Each is a short loop over seeded
// inputs; a probe reports a median where single calls are long enough to
// time and a mean over a batch where they are not.

// prober carries what the probes share.
type prober struct {
	m     map[string]metric
	cfg   config
	r     *rand.Rand
	fresh rune // last of the never-before-used labels handed out
}

// n scales an iteration count with the window length, so the smoke test's
// short windows get short probes.
func (p *prober) n(full int) int {
	return max(3, int(float64(full)*min(1, p.cfg.seconds/10)))
}

func (p *prober) set(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

// meanNs times n calls of f as one batch.
func meanNs(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// medianUs times n calls of f one by one; before, when non-nil, runs
// untimed ahead of each.
func medianUs(n int, before, f func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		if before != nil {
			before()
		}
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(ds)
}

func runProbes(m map[string]metric, cfg config) error {
	p := &prober{m: m, cfg: cfg, r: rand.New(rand.NewSource(cfg.seed)), fresh: 0x2460}
	p.regexAutomata()
	if err := p.relations(); err != nil {
		return err
	}
	p.intern()
	if err := p.compile(); err != nil {
		return err
	}
	if err := p.engineCases(); err != nil {
		return err
	}
	if err := p.firstOverWarm(); err != nil {
		return err
	}
	if err := p.advance(); err != nil {
		return err
	}
	return p.serving()
}

// regexAutomata: parsing and partitioning at |Σ| = 10⁴, subset stepping
// and co-reachability on the automaton of a mid-sized expression.
func (p *prober) regexAutomata() {
	const src = "((a|b)*a(a|b)(a|b)|c+d?)*(ab|ba)+[e-h]*"
	p.set("regex.parse_us", meanNs(p.n(2000), func() { regex.MustParse(src) })/1e3, "us")

	sigma := workload.BigAlphabetSigma(10000)
	p.set("regex.partition_us", medianUs(p.n(200), nil, func() {
		var b regex.PartitionBuilder
		for i := 0; i < len(sigma); i += 4 {
			b.AddLabel(sigma[i])
		}
		b.AddClass(regex.NewClass(false, regex.Range{Lo: sigma[0], Hi: sigma[2499]}))
		b.AddClass(regex.NewClass(false, regex.Range{Lo: sigma[1250], Hi: sigma[7499]}))
		b.Build()
	}), "us")

	nfa := automata.FromRegex(regex.MustParse("((a|b)*a(a|b)(a|b)|c+d?)*(ab|ba)+"))
	st := automata.NewStepper(nfa)
	start := nfa.EpsClosure(nfa.Start())
	word := make([]rune, 4096)
	for i := range word {
		word[i] = rune('a' + p.r.Intn(4))
	}
	cur := append([]int(nil), start...)
	i := 0
	p.set("automata.step_ns", meanNs(p.n(400000), func() {
		next := st.Step(cur, word[i%len(word)])
		if len(next) == 0 {
			next = start
		}
		cur = append(cur[:0], next...)
		i++
	}), "ns")
	big := automata.FromRegex(regex.Pow(regex.MustParse("(a|b)*a(a|b)(c|d)?"), 24))
	p.set("automata.coreach_us", medianUs(p.n(300), nil, func() { automata.CoReachable(big) }), "us")
}

// relations: the joint runner of the aⁿbⁿ atoms (a+ on tape 1, b+ on
// tape 2, equal length), walked along a seeded stream of pair symbols;
// a dead step restarts from the start state.
func (p *prober) relations() error {
	sigma := []rune{'a', 'b'}
	atoms := []relations.Atom{
		{Rel: relations.FromLanguage("a+", regex.MustParse("a+")), Pos: []int{0}},
		{Rel: relations.FromLanguage("b+", regex.MustParse("b+")), Pos: []int{1}},
		{Rel: relations.EqualLength(sigma), Pos: []int{0, 1}},
	}
	j, err := relations.NewJoint(2, atoms)
	if err != nil {
		return err
	}
	letters := []rune{'a', 'b', relations.Bot}
	fresh := func() (*relations.JointRunner, []int) {
		r := relations.NewJointRunner(j)
		var syms []int
		for _, x := range letters {
			for _, y := range letters {
				syms = append(syms, r.AddSym([]rune{x, y}))
			}
		}
		return r, syms
	}
	// The stream favours (a,b), the symbol that keeps the run alive.
	stream := make([]int, 4096)
	for i := range stream {
		if stream[i] = 1; p.r.Intn(4) == 0 {
			stream[i] = p.r.Intn(len(letters) * len(letters))
		}
	}
	walk := func(step func(state, sym int) (int, bool), start int, syms []int, steps int) {
		s := start
		for i := 0; i < steps; i++ {
			next, ok := step(s, syms[stream[i%len(stream)]])
			if !ok {
				next = start
			}
			s = next
		}
	}

	// Cold: on a fresh runner, every symbol from every state as the states
	// are discovered, so each Step call is the first for its (state, symbol).
	var r *relations.JointRunner
	var syms []int
	explore := func() {
		for s := 0; s < r.NumStates(); s++ {
			for _, sym := range syms {
				r.Step(s, sym)
			}
		}
	}
	coldUs := medianUs(p.n(400), func() { r, syms = fresh() }, explore)
	p.set("relations.step_cold_ns", coldUs*1e3/float64(r.NumStates()*len(syms)), "ns")
	steps := p.n(2000000)
	p.set("relations.step_memo_ns", medianUs(5, nil, func() { walk(r.Step, r.StartID(), syms, steps) })*1e3/float64(steps), "ns")
	liveUs := medianUs(p.n(400), func() { r, syms = fresh(); explore() }, func() {
		for s := 0; s < r.NumStates(); s++ {
			r.Live(s)
		}
	})
	p.set("relations.live_ns", liveUs*1e3/float64(r.NumStates()), "ns")

	// One shared runner, a private view per goroutine, all walking at once.
	r, syms = fresh()
	g := relations.NewRunnerGroup(r)
	workers := runtime.GOMAXPROCS(0)
	per := p.n(1000000)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := g.View()
			walk(v.Step, r.StartID(), syms, per)
		}()
	}
	wg.Wait()
	p.set("relations.view_step_contended_ns", float64(time.Since(t0).Nanoseconds())/float64(per), "ns")
	return nil
}

// intern: one million distinct 4-int tuples.
func (p *prober) intern() {
	n := p.n(1000000)
	tups := make([][4]int, n)
	for i := range tups {
		tups[i] = [4]int{i, p.r.Intn(1 << 20), p.r.Intn(64), i & 7}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t := intern.NewTable(0)
	t0 := time.Now()
	for i := range tups {
		t.Intern(tups[i][:])
	}
	p.set("intern.intern_ns", float64(time.Since(t0).Nanoseconds())/float64(n), "ns")
	t0 = time.Now()
	for i := range tups {
		t.Lookup(tups[i][:])
	}
	p.set("intern.lookup_ns", float64(time.Since(t0).Nanoseconds())/float64(n), "ns")
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.set("intern.bytes_per_tuple", float64(m1.HeapAlloc-m0.HeapAlloc)/float64(t.Len()), "bytes")
}

// compile: query text to program. plan.compile_us is the planning layer's
// own part: plan.Compile less the ecrpq.CompileProgram it calls.
func (p *prober) compile() error {
	env := ecrpq.Env{Sigma: workload.LabelRichSigma(8)}
	q, err := ecrpq.Parse(selectiveText, env)
	if err != nil {
		return err
	}
	p.set("ecrpq.parse_us", medianUs(p.n(500), nil, func() { ecrpq.Parse(selectiveText, env) }), "us")
	prog := medianUs(p.n(500), nil, func() { ecrpq.CompileProgram(q, false) })
	whole := medianUs(p.n(500), nil, func() { plan.Compile(q, env) })
	p.set("ecrpq.compile_us", prog, "us")
	p.set("plan.compile_us", max(whole-prog, 0), "us")
	return nil
}

// engineCases: each engine_warm case on its own — warm, on a fresh
// program, and on a warm program facing a new snapshot.
func (p *prober) engineCases() error {
	fx, err := setupEngineWarm(p.cfg.seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	warm := map[string]float64{}
	for i := range fx.cases {
		c := &fx.cases[i]
		k := p.n(40)
		if strings.HasPrefix(c.name, "bigcomp") {
			k = p.n(7)
		}
		eval := func(pl *plan.Plan, s *graph.Snapshot) {
			if _, err := pl.EvalSnapshot(ctx, s, c.opts); err != nil {
				panic(err) // set-up evaluated this case already
			}
		}
		eval(c.plan, c.snap)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		warm[c.name] = medianUs(k, nil, func() { eval(c.plan, c.snap) })
		runtime.ReadMemStats(&m1)
		p.set("ecrpq.eval_warm_us."+c.name, warm[c.name], "us")
		p.set("ecrpq.eval_allocs."+c.name, float64(m1.Mallocs-m0.Mallocs)/float64(k), "count")

		var pl *plan.Plan
		p.set("ecrpq.eval_first_us."+c.name, medianUs(k, func() {
			if pl, err = plan.Compile(c.query, c.env); err != nil {
				panic(err)
			}
		}, func() { eval(pl, c.snap) }), "us")

		// The new edge carries a label of its own that no query reads, so
		// the answer and the work stay put and only the snapshot is new.
		var s *graph.Snapshot
		n := c.db.NumNodes()
		p.set("ecrpq.eval_newsnap_us."+c.name, medianUs(k, func() {
			p.fresh++
			c.db.AddEdge(graph.Node(p.r.Intn(n)), p.fresh, graph.Node(p.r.Intn(n)))
			s = c.db.Snapshot()
		}, func() { eval(c.plan, s) }), "us")
	}
	p.set("ecrpq.par_speedup", warm["bigcomp_w1"]/warm["bigcomp_wmax"], "ratio")
	return nil
}

// firstOverWarm: on adhoc_cold's big-alphabet head and join shapes, the
// first evaluation on a fresh program over the second — what building
// the memos costs.
func (p *prober) firstOverWarm() error {
	fx, err := setupAdhocCold(p.cfg.seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for i := range fx.cases {
		c := &fx.cases[i]
		if c.name != "bigalpha_head" && c.name != "bigalpha_join" {
			continue
		}
		var first, second []float64
		for k := p.n(25); k > 0; k-- {
			pl, s, err := c.compileCold(nil, -1, 0)
			if err != nil {
				return err
			}
			for _, ds := range []*[]float64{&first, &second} {
				t0 := time.Now()
				if _, err := pl.EvalSnapshot(ctx, s, c.opts); err != nil {
					return err
				}
				*ds = append(*ds, float64(time.Since(t0).Nanoseconds()))
			}
		}
		p.set("ecrpq.first_over_warm."+c.name, median(first)/median(second), "ratio")
	}
	return nil
}

// advance: the first serve after a write, by what Program.Advance made
// of it. Over the serve graph, through plan.EvalSnapshotCached: a write
// whose label no query can traverse revalidates; a live label runs the
// delta pass on the monotone query and falls back to a full evaluation
// on the one that returns witness paths.
func (p *prober) advance() error {
	m := workload.NewMixedServing(serveGraphSeed)
	pm := permute(m.Graph, p.r)
	db := pm.memDB()
	ctx := context.Background()
	bind := ecrpq.Options{Bind: map[ecrpq.NodeVar]graph.Node{"x": pm.perm[0]}}
	compile := func(text string) (*plan.Plan, error) {
		q, err := ecrpq.Parse(text, m.Env())
		if err != nil {
			return nil, err
		}
		return plan.Compile(q, m.Env())
	}
	rpq, err := compile(serveTexts[0].text)
	if err != nil {
		return err
	}
	wit, err := compile(serveTexts[2].text)
	if err != nil {
		return err
	}
	cache := qcache.New(64 << 20)
	serve := func(pl *plan.Plan) (float64, qcache.Stats, error) {
		s := db.Snapshot()
		before := cache.Stats()
		t0 := time.Now()
		_, _, err := pl.EvalSnapshotCached(ctx, s, bind, cache)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		after := cache.Stats()
		after.Revalidated -= before.Revalidated
		after.Incremental -= before.Incremental
		after.Misses -= before.Misses
		return us, after, err
	}
	for _, pl := range []*plan.Plan{rpq, wit} {
		if _, _, err := serve(pl); err != nil {
			return err
		}
	}
	// A write always leaves the bound node, so a live label is sure to
	// touch the one start assignment and the delta pass has work to do.
	write := func(label rune) {
		for before := db.Epoch(); db.Epoch() == before; {
			db.AddEdge(pm.perm[0], label, graph.Node(p.r.Intn(pm.nodes)))
		}
	}
	var reval, incr, fallback []float64
	for k := p.n(30); k > 0; k-- {
		write('h') // no served query reads h
		us, d, err := serve(rpq)
		if err != nil {
			return err
		}
		if d.Revalidated == 1 {
			reval = append(reval, us)
		}
		if _, _, err := serve(wit); err != nil {
			return err
		}
		write('a')
		if us, d, err = serve(rpq); err != nil {
			return err
		}
		if d.Incremental == 1 {
			incr = append(incr, us)
		}
		if us, d, err = serve(wit); err != nil {
			return err
		}
		if d.Misses == 1 {
			fallback = append(fallback, us)
		}
	}
	if len(reval) == 0 || len(incr) == 0 || len(fallback) == 0 {
		return fmt.Errorf("advance probe: %d revalidated, %d incremental, %d fallback serves; expected some of each",
			len(reval), len(incr), len(fallback))
	}
	p.set("ecrpq.advance_us.revalidated", median(reval), "us")
	p.set("ecrpq.advance_us.incremental", median(incr), "us")
	p.set("ecrpq.advance_us.fallback", median(fallback), "us")

	// The hit path below the server, and the hash the server recomputes
	// per response, on the largest served result.
	s := db.Snapshot()
	p.set("plan.eval_cached_hit_ns", meanNs(p.n(100000), func() { rpq.EvalSnapshotCached(ctx, s, bind, cache) }), "ns")
	three, err := compile(serveTexts[1].text)
	if err != nil {
		return err
	}
	res, err := three.EvalSnapshot(ctx, s, bind)
	if err != nil {
		return err
	}
	p.set("ecrpq.fingerprint_us", medianUs(p.n(200), nil, func() { res.Fingerprint() }), "us")

	p.set("graph.snapshot_same_epoch_ns", meanNs(p.n(1000000), func() { db.Snapshot() }), "ns")
	p.set("graph.addedge_ns", meanNs(p.n(5000), func() {
		db.AddEdge(graph.Node(p.r.Intn(pm.nodes)), 'h', graph.Node(p.r.Intn(pm.nodes)))
	}), "ns")
	return nil
}

// serving: a serve_mixed daemon of the probe's own (durable store), one
// client. The handler on a recorder and over loopback, the write path,
// the load generator against a null handler, then the store itself:
// WAL-logged writes, snapshot publication, checkpoints, reopening.
func (p *prober) serving() error {
	f, err := setupServe(p.cfg.seed, true, p.cfg.tmp)
	if err != nil {
		return err
	}
	defer f.close()
	cl, hot := f.cl[0], &f.pairs[0]

	h := f.srv.Handler()
	p.set("server.handler_hit_us", medianUs(p.n(3000), nil, func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, hot.url, nil))
	}), "us")

	// Loopback reads with spans: the round trip less the handler span is
	// what the socket and net/http cost; the handler span less the
	// response's elapsed_ns is the handler's own work.
	tr := newTracer()
	f.tr.Store(tr)
	var sizes []float64
	for k := p.n(3000); k > 0; k-- {
		if f.read(cl, hot, tr, true).failed {
			return fmt.Errorf("serving probe: read of %s failed", hot.name)
		}
		sizes = append(sizes, float64(cl.body.Len()))
	}
	f.tr.Store(nil)
	dur := map[int32]float64{}
	for _, s := range tr.spans {
		dur[s.ID] = float64(s.EndNs-s.StartNs) / 1e3
	}
	var overhead, self []float64
	for _, s := range tr.spans {
		switch s.Name {
		case spanHandler:
			overhead = append(overhead, dur[s.Parent]-dur[s.ID])
		case spanEval:
			self = append(self, dur[s.Parent]-dur[s.ID])
		}
	}
	p.set("server.http_overhead_us", median(overhead), "us")
	p.set("server.handler_self_us", median(self), "us")
	p.set("server.resp_bytes_p50", median(sizes), "bytes")

	// The load generator alone: the same client code against a handler
	// that replies with a canned copy of the hot pair's response.
	canned := append([]byte(nil), cl.body.Bytes()...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	null := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(canned)
	})}
	go null.Serve(ln) // returns at Shutdown below
	nullPair := *hot
	nullPair.url = strings.Replace(hot.url, f.base, "http://"+ln.Addr().String(), 1)
	ncl := &serveClient{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
	f.read(ncl, &nullPair, nil, true)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	k := p.n(3000)
	p.set("loadgen.client_self_us", medianUs(k, nil, func() { f.read(ncl, &nullPair, nil, true) }), "us")
	runtime.ReadMemStats(&m1)
	p.set("loadgen.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(k), "KiB")
	ncl.http.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	null.Shutdown(ctx)
	cancel()

	// Writes: the handler alone, then over loopback.
	n := f.db.NumNodes()
	line := func() string {
		return fmt.Sprintf("edge n%d %c n%d\n", p.r.Intn(n), f.sigma[p.r.Intn(len(f.sigma))], p.r.Intn(n))
	}
	p.set("server.write_handler_us", medianUs(p.n(500), nil, func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/write", strings.NewReader(line())))
	}), "us")
	p.set("server.write_roundtrip_us", medianUs(p.n(500), nil, func() {
		f.request(cl, http.MethodPost, f.base+"/write", line())
	}), "us")

	// The durable store under the daemon.
	db := f.db
	edges0, wal0 := db.NumEdges(), db.DurableStats().WALBytes
	addEdge := func() { db.AddEdge(graph.Node(p.r.Intn(n)), 'h', graph.Node(p.r.Intn(n))) }
	p.set("graph.addedge_wal_ns", meanNs(p.n(5000), addEdge), "ns")
	p.set("graph.wal_bytes_per_edge", float64(db.DurableStats().WALBytes-wal0)/float64(db.NumEdges()-edges0), "bytes")
	p.set("graph.snapshot_after_write_us", medianUs(p.n(300), addEdge, func() { db.Snapshot() }), "us")
	var ckErr error
	p.set("graph.checkpoint_ms", medianUs(max(3, p.n(7)), func() {
		for i := 0; i < ckptEvery; i++ {
			addEdge()
		}
	}, func() {
		if err := db.Checkpoint(); err != nil {
			ckErr = err
		}
	})/1e3, "ms")
	if ckErr != nil {
		return ckErr
	}
	segs, err := filepath.Glob(filepath.Join(f.dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("serving probe: no segment file in %s", f.dir)
	}
	st, err := os.Stat(segs[len(segs)-1]) // names sort by epoch: the newest
	if err != nil {
		return err
	}
	p.set("graph.segment_bytes_per_edge", float64(st.Size())/float64(db.NumEdges()), "bytes")

	f.shutdown()
	if err := db.Close(); err != nil {
		return err
	}
	opens := make([]float64, 9)
	for i := range opens {
		t0 := time.Now()
		d, err := graph.OpenDirOptions(f.dir, f.opts)
		opens[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return err
		}
		if i == len(opens)-1 {
			f.db = d // the deferred close closes it and removes the store
		} else if err := d.Close(); err != nil {
			return err
		}
	}
	p.set("graph.opendir_ms", median(opens), "ms")
	return nil
}
