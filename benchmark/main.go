// Command benchmark is the repository's one performance benchmark: four
// seeded workloads over the ECRPQ stack, end-to-end metrics from an
// untraced window and per-layer metrics from a traced pass plus layer
// probes. BENCHMARK.json at the repository root declares it; README.md
// here explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run of one workload: the line the driver
// reads, plus notes for the human report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	notes    map[string]string // per metric: the samples behind a percentile
}

// config is what every run of a process shares.
type config struct {
	seed    int64
	seconds float64
	tmp     string // root for durable stores; each set-up gets its own directory
	spans   string // file the traced pass writes its spans to
}

func (c config) window(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// workloads in reporting order. BENCHMARK.json says why each exists.
var workloads = []string{"engine_warm", "adhoc_cold", "serve_hot", "serve_mixed"}

func setup(name string, cfg config) (fixture, error) {
	switch name {
	case "engine_warm":
		return setupEngineWarm(cfg.seed)
	case "adhoc_cold":
		return setupAdhocCold(cfg.seed)
	case "serve_hot", "serve_mixed":
		return setupServe(cfg.seed, name == "serve_mixed", cfg.tmp)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
}

// setup_s is read the way the window's figures are: the host's slow
// stretches only ever add time, so the quickest set-up of a run is the one
// that repeats. To see more than one state of the host a run sets up before
// its window and again after it, each time at least minSetups times and for
// at least minSetupTime (two set-ups of a serve workload, ten to thirty of
// a library one, whose set-up takes a tenth of a second or less).
const (
	minSetups    = 2
	minSetupTime = time.Second
)

// timedSetups returns the last fixture it set up and every set-up time.
func timedSetups(name string, cfg config) (fixture, []float64, error) {
	var times []float64
	for start := time.Now(); ; {
		t0 := time.Now()
		fx, err := setup(name, cfg)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) >= minSetups && time.Since(start) >= minSetupTime {
			return fx, times, nil
		}
		fx.close()
	}
}

// runUntraced is the end-to-end run: set-ups (timed), untracedWindow on
// the last of them, set-ups again.
func runUntraced(name string, cfg config) (*result, error) {
	fx, times, err := timedSetups(name, cfg)
	if err != nil {
		return nil, err
	}
	res := untracedWindow(name, cfg, fx)
	fx.close()
	fx, after, err := timedSetups(name, cfg)
	if err != nil {
		return nil, err
	}
	fx.close()
	times = append(times, after...)
	res.Metrics["setup_s"] = metric{slices.Min(times), "s"}
	res.notes["setup_s"] = fmt.Sprintf("quickest of %d set-ups; median %.6g", len(times), median(times))
	return res, nil
}

// untracedWindow is where the end-to-end metrics but setup_s come from:
// warm-up, the measured window with tracing off, the correctness checks.
func untracedWindow(name string, cfg config, fx fixture) *result {
	warm := runWindow(fx, min(cfg.window(0.3), 3*time.Second), nil)
	w := runWindow(fx, cfg.window(1), nil)
	va, vf := fx.verify()

	q, whole := w.quietest(), w.whole()
	beside := func(v float64) string {
		return fmt.Sprintf("quietest of %d slices; whole window %.6g", quietSlices, v)
	}
	res := &result{
		workload:  name,
		Attempted: len(warm.ops) + len(w.ops) + va,
		Failed:    warm.failed + w.failed + vf,
		notes: map[string]string{
			"ops_per_s":     beside(whole.opsPerS),
			"op_p50_ms":     beside(whole.p50ms),
			"answers_per_s": beside(whole.answersPerS),
		},
		Metrics: map[string]metric{
			"ops_per_s":       {q.opsPerS, "ops/s"},
			"op_p50_ms":       {q.p50ms, "ms"},
			"answers_per_s":   {q.answersPerS, "1/s"},
			"live_heap_mb":    {float64(w.liveHeap) / (1 << 20), "MiB"},
			"alloc_kb_per_op": {float64(w.allocBytes) / 1024 / float64(len(w.ops)), "KiB"},
		},
	}
	res.Correct = res.Failed == 0
	return res
}

// runTraced is the per-layer run: the workload's own traced windows, then
// the layer probes.
func runTraced(name string, cfg config) (*result, error) {
	res, err := tracedWindows(name, cfg)
	if err != nil {
		return nil, err
	}
	if err := runProbes(res.Metrics, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedWindows runs, after one set-up and the warm-up, a quarter-window
// untraced (the base the traced pass is compared with), a quarter-window
// with spans recorded, and the correctness checks.
func tracedWindows(name string, cfg config) (*result, error) {
	fx, err := setup(name, cfg)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	warm := runWindow(fx, min(cfg.window(0.3), 3*time.Second), nil)
	base := runWindow(fx, cfg.window(0.25), nil)
	tr := newTracer()
	traced := runWindow(fx, cfg.window(0.25), tr)
	va, vf := fx.verify()

	res := &result{
		workload:  name,
		Attempted: len(warm.ops) + len(base.ops) + len(traced.ops) + va,
		Failed:    warm.failed + base.failed + traced.failed + vf,
		notes:     map[string]string{},
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	windowMetrics(res, &base, &traced, tr)
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// windowMetrics fills the per-layer metrics that describe this workload's
// own windows. Those a workload bypasses read 0 — a share or a count,
// never a time, so a bypassed layer shows as exactly that.
func windowMetrics(res *result, base, traced *window, tr *tracer) {
	m := res.Metrics
	m["trace.overhead_share"] = metric{1 - traced.whole().opsPerS/base.whole().opsPerS, "share"}
	shares := tr.selfShares()
	for _, name := range spanNames {
		m["trace.self_share."+name] = metric{shares[name], "share"}
	}
	// A p99 needs 1100 samples: a quarter of the default window has them on
	// every workload because the library ones report single queries.
	m["window.query_p99_ms"] = metric{quantile(base.queries, 0.99), "ms"}
	res.notes["window.query_p99_ms"] = fmt.Sprintf("%d samples", len(base.queries))
	reads, ratio := latencies(base.ops, false), 0.0
	if writes := latencies(base.ops, true); len(writes) > 0 {
		ratio = median(writes) / median(reads)
	}
	m["window.write_over_read_p50"] = metric{ratio, "ratio"}

	// Serve-kind shares of the result cache, over both windows.
	c := func(k string) float64 { return base.counters[k] + traced.counters[k] }
	lookups := c("hit") + c("compute") + c("revalidated") + c("incremental") + c("wait")
	for _, k := range []string{"hit", "revalidated", "incremental", "compute", "wait"} {
		share := 0.0
		if lookups > 0 {
			share = c(k) / lookups
		}
		m["qcache.share."+k] = metric{share, "share"}
	}
	m["qcache.evictions"] = metric{c("evictions"), "count"}
	m["qcache.bytes"] = metric{traced.gauges["cache_bytes"], "bytes"}
	clientMs := 0.0
	for _, ms := range append(reads, latencies(traced.ops, false)...) {
		clientMs += ms
	}
	evalShare := 0.0
	if lookups > 0 {
		evalShare = c("eval_ns") / 1e6 / clientMs
	}
	m["server.eval_share"] = metric{evalShare, "share"}
	m["server.queue_high_water"] = metric{traced.gauges["queue_high_water"], "count"}
	m["server.refused"] = metric{c("refused"), "count"}
	m["graph.checkpoints"] = metric{c("checkpoints"), "count"}
}

func main() {
	var (
		cfg      config
		workload = flag.String("workload", "all", "workload to run: all, "+strings.Join(workloads, ", "))
		trace    = flag.String("trace", "both", "0: end-to-end metrics from the untraced window; 1: per-layer metrics from the traced pass and the probes; both")
		repeat   = flag.Int("repeat", 1, "run the selected workloads this many times and report median, quartiles and PASS/UNRESOLVED against the bounds in -spec")
		jsonOut  = flag.String("json", "", "write the full report (host shape, every metric, sample counts) to this file")
		spec     = flag.String("spec", "BENCHMARK.json", "the benchmark's declaration, read for bounds by -repeat")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed all generated inputs derive from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window, in seconds")
	flag.StringVar(&cfg.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "directory under which durable stores are made, and removed when their run ends")
	flag.StringVar(&cfg.spans, "spans", "", "write the traced pass's spans to this file as JSON")
	flag.Parse()

	names := workloads
	if *workload != "all" {
		names = []string{*workload}
	}
	var all []*result
	for rep := 0; rep < *repeat; rep++ {
		for _, name := range names {
			res := &result{workload: name, Correct: true, Metrics: map[string]metric{}, notes: map[string]string{}}
			for _, mode := range []struct {
				flag string
				run  func(string, config) (*result, error)
			}{{"0", runUntraced}, {"1", runTraced}} {
				if *trace != mode.flag && *trace != "both" {
					continue
				}
				r, err := mode.run(name, cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
					os.Exit(2)
				}
				res.merge(r)
			}
			all = append(all, res)
			res.printTable(os.Stderr)
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
		}
	}
	if *repeat > 1 {
		if err := printRepeat(os.Stderr, all, *spec); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(2)
		}
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, cfg, all); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(2)
		}
	}
	for _, r := range all {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

func (r *result) merge(o *result) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Correct = r.Correct && o.Correct
	for k, v := range o.Metrics {
		r.Metrics[k] = v
	}
	for k, v := range o.notes {
		r.notes[k] = v
	}
}

func (r *result) sortedNames() []string { return slices.Sorted(maps.Keys(r.Metrics)) }

// printTable is the human report: every metric by name with its unit,
// and the samples behind each percentile.
func (r *result) printTable(f *os.File) {
	fmt.Fprintf(f, "== %s: attempted %d, failed %d, correct %t\n", r.workload, r.Attempted, r.Failed, r.Correct)
	for _, k := range r.sortedNames() {
		m := r.Metrics[k]
		fmt.Fprintf(f, "  %-40s %14.4f %-6s", k, m.Value, m.Unit)
		if note, ok := r.notes[k]; ok {
			fmt.Fprintf(f, " (%s)", note)
		}
		fmt.Fprintln(f)
	}
}

// benchSpec is the part of BENCHMARK.json -repeat reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// printRepeat reports, per workload and metric, the median and quartiles
// over the repeated runs. For a bounded (end-to-end) metric it says
// whether the runs agree within the bound: PASS when the interquartile
// spread as a share of the median stays inside it, UNRESOLVED when the
// spread is wider than the bound and so could hide a regression.
func printRepeat(f *os.File, all []*result, specPath string) error {
	var spec benchSpec
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	byWorkload := map[string][]*result{}
	var order []string
	for _, r := range all {
		if byWorkload[r.workload] == nil {
			order = append(order, r.workload)
		}
		byWorkload[r.workload] = append(byWorkload[r.workload], r)
	}
	for _, w := range order {
		runs := byWorkload[w]
		fmt.Fprintf(f, "== %s over %d runs\n", w, len(runs))
		fmt.Fprintf(f, "  %-40s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
		for _, k := range runs[0].sortedNames() {
			var vs []float64
			for _, r := range runs {
				vs = append(vs, r.Metrics[k].Value)
			}
			q1, q2, q3 := quartiles(vs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Fprintf(f, "  %-40s %14.4f %14.4f %14.4f %7.1f%%", k, q1, q2, q3, 100*spread)
			if bound, ok := bounds[k]; ok {
				verdict := "PASS"
				if spread > bound {
					verdict = "UNRESOLVED"
				}
				fmt.Fprintf(f, "  %s (bound %.0f%%)", verdict, 100*bound)
			}
			fmt.Fprintln(f)
		}
	}
	return nil
}

// writeReport writes every run with the shape of the host it ran on.
func writeReport(path string, cfg config, all []*result) error {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	type run struct {
		Workload string `json:"workload"`
		*result
		Notes map[string]string `json:"notes"`
	}
	rep := struct {
		Host map[string]any `json:"host"`
		Runs []run          `json:"runs"`
	}{Host: map[string]any{
		"cores": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"os": runtime.GOOS, "arch": runtime.GOARCH, "commit": commit, "clients": numClients(),
		"seed": cfg.seed, "window_seconds": cfg.seconds,
	}}
	for _, r := range all {
		rep.Runs = append(rep.Runs, run{r.workload, r, r.notes})
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
