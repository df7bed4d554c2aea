// Command ecrpq evaluates ECRPQs over graph databases in the text format
// of internal/graph:
//
//	ecrpq -graph social.graph -query 'Ans(x,y) <- (x,p1,z), (z,p2,y), eq(p1,p2)'
//
// Flags:
//
//	-graph FILE   graph database (edge lines: `edge FROM LABEL TO` or
//	              `FROM -LABEL-> TO`); defaults to stdin
//	-data DIR     durable store directory (shared with ecrpqd): recover the
//	              graph from DIR instead of parsing text. With -graph, the
//	              file is bulk-imported once when the store is empty.
//	              Mutations (replay mode) are write-ahead logged.
//	-checkpoint   with -data: compact the WAL into a fresh segment file and
//	              exit (offline compaction; -query becomes optional) — run
//	              it while the daemon is stopped to make its next boot
//	              replay-free
//	-query Q      the query (required); built-in relations: eq, el,
//	              prefix, lt, le, edit1..edit3; other names are parsed as
//	              regular expressions over the graph's alphabet
//	-paths N      for each answer also enumerate up to N path tuples from
//	              the answer automaton (Proposition 5.2)
//	-maxlen L     path length cap for -paths enumeration (default 12)
//	-budget N     product-state budget (default 4,000,000)
//	-limit N      stream at most N answers and stop the evaluation early
//	              (answers arrive in discovery order, unsorted)
//	-timeout D    abort evaluation after duration D (e.g. 500ms, 2s)
//	-explain      print the compiled plan before evaluating
//	-replay FILE  mutation/replay mode: after loading the initial graph,
//	              process FILE line by line — graph text lines (`edge
//	              FROM LABEL TO`, `FROM -LABEL-> TO`, `node N`) mutate
//	              the store, and each `query` line pins the current
//	              snapshot and evaluates the prepared query against it,
//	              printing the snapshot epoch with the answers. This
//	              exercises the epoch-versioned serving path end to end:
//	              writes append delta overlays, queries read immutable
//	              snapshots. Malformed lines are reported and counted but
//	              do not abort the replay; when any occurred the summary
//	              carries the count and the command exits non-zero.
//	-cache N      serve materialized evaluations through an epoch-keyed
//	              result cache bounded to N bytes (0 = off): repeated
//	              `query` lines at an unchanged epoch are answered from
//	              the cache instead of re-running the product BFS, and
//	              epoch advances invalidate. The replay summary reports
//	              hit/miss counts.
//
// The query is compiled once into a plan (pathquery.Prepare) and then
// executed; -limit switches from materialized evaluation to the
// streaming executor.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/qcache"
)

// config carries the parsed flags; run executes the tool over the given
// streams so tests can drive it without a process boundary.
type config struct {
	query      string
	nPaths     int
	maxLen     int
	budget     int
	limit      int
	timeout    time.Duration
	explain    bool
	replay     string
	cache      int64
	dataDir    string
	checkpoint bool
	// importIn: with -data, bulk-import the input reader into an empty
	// store (set when -graph was given explicitly; stdin is never
	// implicitly imported into a durable store).
	importIn bool
}

func main() {
	graphFile := flag.String("graph", "", "graph database file (default: stdin)")
	querySrc := flag.String("query", "", "ECRPQ in textual syntax (required)")
	nPaths := flag.Int("paths", 0, "enumerate up to N path tuples per answer")
	maxLen := flag.Int("maxlen", 12, "path length cap for -paths")
	budget := flag.Int("budget", 0, "product-state budget (0 = default)")
	limit := flag.Int("limit", 0, "stream at most N answers (0 = evaluate fully)")
	timeout := flag.Duration("timeout", 0, "evaluation deadline (0 = none)")
	explain := flag.Bool("explain", false, "print the compiled plan")
	replay := flag.String("replay", "", "mutation/replay script: graph text lines mutate, `query` lines evaluate a snapshot")
	cache := flag.Int64("cache", 0, "epoch-keyed result cache budget in bytes (0 = disabled)")
	dataDir := flag.String("data", "", "durable store directory (shared with ecrpqd); empty = in-memory from graph text")
	checkpoint := flag.Bool("checkpoint", false, "with -data: offline compaction — checkpoint the store and exit")
	flag.Parse()

	if *checkpoint && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "ecrpq: -checkpoint requires -data")
		flag.Usage()
		os.Exit(2)
	}
	if *querySrc == "" && !*checkpoint {
		fmt.Fprintln(os.Stderr, "ecrpq: -query is required")
		flag.Usage()
		os.Exit(2)
	}
	in := io.Reader(os.Stdin)
	if *graphFile != "" {
		f, err := os.Open(*graphFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	} else if *dataDir != "" {
		// Durable store: the graph comes from the segment+WAL directory,
		// never implicitly from stdin.
		in = nil
	}
	cfg := config{
		query: *querySrc, nPaths: *nPaths, maxLen: *maxLen, budget: *budget,
		limit: *limit, timeout: *timeout, explain: *explain, replay: *replay,
		cache: *cache, dataDir: *dataDir, checkpoint: *checkpoint,
		importIn: *graphFile != "",
	}
	if err := run(cfg, in, os.Stdout, os.Stderr); err != nil {
		fatal(err)
	}
}

func run(cfg config, in io.Reader, out, errw io.Writer) error {
	g, err := openGraph(cfg, in, errw)
	if err != nil {
		return err
	}
	defer g.Close()
	if cfg.checkpoint {
		if err := g.Checkpoint(); err != nil {
			return err
		}
		d := g.DurableStats()
		fmt.Fprintf(errw, "checkpoint: %s at epoch %d (%d checkpoints, wal %d bytes)\n",
			d.Dir, d.LastCheckpoint, d.Checkpoints, d.WALBytes)
		if cfg.query == "" {
			return nil
		}
	}
	env := ecrpq.Env{Sigma: g.Alphabet()}
	q, err := ecrpq.Parse(cfg.query, env)
	if err != nil {
		return err
	}
	p, err := plan.Compile(q, env)
	if err != nil {
		return err
	}
	if cfg.explain {
		fmt.Fprint(errw, p.Explain())
	}
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	opts := ecrpq.Options{MaxProductStates: cfg.budget}
	var qc *qcache.Cache
	if cfg.cache > 0 {
		qc = qcache.New(cfg.cache)
	}
	if cfg.replay != "" {
		f, err := os.Open(cfg.replay)
		if err != nil {
			return err
		}
		defer f.Close()
		return runReplay(ctx, cfg, p, q, g, f, opts, qc, out, errw)
	}
	s := g.Snapshot()
	if cfg.limit > 0 {
		return runStream(ctx, cfg, p, q, s, opts, out, errw)
	}
	res, _, err := p.EvalSnapshotCached(ctx, s, opts, qc)
	if err != nil {
		return err
	}
	if q.IsBoolean() {
		fmt.Fprintln(out, res.Bool())
		return nil
	}
	for _, a := range res.Answers {
		if err := printAnswer(cfg, q, s, a, out); err != nil {
			return err
		}
	}
	fmt.Fprintf(errw, "%d answers\n", len(res.Answers))
	return nil
}

// runStream prints answers as the streaming executor discovers them,
// stopping the evaluation after cfg.limit answers.
func runStream(ctx context.Context, cfg config, p *plan.Plan, q *ecrpq.Query, s *graph.Snapshot, opts ecrpq.Options, out, errw io.Writer) error {
	count := 0
	for a, err := range p.StreamSnapshot(ctx, s, ecrpq.StreamOptions{Options: opts, Limit: cfg.limit}) {
		if err != nil {
			return err
		}
		count++
		if q.IsBoolean() {
			fmt.Fprintln(out, true)
			continue
		}
		if err := printAnswer(cfg, q, s, a, out); err != nil {
			return err
		}
	}
	if q.IsBoolean() && count == 0 {
		fmt.Fprintln(out, false)
	}
	fmt.Fprintf(errw, "%d answers (limit %d)\n", count, cfg.limit)
	return nil
}

// printAnswer prints one answer read from s; -paths automata are built
// on that same snapshot, so every line describes the epoch it was
// answered at.
func printAnswer(cfg config, q *ecrpq.Query, s *graph.Snapshot, a ecrpq.Answer, out io.Writer) error {
	for i, v := range a.Nodes {
		if i > 0 {
			fmt.Fprint(out, ", ")
		}
		fmt.Fprint(out, s.Name(v))
	}
	for _, p := range a.Paths {
		fmt.Fprintf(out, " | %s", p.Format(s))
	}
	fmt.Fprintln(out)
	if cfg.nPaths > 0 && len(q.HeadPaths) > 0 {
		pa, err := ecrpq.BuildPathAutomaton(q, s, a.Nodes, ecrpq.Options{MaxProductStates: cfg.budget})
		if err != nil {
			return err
		}
		for _, tuple := range pa.Enumerate(cfg.nPaths, cfg.maxLen) {
			fmt.Fprint(out, "    paths:")
			for _, p := range tuple {
				fmt.Fprintf(out, " %q", p.LabelString())
			}
			fmt.Fprintln(out)
		}
	}
	return nil
}

// runReplay drives the mutation/replay mode: graph text lines mutate
// the store in place, and every `query` line pins the current snapshot
// and evaluates the prepared plan against it — the mixed read/write
// serving path. Mutations after a query do not disturb answers already
// printed (they were computed from an immutable snapshot), and each
// query line reports the epoch it read. With a cache (-cache), repeated
// materialized queries at an unchanged epoch are served from it; qc may
// be nil (uncached).
func runReplay(ctx context.Context, cfg config, p *plan.Plan, q *ecrpq.Query, g *graph.DB, script io.Reader, opts ecrpq.Options, qc *qcache.Cache, out, errw io.Writer) error {
	sc := bufio.NewScanner(script)
	lineNo := 0
	queries := 0
	lineErrs := 0
	var firstErr error
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line != "query" {
			if err := graph.ApplyTextLine(g, line); err != nil {
				// Tolerant-continue: a bad line is reported and counted,
				// the rest of the script still replays, and the run exits
				// non-zero at the end — a long replay surfaces every bad
				// line in one pass instead of one per run.
				lineErrs++
				err = fmt.Errorf("replay line %d: %w", lineNo, err)
				if firstErr == nil {
					firstErr = err
				}
				fmt.Fprintf(errw, "%v\n", err)
			}
			continue
		}
		queries++
		s := g.Snapshot()
		fmt.Fprintf(out, "-- query %d @ epoch %d (%d nodes, %d edges, delta %d)\n",
			queries, s.Epoch(), s.NumNodes(), s.NumEdges(), s.DeltaEdges())
		count := 0
		cached := false
		if cfg.limit > 0 {
			for a, err := range p.StreamSnapshot(ctx, s, ecrpq.StreamOptions{Options: opts, Limit: cfg.limit}) {
				if err != nil {
					return err
				}
				count++
				if q.IsBoolean() {
					continue
				}
				if err := printAnswer(cfg, q, s, a, out); err != nil {
					return err
				}
			}
		} else {
			res, hit, err := p.EvalSnapshotCached(ctx, s, opts, qc)
			if err != nil {
				return err
			}
			count = len(res.Answers)
			cached = hit
			if !q.IsBoolean() {
				for _, a := range res.Answers {
					if err := printAnswer(cfg, q, s, a, out); err != nil {
						return err
					}
				}
			}
		}
		if q.IsBoolean() {
			fmt.Fprintln(out, count > 0)
		}
		suffix := ""
		if cached {
			suffix = " (cached)"
		}
		fmt.Fprintf(errw, "query %d: epoch %d, %d answers%s\n", queries, s.Epoch(), count, suffix)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(errw, "replay: %d lines, %d queries, %d line error(s), final epoch %d\n",
		lineNo, queries, lineErrs, g.Epoch())
	if qc != nil {
		st := qc.Stats()
		fmt.Fprintf(errw, "cache: %d hits (%d revalidated, %d incremental), %d misses, %d single-flight waits, %d dead-epoch drops, %d/%d bytes\n",
			st.Hits+st.Revalidated+st.Incremental, st.Revalidated, st.Incremental,
			st.Misses, st.Waits, st.DeadDropped, st.Bytes, st.MaxBytes)
	}
	if lineErrs > 0 {
		// Non-zero exit: the first failure names its line, the count
		// says how many more the transcript above reported.
		return fmt.Errorf("replay: %d line error(s): %w", lineErrs, firstErr)
	}
	return nil
}

// openGraph builds the store run evaluates against: with -data, the
// durable segment+WAL directory is recovered (and seeded from -graph
// via one bulk import iff the store is empty — the same rule ecrpqd
// applies, so the CLI and the daemon can share a directory); otherwise
// the graph is parsed from the input text into memory.
func openGraph(cfg config, in io.Reader, errw io.Writer) (*graph.DB, error) {
	if cfg.dataDir == "" {
		return graph.ParseText(in)
	}
	g, err := graph.OpenDir(cfg.dataDir)
	if err != nil {
		return nil, err
	}
	rec := g.Recovery()
	fmt.Fprintf(errw, "recovered %s: segment epoch %d, %d wal records replayed, epoch %d\n",
		cfg.dataDir, rec.SegmentEpoch, rec.WALReplayed, g.Epoch())
	if cfg.importIn && in != nil {
		if g.Epoch() == 0 {
			if err := g.Bulk(func() error { return graph.ParseTextInto(g, in) }); err != nil {
				g.Close()
				return nil, err
			}
			fmt.Fprintf(errw, "imported -graph into %s: epoch %d\n", cfg.dataDir, g.Epoch())
		} else {
			fmt.Fprintf(errw, "store is non-empty; ignoring -graph\n")
		}
	}
	return g, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ecrpq:", err)
	os.Exit(1)
}
