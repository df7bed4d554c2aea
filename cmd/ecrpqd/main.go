// Command ecrpqd serves ECRPQ evaluation over HTTP: a hardened serving
// daemon over the epoch-versioned store, with a named prepared-query
// registry, per-request deadlines and product-state budgets, bounded
// admission (explicit 429/503 backpressure instead of unbounded
// queueing), graceful degradation to bounded-staleness cached results
// under overload, per-request panic isolation, and drain-on-SIGTERM.
//
//	ecrpqd -addr :8420 -graph social.graph \
//	       -query 'friends=Ans(x,y) <- (x,p,y), knows+(p)'
//
// Endpoints:
//
//	GET  /healthz               liveness (also reports draining)
//	GET  /statz                 serving counters + cache stats (JSON)
//	GET  /queries               registry listing
//	PUT  /queries/{name}        register/replace a prepared query (body = text)
//	GET  /queries/{name}        text + compiled-plan explanation
//	GET  /query/{name}          evaluate; parameters:
//	      bind=x=node  (repeatable)   fix a head variable to a node
//	      timeout=2s                  per-request deadline (clamped)
//	      budget=100000               product-state budget
//	      maxstale=4                  permit serving a cached result up to
//	                                  N epochs behind under pressure
//	      fresh=1                     forbid degraded (stale) serving
//	      limit=100                   answers rendered (count is exact)
//	      workers=8                   start-assignment fan-out workers (0 =
//	                                  GOMAXPROCS, 1 = none; same answers and
//	                                  cache entry either way)
//	POST /write                 apply graph text lines (`edge A l B`, ...)
//
// Flags:
//
//	-addr ADDR        listen address (default :8420)
//	-data DIR         durable store directory: recover (mmap newest segment +
//	                  replay WAL) on boot, write-ahead log every mutation,
//	                  checkpoint on drain. Restarting over the same DIR serves
//	                  identical answers with no re-ingest.
//	-fsync            fsync the WAL on every write (power-loss durability;
//	                  default: process-crash durability only)
//	-graph FILE       initial graph in the text format (default: empty store).
//	                  With -data, the file is bulk-imported only when the
//	                  recovered store is empty; a recovered store wins.
//	-sigma STR        alphabet when starting from an empty store
//	-query NAME=TEXT  preload a registry entry (repeatable)
//	-concurrency N    evaluation slots (default GOMAXPROCS)
//	-queue N          admission queue bound (default 4×concurrency)
//	-timeout D        default per-request deadline (default 2s)
//	-max-timeout D    clamp for request-supplied deadlines (default 30s)
//	-budget N         default product-state budget (0 = engine default)
//	-bfs-workers N    default fan-out workers (0 = GOMAXPROCS, 1 = none)
//	-max-stale N      cache retention window in epochs for degraded reads
//	-cache BYTES      result-cache budget (default 64 MiB)
//	-drain-timeout D  how long SIGTERM waits for in-flight requests
//
// Load-generator mode (the CI smoke job's client half): with -load URL
// the command is a closed-loop client instead of a daemon — it
// discovers the registry at URL, drives a seeded Zipf-skewed query mix
// with -load-write-pct writes for -load-duration, prints the JSON
// report, and exits non-zero on any 5xx or transport error:
//
//	ecrpqd -load http://127.0.0.1:8420 -load-duration 10s -load-seed 42
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/qcache"
	"repro/internal/server"
	"repro/internal/workload"
)

type config struct {
	addr         string
	dataDir      string
	fsync        bool
	graphFile    string
	sigma        string
	queries      []string // NAME=TEXT
	concurrency  int
	queue        int
	timeout      time.Duration
	maxTimeout   time.Duration
	budget       int
	bfsWorkers   int
	maxStale     uint64
	cacheBytes   int64
	drainTimeout time.Duration

	// Connection timeouts of the listener; zero means the default. Not
	// flags: they protect the daemon from peers, they do not tune it.
	readHeaderTimeout time.Duration
	idleTimeout       time.Duration

	load         string
	loadDuration time.Duration
	loadClients  int
	loadWritePct int
	loadSeed     int64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8420", "listen address")
	flag.StringVar(&cfg.dataDir, "data", "", "durable store directory (recover on boot, WAL writes, checkpoint on drain)")
	flag.BoolVar(&cfg.fsync, "fsync", false, "fsync the WAL on every write (with -data)")
	flag.StringVar(&cfg.graphFile, "graph", "", "initial graph file (text format; default empty store)")
	flag.StringVar(&cfg.sigma, "sigma", "", "alphabet for an empty store (runes)")
	flag.Func("query", "preload a prepared query as NAME=TEXT (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want NAME=TEXT, got %q", v)
		}
		cfg.queries = append(cfg.queries, v)
		return nil
	})
	flag.IntVar(&cfg.concurrency, "concurrency", 0, "evaluation slots (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.queue, "queue", 0, "admission queue bound (0 = 4×concurrency)")
	flag.DurationVar(&cfg.timeout, "timeout", 2*time.Second, "default per-request deadline")
	flag.DurationVar(&cfg.maxTimeout, "max-timeout", 30*time.Second, "clamp for request deadlines")
	flag.IntVar(&cfg.budget, "budget", 0, "default product-state budget (0 = engine default)")
	flag.IntVar(&cfg.bfsWorkers, "bfs-workers", 0, "default start-assignment fan-out workers (0 = GOMAXPROCS, 1 = none)")
	flag.Uint64Var(&cfg.maxStale, "max-stale", 8, "epoch retention window for degraded reads")
	flag.Int64Var(&cfg.cacheBytes, "cache", 64<<20, "result cache budget in bytes")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 15*time.Second, "SIGTERM drain deadline")
	flag.StringVar(&cfg.load, "load", "", "run as a load-generation client against this base URL instead of serving")
	flag.DurationVar(&cfg.loadDuration, "load-duration", 10*time.Second, "load run duration")
	flag.IntVar(&cfg.loadClients, "load-clients", 4, "closed-loop load clients")
	flag.IntVar(&cfg.loadWritePct, "load-write-pct", 10, "percentage of load operations that are writes")
	flag.Int64Var(&cfg.loadSeed, "load-seed", 42, "load operation-stream seed")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if cfg.load != "" {
		if err := runLoad(ctx, cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ecrpqd:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(ctx, cfg, nil, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ecrpqd:", err)
		os.Exit(1)
	}
}

// run builds the store and server from cfg and serves until ctx is
// canceled, then drains: new work is refused with 503 while requests
// already admitted finish (bounded by cfg.drainTimeout). When ready is
// non-nil the bound address is sent on it once the listener is up —
// the hook the daemon tests and the CI smoke script use to serve on
// ":0" without a race.
func run(ctx context.Context, cfg config, ready chan<- string, errw io.Writer) error {
	g, err := openStore(cfg, errw)
	if err != nil {
		return err
	}
	defer g.Close()
	sigma := g.Alphabet()
	for _, r := range cfg.sigma {
		sigma = append(sigma, r)
	}
	srv := server.New(server.Config{
		DB:             g,
		Env:            ecrpq.Env{Sigma: sigma},
		Cache:          qcache.New(cfg.cacheBytes),
		MaxConcurrency: cfg.concurrency,
		MaxQueue:       cfg.queue,
		DefaultTimeout: cfg.timeout,
		MaxTimeout:     cfg.maxTimeout,
		DefaultBudget:  cfg.budget,
		MaxStaleLag:    cfg.maxStale,
		BFSWorkers:     cfg.bfsWorkers,
	})
	for _, nv := range cfg.queries {
		name, text, _ := strings.Cut(nv, "=")
		if err := srv.Register(name, text); err != nil {
			return fmt.Errorf("preload query %q: %w", name, err)
		}
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "ecrpqd: serving on %s (%d nodes, %d edges, epoch %d)\n",
		ln.Addr(), g.NumNodes(), g.NumEdges(), g.Epoch())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	hs := newHTTPServer(srv, cfg)
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	select {
	case err := <-served:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	fmt.Fprintln(errw, "ecrpqd: draining")
	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// With every in-flight request done (no snapshot can still be read
	// from), persist the final state so the next boot replays nothing.
	if g.Durable() {
		if err := srv.Checkpoint(); err != nil {
			fmt.Fprintf(errw, "ecrpqd: drain checkpoint failed: %v\n", err)
		} else {
			fmt.Fprintln(errw, "ecrpqd: checkpointed")
		}
	}
	fmt.Fprintln(errw, "ecrpqd: drained")
	return nil
}

// Connection timeouts: how long a peer may take to send a request's
// headers, how long a keep-alive connection may sit idle, and how long
// past the longest admissible evaluation a response may take to write.
const (
	defaultReadHeaderTimeout = 5 * time.Second
	defaultIdleTimeout       = 2 * time.Minute
	responseWriteSlack       = 10 * time.Second
)

// newHTTPServer bounds every connection of the daemon: without
// timeouts a peer that opens a connection and stalls — mid-header, idle
// on keep-alive, or not reading its response — holds a goroutine and a
// descriptor for as long as it likes. A request is read, evaluated and
// answered within the server's maximum request deadline plus slack for
// writing the response; net/http closes the connection past that.
func newHTTPServer(srv *server.Server, cfg config) *http.Server {
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		IdleTimeout:       cfg.idleTimeout,
		WriteTimeout:      srv.MaxTimeout() + responseWriteSlack,
	}
	if hs.ReadHeaderTimeout <= 0 {
		hs.ReadHeaderTimeout = defaultReadHeaderTimeout
	}
	if hs.IdleTimeout <= 0 {
		hs.IdleTimeout = defaultIdleTimeout
	}
	return hs
}

// openStore builds the daemon's store: a durable OpenDir store when
// -data is set (recovering any previous state), memory-only otherwise.
// An initial -graph file seeds the store only when it is empty — a
// recovered state wins over re-ingest, which is the whole point of the
// durable mode — and the import runs as a bulk load (one checkpoint,
// no per-line WAL records).
func openStore(cfg config, errw io.Writer) (*graph.DB, error) {
	if cfg.dataDir == "" {
		g := graph.NewDB()
		if cfg.graphFile != "" {
			f, err := os.Open(cfg.graphFile)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return graph.ParseText(f)
		}
		return g, nil
	}
	g, err := graph.OpenDirOptions(cfg.dataDir, graph.Options{SyncEveryWrite: cfg.fsync})
	if err != nil {
		return nil, fmt.Errorf("open -data %s: %w", cfg.dataDir, err)
	}
	rs := g.Recovery()
	fmt.Fprintf(errw, "ecrpqd: recovered %s: segment epoch %d (mapped=%v), %d wal records replayed, %d torn bytes dropped\n",
		cfg.dataDir, rs.SegmentEpoch, rs.Mapped, rs.WALReplayed, rs.TornBytes)
	if cfg.graphFile != "" && g.Epoch() == 0 {
		f, err := os.Open(cfg.graphFile)
		if err != nil {
			g.Close()
			return nil, err
		}
		err = g.Bulk(func() error { return graph.ParseTextInto(g, f) })
		f.Close()
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("bulk import %s: %w", cfg.graphFile, err)
		}
		fmt.Fprintf(errw, "ecrpqd: bulk-imported %s (%d nodes, %d edges, one checkpoint)\n",
			cfg.graphFile, g.NumNodes(), g.NumEdges())
	} else if cfg.graphFile != "" {
		fmt.Fprintf(errw, "ecrpqd: ignoring -graph %s: store already holds epoch %d\n", cfg.graphFile, g.Epoch())
	}
	return g, nil
}

// runLoad is the client half of the CI smoke job: discover the
// target's registry, drive the closed-loop load generator against it,
// print the merged report as JSON, and fail on any 5xx or transport
// error — the daemon must degrade or refuse under pressure, never
// crash a request.
func runLoad(ctx context.Context, cfg config, out io.Writer) error {
	base := strings.TrimRight(cfg.load, "/")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/queries", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("discover registry: %w", err)
	}
	var reg struct {
		Queries []string `json:"queries"`
	}
	err = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("discover registry: %w", err)
	}
	if len(reg.Queries) == 0 {
		return fmt.Errorf("target %s has no registered queries (preload with -query)", base)
	}

	rep, err := workload.RunLoad(ctx, workload.LoadConfig{
		BaseURL:  base,
		Queries:  reg.Queries,
		Clients:  cfg.loadClients,
		Duration: cfg.loadDuration,
		WritePct: cfg.loadWritePct,
		MaxStale: cfg.maxStale,
		Seed:     cfg.loadSeed,
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if rep.Any5xx() {
		return fmt.Errorf("load: 5xx responses observed: %v", rep.Statuses)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("load: %d transport error(s)", rep.Errors)
	}
	if rep.Ops == 0 {
		return fmt.Errorf("load: no operations completed")
	}
	return nil
}
