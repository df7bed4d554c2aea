// Package server is the serving layer of the repository: the HTTP core
// of the ecrpqd daemon. It mediates every query through an admission
// controller (bounded concurrency plus a bounded wait queue, with
// explicit 429/503 backpressure instead of unbounded queueing), applies
// per-request deadlines and product-state budgets, isolates panics to
// the failing request, and degrades gracefully under pressure: when a
// fresh evaluation is refused or fails for resource reasons, a request
// that permits bounded staleness is served the freshest cached result
// within its epoch-lag budget instead of an error.
//
// Failures are mapped to status codes through the typed taxonomy of
// internal/qerr — never by string matching:
//
//	qerr.ErrBudgetExceeded → 422    (state budget; retry with a bigger budget)
//	qerr.ErrDeadline       → 504    (per-request deadline elapsed)
//	qerr.ErrCanceled       → 499    (client went away; nginx convention)
//	qerr.ErrOverloaded     → 429    (admission queue full; Retry-After set)
//	qerr.ErrStale          → 503    (degraded read found nothing fresh enough)
//	draining               → 503    (shutdown in progress)
//	panic                  → 500    (isolated to the request; counted)
//
// The package is importable (the daemon's main is a thin flag wrapper)
// so the load generator, the fault-injection suite, and the benchmark
// harness can all drive a real server in-process over httptest.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/qerr"
)

// StatusClientClosedRequest is the non-standard 499 status (popularized
// by nginx) reported when the client canceled the request before the
// evaluation finished. It keeps client-gone distinct from both server
// timeouts (504) and overload (429/503) in logs and stats.
const StatusClientClosedRequest = 499

// Config tunes a Server. The zero value of every field selects a sane
// default; the zero Config as a whole still needs a DB.
type Config struct {
	// DB is the graph store served. Required.
	DB *graph.DB
	// Env is the parse environment for registered queries (alphabet and
	// named relations).
	Env ecrpq.Env
	// Cache is the epoch-keyed result cache. Nil creates a 64 MiB one.
	Cache *qcache.Cache
	// MaxConcurrency bounds evaluations running at once. Default:
	// GOMAXPROCS.
	MaxConcurrency int
	// MaxQueue bounds requests waiting for an evaluation slot; beyond
	// it admission refuses with 429. Default: 4×MaxConcurrency.
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the request does
	// not set one. Default: 2s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied deadlines. Default: 30s.
	MaxTimeout time.Duration
	// DefaultBudget is the MaxProductStates budget when the request
	// does not set one. Zero keeps the engine default (4M states).
	DefaultBudget int
	// MaxStaleLag is the cache retention window for degraded reads, in
	// epochs: results up to this many epochs behind the store survive
	// dead-epoch dropping so overload can be served slightly stale.
	// Default: 8. Requests choose their own (smaller) per-request lag
	// budget with maxstale=N.
	MaxStaleLag uint64
	// BFSWorkers is the default worker count of the frontier-synchronous
	// parallel product BFS (ecrpq.Options.BFSWorkers): 0 uses GOMAXPROCS,
	// 1 forces the sequential engine. Requests override it per call with
	// workers=N. Answers and fingerprints are identical at every setting.
	BFSWorkers int
}

func (c *Config) fill() {
	if c.MaxConcurrency <= 0 {
		c.MaxConcurrency = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrency
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxStaleLag == 0 {
		c.MaxStaleLag = 8
	}
	if c.Cache == nil {
		c.Cache = qcache.New(64 << 20)
	}
}

// errDraining is admission's refusal during shutdown. It is in the
// overload class of the taxonomy but mapped to 503 (not 429): a
// draining instance wants the load balancer to route elsewhere, not
// the client to retry here.
var errDraining = qerr.Wrap(qerr.ErrOverloaded, errors.New("server draining"))

// prepared is one named entry of the query registry.
type prepared struct {
	text string
	plan *plan.Plan
}

// Stats is the counter snapshot served by /statz. All counters are
// cumulative since server start; Active and Queued are gauges.
type Stats struct {
	Requests   uint64 `json:"requests"`
	OK         uint64 `json:"ok"`
	Degraded   uint64 `json:"degraded"`
	Overloaded uint64 `json:"overloaded"`  // 429s
	Unavail    uint64 `json:"unavailable"` // 503s (draining, degraded miss)
	Budget     uint64 `json:"budget_exceeded"`
	Deadline   uint64 `json:"deadline_exceeded"`
	Canceled   uint64 `json:"client_canceled"`
	Panics     uint64 `json:"panics"`
	BadRequest uint64 `json:"bad_request"`
	NotFound   uint64 `json:"not_found"`
	Writes     uint64 `json:"write_lines"`
	WriteErrs  uint64 `json:"write_errors"`
	Active     int64  `json:"active"`
	Queued     int64  `json:"queued"`
	QueueHighW int64  `json:"queue_high_water"`
	EvalNs     uint64 `json:"eval_ns_total"`
	Evals      uint64 `json:"evals"`

	// Parallel product-BFS activity (process-wide engine counters, see
	// ecrpq.BFSParallelStats): runs that used multi-lane expansion,
	// multi-lane levels processed, fault-degraded runs, and component
	// evaluations that fanned start assignments over the worker pool.
	ParRuns      uint64 `json:"par_bfs_runs"`
	ParLevels    uint64 `json:"par_bfs_levels"`
	ParFallbacks uint64 `json:"par_bfs_fallbacks"`
	ParFanouts   uint64 `json:"par_bfs_fanouts"`

	// Checkpoints counts successful POST /admin/checkpoint calls (drain
	// checkpoints included); CheckpointErrs the failed ones.
	Checkpoints    uint64 `json:"checkpoints"`
	CheckpointErrs uint64 `json:"checkpoint_errs"`

	Cache qcache.Stats `json:"cache"`
	Epoch uint64       `json:"epoch"`

	// Durable is the store's durability/recovery introspection; absent
	// when the daemon runs memory-only (no -data).
	Durable *graph.DurableStats `json:"durable,omitempty"`
}

// Server is the HTTP serving core. Create with New, expose via
// Handler, stop with BeginDrain + the HTTP server's Shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sem   chan struct{}
	start time.Time

	draining atomic.Bool

	mu      sync.RWMutex
	queries map[string]*prepared

	// counters (see Stats)
	requests, ok, degraded, overloaded, unavail  atomic.Uint64
	budget, deadline, canceled, panics           atomic.Uint64
	badRequest, notFound, writeLines, writeErrs  atomic.Uint64
	evalNs, evals                                atomic.Uint64
	checkpoints, checkpointErrs                  atomic.Uint64
	active, queued, queueHighW                   atomic.Int64
}

// New builds a Server from cfg. It panics when cfg.DB is nil — a
// serving daemon without a store is a programming error, not a runtime
// condition.
func New(cfg Config) *Server {
	if cfg.DB == nil {
		panic("server: Config.DB is required")
	}
	cfg.fill()
	cfg.Cache.SetStaleLag(cfg.MaxStaleLag)
	s := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxConcurrency),
		queries: make(map[string]*prepared),
		start:   time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	mux.HandleFunc("GET /queries", s.handleListQueries)
	mux.HandleFunc("PUT /queries/{name}", s.handlePutQuery)
	mux.HandleFunc("GET /queries/{name}", s.handleGetQuery)
	mux.HandleFunc("GET /query/{name}", s.handleQuery)
	mux.HandleFunc("POST /write", s.handleWrite)
	mux.HandleFunc("POST /admin/checkpoint", s.handleCheckpoint)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler: the routing mux wrapped in the
// per-request panic isolator.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				// The evaluation goroutine is this one, so recovering here
				// fully contains the failure; headers may already be gone,
				// in which case the client sees a truncated body, but the
				// server survives.
				writeErrJSON(w, http.StatusInternalServerError,
					fmt.Sprintf("internal error: %v", v))
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Register compiles text under the server's environment and installs it
// in the registry under name, replacing any previous entry atomically.
func (s *Server) Register(name, text string) error {
	q, err := ecrpq.Parse(text, s.cfg.Env)
	if err != nil {
		return err
	}
	p, err := plan.Compile(q, s.cfg.Env)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.queries[name] = &prepared{text: text, plan: p}
	s.mu.Unlock()
	return nil
}

// lookup returns the registry entry for name.
func (s *Server) lookup(name string) (*prepared, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.queries[name]
	return p, ok
}

// BeginDrain flips the server into draining mode: new queries and
// writes are refused with 503 (health checks keep answering, so a load
// balancer sees the state), while requests already admitted run to
// completion. The caller then uses http.Server.Shutdown, which waits
// for the in-flight requests.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// MaxTimeout is the longest deadline a request can obtain (the
// configured clamp, defaulted): what a listener needs to bound how long
// one request may hold its connection.
func (s *Server) MaxTimeout() time.Duration { return s.cfg.MaxTimeout }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats returns a point-in-time snapshot of the serving counters.
func (s *Server) Stats() Stats {
	parRuns, parLevels, parFallbacks, parFanouts := ecrpq.BFSParallelStats()
	return Stats{
		ParRuns:      parRuns,
		ParLevels:    parLevels,
		ParFallbacks: parFallbacks,
		ParFanouts:   parFanouts,
		Requests:   s.requests.Load(),
		OK:         s.ok.Load(),
		Degraded:   s.degraded.Load(),
		Overloaded: s.overloaded.Load(),
		Unavail:    s.unavail.Load(),
		Budget:     s.budget.Load(),
		Deadline:   s.deadline.Load(),
		Canceled:   s.canceled.Load(),
		Panics:     s.panics.Load(),
		BadRequest: s.badRequest.Load(),
		NotFound:   s.notFound.Load(),
		Writes:     s.writeLines.Load(),
		WriteErrs:  s.writeErrs.Load(),
		Active:     s.active.Load(),
		Queued:     s.queued.Load(),
		QueueHighW: s.queueHighW.Load(),
		EvalNs:     s.evalNs.Load(),
		Evals:      s.evals.Load(),
		Checkpoints:    s.checkpoints.Load(),
		CheckpointErrs: s.checkpointErrs.Load(),
		Cache:          s.cfg.Cache.Stats(),
		Epoch:          s.cfg.DB.Epoch(),
	}
}

// statsWithDurable extends Stats with the store's durability snapshot
// when the store has one.
func (s *Server) statsWithDurable() Stats {
	st := s.Stats()
	if s.cfg.DB.Durable() {
		d := s.cfg.DB.DurableStats()
		st.Durable = &d
	}
	return st
}

// Checkpoint forces a durable checkpoint of the store — the drain path
// of the daemon calls it before Close so a clean shutdown restarts
// with an empty WAL. It returns graph.ErrNotDurable on a memory-only
// store.
func (s *Server) Checkpoint() error {
	err := s.cfg.DB.Checkpoint()
	if err == nil {
		s.checkpoints.Add(1)
	} else if !errors.Is(err, graph.ErrNotDurable) {
		s.checkpointErrs.Add(1)
	}
	return err
}

// admit acquires an evaluation slot, waiting in the bounded queue when
// all slots are busy. It fails typed: qerr.ErrOverloaded when the queue
// is full (or the server is draining), the classified context error
// when the caller's deadline fires while queued.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	select {
	case s.sem <- struct{}{}:
	default:
		// All slots busy: take a bounded queue position or refuse.
		q := s.queued.Add(1)
		if q > int64(s.cfg.MaxQueue) {
			s.queued.Add(-1)
			return nil, qerr.Wrap(qerr.ErrOverloaded,
				fmt.Errorf("admission queue full (%d waiting)", q-1))
		}
		for hw := s.queueHighW.Load(); q > hw; hw = s.queueHighW.Load() {
			if s.queueHighW.CompareAndSwap(hw, q) {
				break
			}
		}
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			return nil, qerr.Classify(ctx.Err())
		}
	}
	s.active.Add(1)
	return func() {
		s.active.Add(-1)
		<-s.sem
	}, nil
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.draining.Load(),
		"uptime":   time.Since(s.start).String(),
	})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsWithDurable())
}

// handleCheckpoint is POST /admin/checkpoint: force a segment
// checkpoint now (offline compaction of the WAL into the base). The
// failure mapping follows the taxonomy's spirit: asking a memory-only
// daemon to checkpoint is a client error (400), a durable store
// failing to persist is a server error (500), and a draining server
// refuses (503) — its own drain checkpoint is already scheduled.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavail.Add(1)
		writeErrJSON(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	if err := s.Checkpoint(); err != nil {
		if errors.Is(err, graph.ErrNotDurable) {
			s.badRequest.Add(1)
			writeErrJSON(w, http.StatusBadRequest, err.Error())
			return
		}
		writeErrJSON(w, http.StatusInternalServerError, err.Error())
		return
	}
	d := s.cfg.DB.DurableStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"checkpointed": true,
		"epoch":        d.LastCheckpoint,
		"wal_bytes":    d.WALBytes,
	})
}

func (s *Server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.queries))
	for n := range s.queries {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"queries": names})
}

func (s *Server) handlePutQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavail.Add(1)
		writeErrJSON(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	name := r.PathValue("name")
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		s.badRequest.Add(1)
		writeErrJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	text := strings.TrimSpace(string(body))
	if text == "" {
		s.badRequest.Add(1)
		writeErrJSON(w, http.StatusBadRequest, "empty query body")
		return
	}
	if err := s.Register(name, text); err != nil {
		s.badRequest.Add(1)
		writeErrJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"registered": name})
}

func (s *Server) handleGetQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	p, found := s.lookup(name)
	if !found {
		s.notFound.Add(1)
		writeErrJSON(w, http.StatusNotFound, fmt.Sprintf("unknown query %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":       name,
		"text":       p.text,
		"explain":    p.plan.Explain(),
		"components": p.plan.NumComponents(),
		"acyclic":    p.plan.Acyclic(),
	})
}

// answerJSON is the wire form of one answer tuple.
type answerJSON struct {
	Nodes []string   `json:"nodes"`
	Paths []pathJSON `json:"paths,omitempty"`
}

type pathJSON struct {
	Nodes  []string `json:"nodes"`
	Labels []string `json:"labels"`
}

// queryResponse is the wire form of a successful query.
type queryResponse struct {
	Query       string       `json:"query"`
	Epoch       uint64       `json:"epoch"`
	Lag         uint64       `json:"lag"`
	Degraded    bool         `json:"degraded"`
	Cached      bool         `json:"cached"`
	Count       int          `json:"count"`
	Fingerprint string       `json:"fingerprint"`
	Answers     []answerJSON `json:"answers"`
	Truncated   bool         `json:"truncated,omitempty"`
	ElapsedNs   int64        `json:"elapsed_ns"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	name := r.PathValue("name")
	p, found := s.lookup(name)
	if !found {
		s.notFound.Add(1)
		writeErrJSON(w, http.StatusNotFound, fmt.Sprintf("unknown query %q", name))
		return
	}

	// ---- request parameters ----
	qp := r.URL.Query()
	timeout := s.cfg.DefaultTimeout
	if v := qp.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			s.badRequest.Add(1)
			writeErrJSON(w, http.StatusBadRequest, fmt.Sprintf("bad timeout %q", v))
			return
		}
		timeout = min(d, s.cfg.MaxTimeout)
	}
	budget := s.cfg.DefaultBudget
	if v := qp.Get("budget"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.badRequest.Add(1)
			writeErrJSON(w, http.StatusBadRequest, fmt.Sprintf("bad budget %q", v))
			return
		}
		budget = n
	}
	var maxStale uint64
	if v := qp.Get("maxstale"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.badRequest.Add(1)
			writeErrJSON(w, http.StatusBadRequest, fmt.Sprintf("bad maxstale %q", v))
			return
		}
		maxStale = min(n, s.cfg.MaxStaleLag)
	}
	if qp.Get("fresh") != "" {
		maxStale = 0
	}
	limit := 1000
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.badRequest.Add(1)
			writeErrJSON(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q", v))
			return
		}
		limit = n
	}
	workers := s.cfg.BFSWorkers
	if v := qp.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.badRequest.Add(1)
			writeErrJSON(w, http.StatusBadRequest, fmt.Sprintf("bad workers %q", v))
			return
		}
		workers = n
	}
	opts := ecrpq.Options{MaxProductStates: budget, BFSWorkers: workers}
	for _, b := range qp["bind"] {
		k, val, ok := strings.Cut(b, "=")
		if !ok {
			s.badRequest.Add(1)
			writeErrJSON(w, http.StatusBadRequest, fmt.Sprintf("bad bind %q (want var=node)", b))
			return
		}
		node, ok := s.cfg.DB.LookupNode(val)
		if !ok {
			s.badRequest.Add(1)
			writeErrJSON(w, http.StatusBadRequest, fmt.Sprintf("bind %q: unknown node %q", b, val))
			return
		}
		if opts.Bind == nil {
			opts.Bind = map[ecrpq.NodeVar]graph.Node{}
		}
		opts.Bind[ecrpq.NodeVar(k)] = node
	}

	// ---- admission ----
	// The evaluation context is the request context (canceled when the
	// client disconnects) bounded by the per-request deadline.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	snap := s.cfg.DB.Snapshot()
	release, err := s.admit(ctx)
	if err != nil {
		// Refused at the door: a staleness-tolerant request may still be
		// served from the cache without consuming a slot.
		if errors.Is(err, qerr.ErrOverloaded) && maxStale > 0 && !s.draining.Load() {
			if res, lag, serr := p.plan.StaleSnapshot(snap, opts, s.cfg.Cache, maxStale); serr == nil {
				s.degraded.Add(1)
				s.writeResult(w, name, snap, res, lag, true, true, 0, limit)
				return
			}
		}
		s.writeTypedError(w, err)
		return
	}
	defer release()

	// ---- evaluation ----
	t0 := time.Now()
	res, cached, err := p.plan.EvalSnapshotCached(ctx, snap, opts, s.cfg.Cache)
	elapsed := time.Since(t0)
	s.evals.Add(1)
	s.evalNs.Add(uint64(elapsed.Nanoseconds()))
	if err != nil {
		// A resource failure (budget, deadline, overload) degrades to a
		// bounded-staleness read when the request allows it; cancellation
		// means the client is gone, so degrading would be wasted work.
		if qerr.IsResource(err) && maxStale > 0 {
			if res, lag, serr := p.plan.StaleSnapshot(snap, opts, s.cfg.Cache, maxStale); serr == nil {
				s.degraded.Add(1)
				s.writeResult(w, name, snap, res, lag, true, true, elapsed.Nanoseconds(), limit)
				return
			}
			// Nothing fresh enough: report the degradation miss as 503
			// rather than the underlying failure's class, so clients and
			// load balancers see "retry elsewhere / later".
			s.unavail.Add(1)
			writeErrJSON(w, http.StatusServiceUnavailable,
				fmt.Sprintf("degraded read failed: %v (after %v)", qerr.ErrStale, err))
			return
		}
		s.writeTypedError(w, err)
		return
	}
	s.writeResult(w, name, snap, res, 0, false, cached, elapsed.Nanoseconds(), limit)
}

// writeResult renders a successful (possibly degraded) evaluation.
func (s *Server) writeResult(w http.ResponseWriter, name string, snap *graph.Snapshot, res *ecrpq.Result, lag uint64, degraded, cached bool, elapsedNs int64, limit int) {
	s.ok.Add(1)
	n := len(res.Answers)
	shown := res.Answers
	truncated := false
	if n > limit {
		shown, truncated = shown[:limit], true
	}
	// Names come from the result's own snapshot: a degraded result may
	// be older than snap, and node ids are only meaningful at its epoch.
	names := res.Snap
	answers := make([]answerJSON, len(shown))
	for i, a := range shown {
		aj := answerJSON{Nodes: make([]string, len(a.Nodes))}
		for j, v := range a.Nodes {
			aj.Nodes[j] = names.Name(v)
		}
		for _, path := range a.Paths {
			pj := pathJSON{Nodes: make([]string, len(path.Nodes)), Labels: make([]string, len(path.Labels))}
			for j, v := range path.Nodes {
				pj.Nodes[j] = names.Name(v)
			}
			for j, l := range path.Labels {
				pj.Labels[j] = string(l)
			}
			aj.Paths = append(aj.Paths, pj)
		}
		answers[i] = aj
	}
	if degraded {
		w.Header().Set("X-Degraded", "true")
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Query:       name,
		Epoch:       snap.Epoch(),
		Lag:         lag,
		Degraded:    degraded,
		Cached:      cached,
		Count:       n,
		Fingerprint: fmt.Sprintf("%016x", res.Fingerprint()),
		Answers:     answers,
		Truncated:   truncated,
		ElapsedNs:   elapsedNs,
	})
}

// writeTypedError maps a taxonomy failure to its status code and
// counter. Unclassified errors are 500s — by construction the
// evaluation stack only fails typed, so an unclassified error is a bug
// worth surfacing loudly.
func (s *Server) writeTypedError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errDraining):
		s.unavail.Add(1)
		writeErrJSON(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, qerr.ErrOverloaded):
		s.overloaded.Add(1)
		w.Header().Set("Retry-After", "1")
		writeErrJSON(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, qerr.ErrBudgetExceeded):
		s.budget.Add(1)
		writeErrJSON(w, http.StatusUnprocessableEntity, err.Error())
	case errors.Is(err, qerr.ErrDeadline):
		s.deadline.Add(1)
		writeErrJSON(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, qerr.ErrCanceled):
		s.canceled.Add(1)
		writeErrJSON(w, StatusClientClosedRequest, err.Error())
	case errors.Is(err, qerr.ErrStale):
		s.unavail.Add(1)
		writeErrJSON(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeErrJSON(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavail.Add(1)
		writeErrJSON(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		s.badRequest.Add(1)
		writeErrJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	applied := 0
	for i, line := range strings.Split(string(body), "\n") {
		if tr := strings.TrimSpace(line); tr == "" || strings.HasPrefix(tr, "#") {
			continue // blank/comment: not counted as applied
		}
		if err := graph.ApplyTextLine(s.cfg.DB, line); err != nil {
			s.writeErrs.Add(1)
			s.badRequest.Add(1)
			writeErrJSON(w, http.StatusBadRequest,
				fmt.Sprintf("write line %d: %v (applied %d line(s) before it)", i+1, err, applied))
			return
		}
		applied++
	}
	s.writeLines.Add(uint64(applied))
	writeJSON(w, http.StatusOK, map[string]any{
		"applied": applied,
		"epoch":   s.cfg.DB.Epoch(),
	})
}

// ---- plumbing ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErrJSON(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg, "status": code})
}
