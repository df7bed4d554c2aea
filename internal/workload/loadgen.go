package workload

// The closed-loop HTTP load generator for the ecrpqd serving daemon:
// N clients, each issuing its next operation only after the previous
// one completed, with a Zipf-skewed choice over the registered query
// mix (rank 0 hottest — the realistic shape where a few prepared
// queries dominate traffic) and a configurable write ratio. Everything
// is seeded, so a load run is reproducible operation-for-operation up
// to server-side scheduling. `ecrpqd -load` and the CI daemon smoke
// both drive this.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// LoadConfig configures one load-generation run.
type LoadConfig struct {
	// BaseURL is the daemon under test, e.g. "http://127.0.0.1:8420".
	BaseURL string
	// Queries are registered query names, hottest first: client i picks
	// query Zipf(rank) per operation. Required, at least one.
	Queries []string
	// Binds optionally carries one bind parameter per query (parallel
	// to Queries; empty string = no bind), e.g. "x=n15000".
	Binds []string
	// Clients is the closed-loop client count. Default 4.
	Clients int
	// Duration bounds the run. Default 5s.
	Duration time.Duration
	// WritePct is the percentage of operations that are writes (0-100).
	WritePct int
	// WriteNodes is the node-id space writes draw from ("n<k>" names,
	// matching the workload graphs). Default 1000.
	WriteNodes int
	// WriteSigma are the labels writes use. Default {'a'}.
	WriteSigma []rune
	// MaxStale, when nonzero, adds maxstale=N to every query — opting
	// into graceful degradation under pressure.
	MaxStale uint64
	// Timeout is the per-request deadline parameter. Default: none
	// (server default applies).
	Timeout time.Duration
	// Budget is the per-request product-state budget. Default: none.
	Budget int
	// Seed makes the operation stream deterministic. Client i derives
	// its own generator from Seed+i.
	Seed int64
	// ZipfS is the query-mix skew (>1). Default 1.5.
	ZipfS float64
}

// LoadReport is the outcome of a load run, aggregated over clients.
type LoadReport struct {
	Ops        int           `json:"ops"`
	Writes     int           `json:"writes"`
	Errors     int           `json:"transport_errors"`
	Statuses   map[int]int   `json:"statuses"`
	Degraded   int           `json:"degraded"`
	Cached     int           `json:"cached"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"ops_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P90        time.Duration `json:"p90_ns"`
	P99        time.Duration `json:"p99_ns"`
	Max        time.Duration `json:"max_ns"`
}

// Any5xx reports whether any operation got a 5xx status — the CI smoke
// job's failure predicate.
func (r LoadReport) Any5xx() bool {
	for code, n := range r.Statuses {
		if code >= 500 && n > 0 {
			return true
		}
	}
	return false
}

// clientResult is one client's tally, merged by RunLoad.
type clientResult struct {
	ops, writes, errors, degraded, cached int
	statuses                              map[int]int
	latencies                             []time.Duration
}

// RunLoad drives cfg.Clients closed-loop clients against cfg.BaseURL
// until cfg.Duration elapses or ctx is canceled, and returns the
// merged report. The error is only non-nil for configuration mistakes;
// transport failures and non-2xx statuses are counted, not fatal —
// the caller decides what mix is acceptable.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadReport, error) {
	if cfg.BaseURL == "" || len(cfg.Queries) == 0 {
		return LoadReport{}, fmt.Errorf("workload: RunLoad needs BaseURL and at least one query")
	}
	if len(cfg.Binds) != 0 && len(cfg.Binds) != len(cfg.Queries) {
		return LoadReport{}, fmt.Errorf("workload: Binds must be empty or parallel to Queries")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.WriteNodes <= 0 {
		cfg.WriteNodes = 1000
	}
	if len(cfg.WriteSigma) == 0 {
		cfg.WriteSigma = []rune{'a'}
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.5
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	results := make([]clientResult, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runClient(runCtx, cfg, i)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := LoadReport{Statuses: map[int]int{}, Elapsed: elapsed}
	var lats []time.Duration
	for _, r := range results {
		rep.Ops += r.ops
		rep.Writes += r.writes
		rep.Errors += r.errors
		rep.Degraded += r.degraded
		rep.Cached += r.cached
		for code, n := range r.statuses {
			rep.Statuses[code] += n
		}
		lats = append(lats, r.latencies...)
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Ops) / elapsed.Seconds()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		pct := func(p float64) time.Duration {
			idx := int(p * float64(len(lats)-1))
			return lats[idx]
		}
		rep.P50, rep.P90, rep.P99 = pct(0.50), pct(0.90), pct(0.99)
		rep.Max = lats[len(lats)-1]
	}
	return rep, nil
}

// runClient is one closed-loop client: pick an operation, issue it,
// record, repeat until the run context expires.
func runClient(ctx context.Context, cfg LoadConfig, id int) clientResult {
	res := clientResult{statuses: map[int]int{}}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Queries)-1))
	client := &http.Client{}
	defer client.CloseIdleConnections()

	var qparams strings.Builder
	if cfg.MaxStale > 0 {
		fmt.Fprintf(&qparams, "&maxstale=%d", cfg.MaxStale)
	}
	if cfg.Timeout > 0 {
		fmt.Fprintf(&qparams, "&timeout=%s", cfg.Timeout)
	}
	if cfg.Budget > 0 {
		fmt.Fprintf(&qparams, "&budget=%d", cfg.Budget)
	}
	writeSeq := 0
	for ctx.Err() == nil {
		isWrite := cfg.WritePct > 0 && rng.Intn(100) < cfg.WritePct
		t0 := time.Now()
		var (
			resp *http.Response
			err  error
		)
		if isWrite {
			// A deterministic pseudo-random edge within the write node
			// space; node names follow the workload graphs' "n<k>" scheme.
			from := rng.Intn(cfg.WriteNodes)
			to := rng.Intn(cfg.WriteNodes)
			label := cfg.WriteSigma[writeSeq%len(cfg.WriteSigma)]
			writeSeq++
			line := fmt.Sprintf("edge n%d %c n%d\n", from, label, to)
			req, rerr := http.NewRequestWithContext(ctx, http.MethodPost,
				cfg.BaseURL+"/write", strings.NewReader(line))
			if rerr != nil {
				res.errors++
				continue
			}
			resp, err = client.Do(req)
		} else {
			rank := int(zipf.Uint64())
			url := fmt.Sprintf("%s/query/%s?limit=10%s", cfg.BaseURL, cfg.Queries[rank], qparams.String())
			if len(cfg.Binds) > 0 && cfg.Binds[rank] != "" {
				url += "&bind=" + cfg.Binds[rank]
			}
			req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if rerr != nil {
				res.errors++
				continue
			}
			resp, err = client.Do(req)
		}
		if err != nil {
			// Context expiry at run end is the normal stop path, not a
			// transport failure worth counting.
			if ctx.Err() == nil {
				res.errors++
			}
			continue
		}
		var flags struct {
			Degraded bool `json:"degraded"`
			Cached   bool `json:"cached"`
		}
		if resp.StatusCode == http.StatusOK && !isWrite {
			_ = json.NewDecoder(resp.Body).Decode(&flags)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		res.ops++
		if isWrite {
			res.writes++
		}
		res.statuses[resp.StatusCode]++
		if flags.Degraded {
			res.degraded++
		}
		if flags.Cached {
			res.cached++
		}
		res.latencies = append(res.latencies, time.Since(t0))
	}
	return res
}
