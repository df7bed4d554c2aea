package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ecrpq"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/leakcheck"
	"repro/internal/plan"
	"repro/internal/qerr"
)

// The suite drives a real Server over httptest. The fault-injection
// tests share the process-global harness in internal/faultinject, so
// none of them may run in parallel; each clears the hook on cleanup.

func testEnv() ecrpq.Env { return ecrpq.Env{Sigma: []rune{'a', 'b'}} }

func lineGraph(s string) *graph.DB {
	g := graph.NewDB()
	prev := g.AddNode("v0")
	for i, r := range s {
		next := g.AddNode(fmt.Sprintf("v%d", i+1))
		g.AddEdge(prev, r, next)
		prev = next
	}
	return g
}

// newTestServer builds a server over a line graph and registers the
// standard test queries.
func newTestServer(t *testing.T, word string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = lineGraph(word)
	}
	cfg.Env = testEnv()
	s := New(cfg)
	for name, text := range map[string]string{
		"aplus": "Ans(x,y) <- (x,p,y), a+(p)",
		"eq":    "Ans(x,y) <- (x,p1,z), (z,p2,y), eq(p1,p2)",
	} {
		if err := s.Register(name, text); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getJSON fetches url and decodes the response body into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

func TestServeBasics(t *testing.T) {
	_, ts := newTestServer(t, "ababab", Config{})

	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 || health.Status != "ok" || health.Draining {
		t.Fatalf("healthz = %d %+v", code, health)
	}

	var qr queryResponse
	if code := getJSON(t, ts.URL+"/query/aplus", &qr); code != 200 {
		t.Fatalf("query status = %d", code)
	}
	if qr.Count == 0 || qr.Degraded || qr.Fingerprint == "" {
		t.Fatalf("query response = %+v", qr)
	}
	if len(qr.Answers) != qr.Count {
		t.Fatalf("answers rendered = %d, count = %d", len(qr.Answers), qr.Count)
	}

	// Second identical request: served from the cache, same fingerprint.
	var qr2 queryResponse
	getJSON(t, ts.URL+"/query/aplus", &qr2)
	if !qr2.Cached || qr2.Fingerprint != qr.Fingerprint {
		t.Fatalf("second read: cached=%v fp=%s, want cached fp=%s", qr2.Cached, qr2.Fingerprint, qr.Fingerprint)
	}

	// A write advances the epoch; the next read re-evaluates.
	resp, err := http.Post(ts.URL+"/write", "text/plain", strings.NewReader("edge v0 a v3\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("write status = %d", resp.StatusCode)
	}
	var qr3 queryResponse
	getJSON(t, ts.URL+"/query/aplus", &qr3)
	if qr3.Epoch <= qr.Epoch || qr3.Cached {
		t.Fatalf("post-write read: epoch %d (was %d), cached=%v", qr3.Epoch, qr.Epoch, qr3.Cached)
	}
	if qr3.Fingerprint == qr.Fingerprint {
		t.Fatalf("answers unchanged by the new edge")
	}
}

func TestRegistryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, "ab", Config{})

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/queries/bstar",
		strings.NewReader("Ans(x,y) <- (x,p,y), b+(p)"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}

	var listing struct {
		Queries []string `json:"queries"`
	}
	getJSON(t, ts.URL+"/queries", &listing)
	if len(listing.Queries) != 3 {
		t.Fatalf("registry listing = %v, want 3 entries", listing.Queries)
	}

	var info struct {
		Explain string `json:"explain"`
		Acyclic bool   `json:"acyclic"`
	}
	if code := getJSON(t, ts.URL+"/queries/bstar", &info); code != 200 || info.Explain == "" {
		t.Fatalf("GET query info = %d %+v", code, info)
	}
	if code := getJSON(t, ts.URL+"/query/nosuch", nil); code != 404 {
		t.Fatalf("unknown query status = %d, want 404", code)
	}
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/queries/bad", strings.NewReader("not a query"))
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad PUT status = %d, want 400", resp.StatusCode)
	}
}

func TestBindAndLimit(t *testing.T) {
	_, ts := newTestServer(t, "aaaa", Config{})

	var bound queryResponse
	if code := getJSON(t, ts.URL+"/query/aplus?bind=x=v0", &bound); code != 200 {
		t.Fatalf("bound query status = %d", code)
	}
	for _, a := range bound.Answers {
		if a.Nodes[0] != "v0" {
			t.Fatalf("bind violated: %v", a.Nodes)
		}
	}
	var lim queryResponse
	getJSON(t, ts.URL+"/query/aplus?limit=1", &lim)
	if len(lim.Answers) != 1 || !lim.Truncated || lim.Count <= 1 {
		t.Fatalf("limit response: %d answers, truncated=%v, count=%d", len(lim.Answers), lim.Truncated, lim.Count)
	}
	if code := getJSON(t, ts.URL+"/query/aplus?bind=x=ghost", nil); code != 400 {
		t.Fatalf("unknown bind node status = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/query/aplus?timeout=banana", nil); code != 400 {
		t.Fatalf("bad timeout status = %d, want 400", code)
	}
}

func TestTypedStatusMapping(t *testing.T) {
	srv, ts := newTestServer(t, "abababab", Config{})

	// Budget exhaustion → 422.
	if code := getJSON(t, ts.URL+"/query/eq?budget=5", nil); code != 422 {
		t.Fatalf("budget status = %d, want 422", code)
	}
	// Deadline → 504. The BFSStep hook stalls evaluation past the
	// 1ms request deadline deterministically.
	faultinject.Set(func(p faultinject.Point, n uint64) error {
		if p == faultinject.BFSStep {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)
	if code := getJSON(t, ts.URL+"/query/aplus?timeout=1ms&fresh=1", nil); code != 504 {
		t.Fatalf("deadline status = %d, want 504", code)
	}
	faultinject.Clear()

	st := srv.Stats()
	if st.Budget != 1 || st.Deadline != 1 {
		t.Fatalf("stats = budget %d deadline %d, want 1/1", st.Budget, st.Deadline)
	}
}

func TestAdmissionOverload(t *testing.T) {
	srv, ts := newTestServer(t, "ababab", Config{MaxConcurrency: 1, MaxQueue: 2})

	// Stall every evaluation so slots and queue positions fill up.
	faultinject.Set(func(p faultinject.Point, n uint64) error {
		if p == faultinject.BFSStep {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)

	const clients = 12
	codes := make(chan int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct budgets → distinct cache keys → no single-flight
			// collapsing: every request wants its own evaluation slot.
			// The generous timeout keeps queued requests from tripping
			// their deadline: the refusals must come from admission.
			resp, err := http.Get(fmt.Sprintf("%s/query/aplus?budget=%d&fresh=1&timeout=20s", ts.URL, 1_000_000+i))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(codes)
	var ok, overloaded, other int
	for code := range codes {
		switch code {
		case 200:
			ok++
		case 429:
			overloaded++
		default:
			other++
			t.Errorf("unexpected status %d under overload", code)
		}
	}
	if ok == 0 || overloaded == 0 || other != 0 {
		t.Fatalf("overload mix: %d ok, %d overloaded, %d other", ok, overloaded, other)
	}
	st := srv.Stats()
	if st.QueueHighW > 2 {
		t.Fatalf("queue high-water %d exceeded the bound 2", st.QueueHighW)
	}
	if st.Overloaded == 0 {
		t.Fatalf("overload counter not incremented: %+v", st)
	}
}

func TestGracefulDegradation(t *testing.T) {
	srv, ts := newTestServer(t, "ababab", Config{MaxStaleLag: 8})

	// Warm the cache at the current epoch.
	var warm queryResponse
	if code := getJSON(t, ts.URL+"/query/aplus", &warm); code != 200 {
		t.Fatalf("warm read status = %d", code)
	}
	// Advance the store with a live-label edge (the warmed entry is now
	// stale but retained; an 'a' write cannot be revalidated away).
	resp, _ := http.Post(ts.URL+"/write", "text/plain", strings.NewReader("edge v1 a v0\n"))
	resp.Body.Close()

	// A fresh evaluation now fails its (tiny) deadline — but the request
	// permits bounded staleness, so it is served the warmed answer. The
	// delta pass is faulted off so the stale entry cannot be advanced
	// either: degradation is the only 200 left.
	faultinject.Set(func(p faultinject.Point, n uint64) error {
		switch p {
		case faultinject.DeltaBFS:
			return faultinject.ErrForced
		case faultinject.BFSStep:
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)
	var degraded queryResponse
	if code := getJSON(t, ts.URL+"/query/aplus?timeout=1ms&maxstale=8", &degraded); code != 200 {
		t.Fatalf("degraded read status = %d, want 200", code)
	}
	if !degraded.Degraded || degraded.Lag == 0 || degraded.Lag > 8 {
		t.Fatalf("degraded response = %+v, want degraded with lag in (0,8]", degraded)
	}
	if degraded.Fingerprint != warm.Fingerprint {
		t.Fatalf("degraded answer differs from the cached original")
	}
	// The same request without staleness tolerance fails typed instead.
	if code := getJSON(t, ts.URL+"/query/aplus?timeout=1ms&fresh=1", nil); code != 504 {
		t.Fatalf("fresh-only status = %d, want 504", code)
	}
	faultinject.Clear()

	if st := srv.Stats(); st.Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", st.Degraded)
	}
}

func TestPanicIsolation(t *testing.T) {
	srv, ts := newTestServer(t, "ababab", Config{})

	faultinject.Set(func(p faultinject.Point, n uint64) error {
		if p == faultinject.BFSStep {
			panic("injected evaluation panic")
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)
	if code := getJSON(t, ts.URL+"/query/aplus?fresh=1", nil); code != 500 {
		t.Fatalf("panicking request status = %d, want 500", code)
	}
	faultinject.Clear()

	// The daemon survives and the same query now succeeds.
	var qr queryResponse
	if code := getJSON(t, ts.URL+"/query/aplus", &qr); code != 200 || qr.Count == 0 {
		t.Fatalf("post-panic read = %d %+v", code, qr)
	}
	if st := srv.Stats(); st.Panics != 1 {
		t.Fatalf("panic counter = %d, want 1", st.Panics)
	}
}

func TestDrainRefusesAndCompletes(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, "ababab", Config{})

	var warm queryResponse
	getJSON(t, ts.URL+"/query/aplus", &warm)

	srv.BeginDrain()
	if code := getJSON(t, ts.URL+"/query/aplus?fresh=1", nil); code != 503 {
		t.Fatalf("draining query status = %d, want 503", code)
	}
	resp, _ := http.Post(ts.URL+"/write", "text/plain", strings.NewReader("edge v0 a v1\n"))
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("draining write status = %d, want 503", resp.StatusCode)
	}
	var health struct {
		Draining bool `json:"draining"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 || !health.Draining {
		t.Fatalf("draining healthz = %d %+v", code, health)
	}
	ts.Close() // waits for in-flight requests; leakcheck verifies nothing survives
}

// ---- fault-injection invariant suite ----
//
// Each fault class must leave answers byte-identical (Fingerprint) to
// an unfaulted run, or fail with the right typed error — never a wrong
// answer, never an untyped failure.

// unfaultedFingerprint computes the ground-truth fingerprint for query
// text over g's current snapshot, bypassing server and cache.
func unfaultedFingerprint(t *testing.T, text string, g *graph.DB) string {
	t.Helper()
	q, err := ecrpq.Parse(text, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(q, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.EvalSnapshot(context.Background(), g.Snapshot(), ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", res.Fingerprint())
}

func TestFaultSlowSnapshotReads(t *testing.T) {
	g := lineGraph("ababab")
	_, ts := newTestServer(t, "", Config{DB: g})
	want := unfaultedFingerprint(t, "Ans(x,y) <- (x,p,y), a+(p)", g)

	// Every snapshot build stalls; answers must be unaffected.
	faultinject.Set(func(p faultinject.Point, n uint64) error {
		if p == faultinject.SnapshotBuild {
			time.Sleep(5 * time.Millisecond)
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)
	for i := 0; i < 3; i++ {
		// Writes force new snapshot builds through the slow path.
		resp, _ := http.Post(ts.URL+"/write", "text/plain",
			strings.NewReader(fmt.Sprintf("node extra%d\n", i)))
		resp.Body.Close()
		var qr queryResponse
		if code := getJSON(t, ts.URL+"/query/aplus", &qr); code != 200 {
			t.Fatalf("round %d: status %d", i, code)
		}
		if qr.Fingerprint != want {
			t.Fatalf("round %d: slow snapshot changed answers: %s != %s", i, qr.Fingerprint, want)
		}
	}
	if faultinject.Hits(faultinject.SnapshotBuild) == 0 {
		t.Fatal("fault point never reached: the test exercised nothing")
	}
}

func TestFaultMidBFSCancellation(t *testing.T) {
	g := lineGraph("ababab")
	_, ts := newTestServer(t, "", Config{DB: g})
	want := unfaultedFingerprint(t, "Ans(x,y) <- (x,p,y), a+(p)", g)

	// The first BFS step of every evaluation reports cancellation.
	faultinject.Set(func(p faultinject.Point, n uint64) error {
		if p == faultinject.BFSStep {
			return context.Canceled
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)
	code := getJSON(t, ts.URL+"/query/aplus?fresh=1", nil)
	if code != statusClientClosedRequest {
		t.Fatalf("mid-BFS cancel status = %d, want %d", code, statusClientClosedRequest)
	}
	faultinject.Clear()

	// Recovery: the poisoned attempt cached nothing, and the next run is
	// byte-identical to ground truth.
	var qr queryResponse
	if c := getJSON(t, ts.URL+"/query/aplus", &qr); c != 200 || qr.Fingerprint != want {
		t.Fatalf("post-cancel read = %d fp %s, want 200 fp %s", c, qr.Fingerprint, want)
	}
	if qr.Cached {
		t.Fatal("canceled evaluation must not populate the cache")
	}
}

func TestFaultCacheLeaderFailure(t *testing.T) {
	g := lineGraph("ababab")
	_, ts := newTestServer(t, "", Config{DB: g})
	want := unfaultedFingerprint(t, "Ans(x,y) <- (x,p,y), a+(p)", g)

	// The first leader fails after computing; later leaders succeed.
	faultinject.Set(func(p faultinject.Point, n uint64) error {
		if p == faultinject.CacheLeader && n == 1 {
			return qerr.Wrap(qerr.ErrOverloaded, errors.New("injected leader failure"))
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)
	if code := getJSON(t, ts.URL+"/query/aplus?fresh=1", nil); code != 429 {
		t.Fatalf("leader-failure status = %d, want 429 (typed overload)", code)
	}
	// The failed flight poisoned nothing: a retry is served correctly
	// and admitted to the cache.
	var qr queryResponse
	if code := getJSON(t, ts.URL+"/query/aplus", &qr); code != 200 || qr.Fingerprint != want {
		t.Fatalf("retry after leader failure = %d fp %s, want 200 fp %s", code, qr.Fingerprint, want)
	}
	var qr2 queryResponse
	if code := getJSON(t, ts.URL+"/query/aplus", &qr2); code != 200 || !qr2.Cached {
		t.Fatalf("second retry = %d cached=%v, want cached hit", code, qr2.Cached)
	}
}

func TestFaultCompactionStorm(t *testing.T) {
	g := lineGraph("ababab")
	twin := lineGraph("ababab") // unfaulted replica replaying the same writes
	_, ts := newTestServer(t, "", Config{DB: g})

	// Every snapshot compacts, regardless of delta size.
	faultinject.Set(func(p faultinject.Point, n uint64) error {
		if p == faultinject.CompactionPolicy {
			return faultinject.ErrForced
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)

	for i := 0; i < 5; i++ {
		line := fmt.Sprintf("edge v%d a v%d\n", i%6, (i*5+1)%6)
		resp, _ := http.Post(ts.URL+"/write", "text/plain", strings.NewReader(line))
		resp.Body.Close()
		if err := graph.ApplyTextLine(twin, strings.TrimSpace(line)); err != nil {
			t.Fatal(err)
		}
		want := unfaultedFingerprint(t, "Ans(x,y) <- (x,p,y), a+(p)", twin)
		var qr queryResponse
		if code := getJSON(t, ts.URL+"/query/aplus", &qr); code != 200 {
			t.Fatalf("round %d: status %d", i, code)
		}
		if qr.Fingerprint != want {
			t.Fatalf("round %d: compaction storm changed answers: %s != %s", i, qr.Fingerprint, want)
		}
	}
	if faultinject.Hits(faultinject.CompactionPolicy) == 0 {
		t.Fatal("compaction fault point never reached")
	}
}

// TestFaultDeltaBFSFallback: the semi-naive delta pass is an
// optimization, never a correctness dependency — a forced DeltaBFS
// failure makes the serve fall back to a full evaluation with answers
// byte-identical to an unfaulted replica, and once the fault clears
// the incremental path resumes and its serve kind shows up in /statz.
func TestFaultDeltaBFSFallback(t *testing.T) {
	word := strings.Repeat("ab", 8) // big enough for the delta-ratio guard
	g := lineGraph(word)
	twin := lineGraph(word) // unfaulted replica replaying the same writes
	_, ts := newTestServer(t, "", Config{DB: g})

	// Warm: full compute + memo capture at the initial epoch.
	if code := getJSON(t, ts.URL+"/query/aplus", nil); code != 200 {
		t.Fatalf("warm status = %d", code)
	}

	write := func(line string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/write", "text/plain", strings.NewReader(line+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("write status = %d", resp.StatusCode)
		}
		if err := graph.ApplyTextLine(twin, line); err != nil {
			t.Fatal(err)
		}
	}

	// A live write with the delta pass forced to fail: the serve must
	// still succeed, from a full fallback evaluation.
	faultinject.Set(func(p faultinject.Point, n uint64) error {
		if p == faultinject.DeltaBFS {
			return faultinject.ErrForced
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)
	write("edge v0 a v4")
	var qr queryResponse
	if code := getJSON(t, ts.URL+"/query/aplus", &qr); code != 200 {
		t.Fatalf("faulted serve status = %d", code)
	}
	if want := unfaultedFingerprint(t, "Ans(x,y) <- (x,p,y), a+(p)", twin); qr.Fingerprint != want {
		t.Fatalf("faulted fallback changed answers: %s != %s", qr.Fingerprint, want)
	}
	if qr.Cached {
		t.Fatal("faulted delta pass must fall back to a full evaluation, not serve cached data")
	}
	if faultinject.Hits(faultinject.DeltaBFS) == 0 {
		t.Fatal("delta-BFS fault point never reached")
	}
	faultinject.Clear()

	// Fault cleared: the same write shape now advances incrementally,
	// with identical answers.
	write("edge v2 a v6")
	var qr2 queryResponse
	if code := getJSON(t, ts.URL+"/query/aplus", &qr2); code != 200 || !qr2.Cached {
		t.Fatalf("incremental serve = %d cached=%v, want cached", code, qr2.Cached)
	}
	if want := unfaultedFingerprint(t, "Ans(x,y) <- (x,p,y), a+(p)", twin); qr2.Fingerprint != want {
		t.Fatalf("incremental advance changed answers: %s != %s", qr2.Fingerprint, want)
	}
	var st struct {
		Cache struct {
			Revalidated uint64
			Incremental uint64
		} `json:"cache"`
	}
	if code := getJSON(t, ts.URL+"/statz", &st); code != 200 {
		t.Fatalf("statz status = %d", code)
	}
	if st.Cache.Incremental == 0 {
		t.Fatalf("statz cache counters = %+v, want incremental > 0", st.Cache)
	}
}

// TestAdminCheckpoint drives POST /admin/checkpoint: on a memory-only
// store it is a 400 (not durable), on a durable store it persists the
// current epoch and /statz reports the durability block with a bounded
// WAL.
func TestAdminCheckpoint(t *testing.T) {
	_, ts := newTestServer(t, "ab", Config{})
	resp, err := http.Post(ts.URL+"/admin/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("checkpoint on memory store: status %d, want 400", resp.StatusCode)
	}

	g, err := graph.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	prev := g.AddNode("v0")
	for i, r := range "abab" {
		next := g.AddNode(fmt.Sprintf("v%d", i+1))
		g.AddEdge(prev, r, next)
		prev = next
	}
	srv, ts2 := newTestServer(t, "", Config{DB: g})
	resp, err = http.Post(ts2.URL+"/admin/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ck struct {
		Checkpointed bool   `json:"checkpointed"`
		Epoch        uint64 `json:"epoch"`
		WALBytes     int64  `json:"wal_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !ck.Checkpointed {
		t.Fatalf("checkpoint: status %d, body %+v", resp.StatusCode, ck)
	}
	if ck.Epoch != g.Epoch() {
		t.Fatalf("checkpointed at epoch %d, store at %d", ck.Epoch, g.Epoch())
	}
	var st Stats
	getJSON(t, ts2.URL+"/statz", &st)
	if st.Checkpoints != 1 {
		t.Fatalf("stats checkpoints = %d, want 1", st.Checkpoints)
	}
	if st.Durable == nil || st.Durable.LastCheckpoint != ck.Epoch {
		t.Fatalf("stats durable block = %+v", st.Durable)
	}
	if st.Durable.Recovery.SegmentEpoch != 0 {
		t.Fatalf("fresh dir recovered segment epoch %d, want 0", st.Durable.Recovery.SegmentEpoch)
	}
	_ = srv
}

// TestAdminCheckpointDraining: a draining server refuses checkpoints
// with 503 like every other mutation path.
func TestAdminCheckpointDraining(t *testing.T) {
	g, err := graph.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.AddNode("v0")
	srv, ts := newTestServer(t, "", Config{DB: g})
	srv.BeginDrain()
	resp, err := http.Post(ts.URL+"/admin/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("checkpoint while draining: status %d, want 503", resp.StatusCode)
	}
}
