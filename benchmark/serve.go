package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/server"
	"repro/internal/workload"
)

// The serve workloads run ecrpqd's serving core in this process:
// server.New behind a real net/http listener on loopback, driven by
// keep-alive clients in a closed loop.

// serveTexts are the five registered queries, hottest first. maxDeg
// caps the out-degree of the bound node for the two-atom shapes, whose
// cost grows with the product of the degrees: a hub there takes seconds
// and would measure nothing but itself.
var serveTexts = []struct {
	name, text string
	maxDeg     int
}{
	{"rpq", "Ans(x,y) <- (x,p,y), a+b(p)", 0},
	{"three", "Ans(x,y) <- (x,p,y), (a|b)(a|b)(a|b)(p)", 0},
	{"wit", "Ans(x,y,p) <- (x,p,y), ab*c(p)", 0},
	{"chain", chainText, 256},
	{"anbn", selectiveText, 256},
}

const (
	serveGraphSeed = 20     // workload.NewMixedServing instance: ~100k edges, 20k nodes, σ = 8
	bindScan       = 64     // base nodes 0..63 are the bind candidates
	bindsPerText   = 2      // pairs = 5 texts × 2 binds
	minAnswers     = 1      // every served pair returns between minAnswers
	maxAnswers     = 5000   // and maxAnswers answers at epoch 0
	selectBudget   = 400000 // product states a qualifying bind may cost
	serveLimit     = 100    // limit= on every read
	zipfS          = 1.5    // skew of the pair mix
	writePct       = 10     // serve_mixed: share of operations that are writes
	ckptEvery      = 100    // serve_mixed: POST /admin/checkpoint every this many writes
)

// servePair is one (query, bind) the clients ask for.
type servePair struct {
	name   string
	bind   graph.Node
	url    string
	plan   *plan.Plan // the benchmark's own compilation, for reference evaluations
	opts   ecrpq.Options
	refHex string // fingerprint at epoch 0, as responses spell it
	count  int    // answers at epoch 0
}

type serveClient struct {
	id    int
	http  *http.Client
	rng   *rand.Rand
	zipf  *rand.Zipf
	ops   int64
	acked []edge // writes the daemon acknowledged to this client
	body  bytes.Buffer
}

type serveFx struct {
	mixed bool
	opts  graph.Options
	dir   string
	db    *graph.DB
	twin  *graph.DB // memory-only copy; acknowledged writes are replayed onto it
	sigma []rune
	srv   *server.Server
	hs    *http.Server
	base  string
	pairs []servePair
	cl    []*serveClient

	tr          atomic.Pointer[tracer] // where the handler wrapper records during a traced window
	writes      atomic.Int64
	checkpoints atomic.Int64
	closed      bool
}

// queryResp is the part of a query response the client reads.
type queryResp struct {
	Epoch       uint64            `json:"epoch"`
	Count       int               `json:"count"`
	Fingerprint string            `json:"fingerprint"`
	Answers     []json.RawMessage `json:"answers"`
	ElapsedNs   int64             `json:"elapsed_ns"`
}

func numClients() int { return min(runtime.NumCPU(), 4) }

// hexFingerprint spells a result's fingerprint the way responses do.
func hexFingerprint(res *ecrpq.Result) string { return fmt.Sprintf("%016x", res.Fingerprint()) }

// setupServe builds the daemon for serve_hot (memory-only store) or
// serve_mixed (durable store in a directory of its own under tmp,
// bulk-built then reopened; close removes it).
func setupServe(seed int64, mixed bool, tmp string) (*serveFx, error) {
	r := rand.New(rand.NewSource(seed))
	m := workload.NewMixedServing(serveGraphSeed)
	p := permute(m.Graph, r)
	f := &serveFx{mixed: mixed, sigma: m.Sigma, opts: graph.Options{SyncEveryWrite: false}}
	if mixed {
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		var err error
		if f.dir, err = os.MkdirTemp(tmp, "store-"); err != nil {
			return nil, err
		}
		d, err := graph.OpenDirOptions(f.dir, f.opts)
		if err != nil {
			os.RemoveAll(f.dir)
			return nil, err
		}
		err = d.Bulk(func() error { p.load(d); return nil })
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			f.db, err = graph.OpenDirOptions(f.dir, f.opts)
		}
		if err != nil {
			os.RemoveAll(f.dir)
			return nil, fmt.Errorf("durable store: %w", err)
		}
		f.twin = p.memDB()
	} else {
		f.db = p.memDB()
	}
	if err := f.choosePairs(m.Env(), p.perm); err != nil {
		f.close()
		return nil, err
	}

	// The deadline is far beyond any served evaluation (binds were chosen
	// within selectBudget), so a slow host never turns a read into a 504.
	f.srv = server.New(server.Config{DB: f.db, Env: m.Env(), Cache: qcache.New(64 << 20),
		DefaultTimeout: 30 * time.Second})
	for _, t := range serveTexts {
		if err := f.srv.Register(t.name, t.text); err != nil {
			f.close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	f.hs = &http.Server{Handler: f.spanHandler(f.srv.Handler())}
	go f.hs.Serve(ln) // returns when close() shuts the server down

	for i := range f.pairs {
		pr := &f.pairs[i]
		pr.url = fmt.Sprintf("%s/query/%s?bind=x=%s&limit=%d", f.base, pr.name, f.db.Name(pr.bind), serveLimit)
	}
	for c := 0; c < numClients(); c++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c) + 1))
		f.cl = append(f.cl, &serveClient{
			id:   c,
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
			rng:  rng,
			zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(f.pairs)-1)),
		})
	}
	// Prime the result cache through the front door, so every later read
	// at this epoch is a hit, and hold the daemon to the references.
	for i := range f.pairs {
		if res := f.read(f.cl[0], &f.pairs[i], nil, true); res.failed {
			err := fmt.Errorf("pair %s@%s: daemon disagrees with the library reference at epoch 0",
				f.pairs[i].name, f.db.Name(f.pairs[i].bind))
			f.close() // unmaps the store the name lives in
			return nil, err
		}
	}
	return f, nil
}

// choosePairs picks the binds by property, not by id: per text, the
// first candidates (base nodes 0..63, hubs first) whose out-degree is
// within the text's cap, whose evaluation fits selectBudget product
// states, and that return 1–5000 answers. It fails when a text has
// fewer than bindsPerText such binds, so no pair is ever served empty.
func (f *serveFx) choosePairs(env ecrpq.Env, perm []graph.Node) error {
	snap := f.db.Snapshot()
	perText := make([][]servePair, len(serveTexts))
	for ti, t := range serveTexts {
		q, err := ecrpq.Parse(t.text, env)
		if err != nil {
			return err
		}
		pl, err := plan.Compile(q, env)
		if err != nil {
			return err
		}
		for _, v := range perm[:bindScan] {
			if len(perText[ti]) == bindsPerText {
				break
			}
			if t.maxDeg > 0 && snap.OutDegree(v) > t.maxDeg {
				continue
			}
			opts := ecrpq.Options{Bind: map[ecrpq.NodeVar]graph.Node{"x": v}, MaxProductStates: selectBudget, BFSWorkers: 1}
			res, err := pl.EvalSnapshot(context.Background(), snap, opts)
			if errors.Is(err, ecrpq.ErrBudget) {
				continue
			}
			if err != nil {
				return fmt.Errorf("%s: %w", t.name, err)
			}
			if n := len(res.Answers); n < minAnswers || n > maxAnswers {
				continue
			}
			opts.MaxProductStates = 0
			perText[ti] = append(perText[ti], servePair{name: t.name, bind: v, plan: pl, opts: opts,
				refHex: hexFingerprint(res), count: len(res.Answers)})
		}
		if len(perText[ti]) < bindsPerText {
			return fmt.Errorf("query %s: only %d of %d binds among the first %d nodes return %d–%d answers within budget",
				t.name, len(perText[ti]), bindsPerText, bindScan, minAnswers, maxAnswers)
		}
	}
	for b := 0; b < bindsPerText; b++ {
		for ti := range serveTexts {
			f.pairs = append(f.pairs, perText[ti][b])
		}
	}
	return nil
}

// spanHandler wraps the daemon's handler: a request that carries
// X-Bench-Op (only traced windows send it) gets a server.handler span
// under the client's http.roundtrip span, and learns the span's id from
// X-Bench-Span so the client can hang plan.eval below it.
func (f *serveFx) spanHandler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get("X-Bench-Op")
		tr := f.tr.Load()
		if h == "" || tr == nil {
			inner.ServeHTTP(w, r)
			return
		}
		opStr, parentStr, _ := strings.Cut(h, ":")
		op, _ := strconv.ParseInt(opStr, 10, 64)
		parent, _ := strconv.ParseInt(parentStr, 10, 32)
		id := tr.begin(spanHandler, int32(parent), op)
		w.Header().Set("X-Bench-Span", strconv.Itoa(int(id)))
		inner.ServeHTTP(w, r)
		tr.end(id)
	})
}

func (f *serveFx) clients() int { return len(f.cl) }

func (f *serveFx) op(c int, tr *tracer) opResult {
	cl := f.cl[c]
	if f.tr.Load() != tr {
		f.tr.Store(tr)
	}
	if f.mixed && cl.rng.Intn(100) < writePct {
		return f.write(cl, tr)
	}
	return f.read(cl, &f.pairs[cl.zipf.Uint64()], tr, !f.mixed)
}

// reply is what do hands back. The body is in the client's buffer until
// its next request.
type reply struct {
	status int
	hdr    http.Header
}

// beginOp opens the op span of a client's next operation; the caller
// closes it when the whole operation, checks included, is over.
func (cl *serveClient) beginOp(tr *tracer) (op int64, root int32) {
	cl.ops++
	op = int64(cl.id)<<40 | cl.ops
	return op, tr.begin(spanOp, -1, op)
}

// do sends one request under the op span root.
func (f *serveFx) do(cl *serveClient, tr *tracer, op int64, root int32, method, url, payload string) (reply, error) {
	var rd io.Reader
	if payload != "" {
		rd = strings.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	rt := tr.begin(spanRoundtrip, root, op)
	defer tr.end(rt)
	if tr != nil {
		req.Header.Set("X-Bench-Op", fmt.Sprintf("%d:%d", op, rt))
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	cl.body.Reset()
	_, err = cl.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return reply{resp.StatusCode, resp.Header}, err
}

// request is an untraced request outside any operation.
func (f *serveFx) request(cl *serveClient, method, url, payload string) (reply, error) {
	return f.do(cl, nil, 0, -1, method, url, payload)
}

// read asks for one pair. With exact set, the response must carry the
// epoch-0 reference fingerprint; otherwise (writes are landing) it must
// be a 200 with at least the epoch-0 answer count, since edges are only
// added and every served query is monotone in its node tuples.
func (f *serveFx) read(cl *serveClient, pr *servePair, tr *tracer, exact bool) opResult {
	op, root := cl.beginOp(tr)
	defer tr.end(root)
	rp, err := f.do(cl, tr, op, root, http.MethodGet, pr.url, "")
	if err != nil || rp.status != http.StatusOK {
		return opResult{failed: true}
	}
	var qr queryResp
	if err := json.Unmarshal(cl.body.Bytes(), &qr); err != nil {
		return opResult{failed: true}
	}
	if tr != nil {
		if id, err := strconv.Atoi(rp.hdr.Get("X-Bench-Span")); err == nil {
			start := tr.startOf(int32(id))
			tr.add(spanEval, int32(id), op, start, start+qr.ElapsedNs)
		}
	}
	ok := qr.Count >= pr.count
	if exact {
		ok = qr.Fingerprint == pr.refHex && qr.Count == pr.count
	}
	return opResult{answers: len(qr.Answers), failed: !ok}
}

// write posts one seeded edge and, every ckptEvery acknowledged writes,
// asks for a checkpoint.
func (f *serveFx) write(cl *serveClient, tr *tracer) opResult {
	n := f.db.NumNodes()
	e := edge{graph.Node(cl.rng.Intn(n)), f.sigma[cl.rng.Intn(len(f.sigma))], graph.Node(cl.rng.Intn(n))}
	line := fmt.Sprintf("edge n%d %c n%d\n", e.from, e.label, e.to)
	op, root := cl.beginOp(tr)
	defer tr.end(root)
	rp, err := f.do(cl, tr, op, root, http.MethodPost, f.base+"/write", line)
	if err != nil || rp.status != http.StatusOK {
		return opResult{write: true, failed: true}
	}
	cl.acked = append(cl.acked, e)
	res := opResult{write: true}
	if f.writes.Add(1)%ckptEvery == 0 {
		rp, err := f.request(cl, http.MethodPost, f.base+"/admin/checkpoint", "")
		if err != nil || rp.status != http.StatusOK {
			res.failed = true
		} else {
			f.checkpoints.Add(1)
		}
	}
	return res
}

func (f *serveFx) counters() map[string]float64 {
	st := f.srv.Stats()
	return map[string]float64{
		"hit":              float64(st.Cache.Hits),
		"compute":          float64(st.Cache.Misses),
		"revalidated":      float64(st.Cache.Revalidated),
		"incremental":      float64(st.Cache.Incremental),
		"wait":             float64(st.Cache.Waits),
		"evictions":        float64(st.Cache.Evictions),
		"cache_bytes":      float64(st.Cache.Bytes),
		"eval_ns":          float64(st.EvalNs),
		"refused":          float64(st.Overloaded + st.Unavail),
		"queue_high_water": float64(st.QueueHighW),
		"checkpoints":      float64(f.checkpoints.Load()),
	}
}

// verify is serve_mixed's after-window check (serve_hot checks every
// response as it arrives). With the clients quiet: what the daemon
// serves for each pair equals an uncached evaluation at the final epoch;
// then the store is closed and reopened and must hold every acknowledged
// write — same edge count and epoch as a memory-only twin that replayed
// the acknowledgements, every acknowledged edge present, same
// fingerprints.
func (f *serveFx) verify() (attempted, failed int) {
	if !f.mixed {
		return 0, 0
	}
	check := func(ok bool) {
		attempted++
		if !ok {
			failed++
		}
	}
	ctx := context.Background()
	served := make([]string, len(f.pairs))
	snap := f.db.Snapshot()
	for i := range f.pairs {
		pr := &f.pairs[i]
		rp, err := f.request(f.cl[0], http.MethodGet, pr.url, "")
		var qr queryResp
		if err == nil && rp.status == http.StatusOK {
			err = json.Unmarshal(f.cl[0].body.Bytes(), &qr)
		}
		res, rerr := pr.plan.EvalSnapshot(ctx, snap, pr.opts)
		check(err == nil && rerr == nil && qr.Epoch == snap.Epoch() &&
			qr.Fingerprint == hexFingerprint(res))
		served[i] = qr.Fingerprint
	}
	for _, cl := range f.cl {
		for _, e := range cl.acked {
			f.twin.AddEdge(e.from, e.label, e.to)
		}
	}
	epoch := f.db.Epoch()
	f.shutdown()
	if err := f.db.Close(); err != nil {
		check(false)
		return
	}
	db, err := graph.OpenDirOptions(f.dir, f.opts)
	if err != nil {
		check(false)
		return
	}
	f.db = db
	check(db.NumEdges() == f.twin.NumEdges())
	check(db.Epoch() == epoch && epoch == f.twin.Epoch())
	missing := 0
	for _, cl := range f.cl {
		for _, e := range cl.acked {
			if !db.HasEdge(e.from, e.label, e.to) {
				missing++
			}
		}
	}
	check(missing == 0)
	snap = db.Snapshot()
	for i := range f.pairs {
		pr := &f.pairs[i]
		res, err := pr.plan.EvalSnapshot(ctx, snap, pr.opts)
		check(err == nil && hexFingerprint(res) == served[i])
	}
	return
}

// shutdown stops the HTTP server and waits for its connections.
func (f *serveFx) shutdown() {
	if f.hs == nil {
		return
	}
	for _, cl := range f.cl {
		cl.http.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	f.hs.Shutdown(ctx)
	cancel()
	f.hs = nil
}

func (f *serveFx) close() {
	if f.closed {
		return
	}
	f.closed = true
	f.shutdown()
	f.db.Close()
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}
