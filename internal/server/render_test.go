package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/ecrpq"
	"repro/internal/graph"
)

// reflectedResult is the renderer the appending writer replaced: the
// shown answers built into queryResponse and written by json.Encoder
// with HTML escaping off. Every response must equal its bytes.
func reflectedResult(name string, epoch uint64, res *ecrpq.Result, lag uint64, degraded, cached bool, elapsedNs int64, limit int) []byte {
	n := len(res.Answers)
	shown := res.Answers
	truncated := false
	if n > limit {
		shown, truncated = shown[:limit], true
	}
	answers := make([]answerJSON, len(shown))
	for i, a := range shown {
		aj := answerJSON{Nodes: make([]string, len(a.Nodes))}
		for j, v := range a.Nodes {
			aj.Nodes[j] = res.Snap.Name(v)
		}
		for _, path := range a.Paths {
			pj := pathJSON{Nodes: make([]string, len(path.Nodes)), Labels: make([]string, len(path.Labels))}
			for j, v := range path.Nodes {
				pj.Nodes[j] = res.Snap.Name(v)
			}
			for j, l := range path.Labels {
				pj.Labels[j] = string(l)
			}
			aj.Paths = append(aj.Paths, pj)
		}
		answers[i] = aj
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(queryResponse{
		Query:       name,
		Epoch:       epoch,
		Lag:         lag,
		Degraded:    degraded,
		Cached:      cached,
		Count:       n,
		Fingerprint: fmt.Sprintf("%016x", res.Fingerprint()),
		Answers:     answers,
		Truncated:   truncated,
		ElapsedNs:   elapsedNs,
	}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// oddNames are node and query names that leave the writer's fast path:
// JSON's own escapes, HTML characters the daemon does not escape (IRIs
// loaded from N-Triples carry them), control bytes, the JavaScript line
// separators, non-ASCII and invalid UTF-8.
var oddNames = []string{
	`say "hi"`, `back\slash`, `<http://example.org/a?b=1&c=2>`, "<>&",
	"\x00\x01\x1f\x7f", "tab\there\nnew\rline\b\f", "line\u2028sep\u2029par",
	"héllo wörld", "世界", "emoji 😀", "\xff\xfe", "cut \xc3", "\xed\xa0\x80",
	"mixed\u2028\"\\\x02é\xff", "plain", "v0",
}

// oddLabels are edge labels that leave the fast path: control runes,
// JSON's escapes, the line separators, non-ASCII and runes that are not
// valid (negative, surrogate, past U+10FFFF), which string(l) spells
// U+FFFD.
var oddLabels = []rune{
	0, 1, '\b', '\t', '\n', '\f', '\r', 0x1f, '"', '\\', '<', '&', 0x7f,
	'a', 'b', 'é', '世', '😀', '\u2028', '\u2029', utf8.RuneError,
	-1, 0xd800, 0xdfff, utf8.MaxRune + 1, 1 << 30,
}

// oddGraph returns a store with one node per odd name plus k plain ones.
func oddGraph(k int) *graph.DB {
	g := graph.NewDB()
	for _, name := range oddNames {
		g.AddNode(name)
	}
	g.AddNodes(k)
	return g
}

// randomResult builds a result over snap with up to maxAnswers answers
// of arity 1–3. A third of the results carry witness paths (some
// without labels) whose labels are drawn from oddLabels, and a third an
// empty, non-nil path list, which the encoder omits as it omits nil.
func randomResult(rng *rand.Rand, snap *graph.Snapshot, maxAnswers int) *ecrpq.Result {
	node := func() graph.Node { return graph.Node(rng.Intn(snap.NumNodes())) }
	res := &ecrpq.Result{Snap: snap}
	kind := rng.Intn(3)
	withPaths := kind == 0
	arity := 1 + rng.Intn(3)
	for i, n := 0, rng.Intn(maxAnswers+1); i < n; i++ {
		a := ecrpq.Answer{Nodes: make([]graph.Node, arity)}
		for j := range a.Nodes {
			a.Nodes[j] = node()
		}
		if withPaths {
			for p := rng.Intn(3); p >= 0; p-- {
				m := rng.Intn(5)
				path := graph.Path{Nodes: []graph.Node{node()}}
				for k := 0; k < m; k++ {
					path.Labels = append(path.Labels, oddLabels[rng.Intn(len(oddLabels))])
					path.Nodes = append(path.Nodes, node())
				}
				a.Paths = append(a.Paths, path)
			}
		} else if kind == 1 {
			a.Paths = []graph.Path{}
		}
		res.Answers = append(res.Answers, a)
	}
	return res
}

// checkWriteResult serves res through writeResult and compares the
// body with the reflected encoder's and the headers with what the
// handler has always sent.
func checkWriteResult(t *testing.T, s *Server, name string, snap *graph.Snapshot, res *ecrpq.Result, lag uint64, degraded, cached bool, elapsedNs int64, limit int) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.writeResult(rec, name, snap, res, lag, degraded, cached, elapsedNs, limit)
	want := reflectedResult(name, snap.Epoch(), res, lag, degraded, cached, elapsedNs, limit)
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("name %q, limit %d, %d answers: body differs from encoding/json\n got %q\nwant %q", name, limit, len(res.Answers), got, want)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" ||
		rec.Header().Get("Content-Length") != fmt.Sprint(len(want)) {
		t.Fatalf("status %d, headers %v", rec.Code, rec.Header())
	}
	if got := rec.Header().Get("X-Degraded") == "true"; got != degraded {
		t.Fatalf("X-Degraded set = %v, degraded = %v", got, degraded)
	}
}

// TestWriteResultMatchesEncodingJSON holds the appending writer to the
// reflected encoder byte for byte: evaluated witness results on a line
// graph of odd names, and random results over odd names and labels,
// fresh, cached, degraded and stale, at limits that show all, some or
// none of the answers (truncated only when count > limit), empty ones
// included.
func TestWriteResultMatchesEncodingJSON(t *testing.T) {
	g := graph.NewDB()
	prev := g.AddNode(oddNames[0])
	for i, name := range oddNames[1:] {
		next := g.AddNode(name)
		g.AddEdge(prev, rune("ab"[i%2]), next)
		prev = next
	}
	s := New(Config{DB: g, Env: testEnv()})
	snap := g.Snapshot()
	for _, text := range []string{witnessQuery, "Ans(x,y) <- (x,p,y), (a|b)+(p)", "Ans(p) <- (x,p,y), b+(p)", "Ans() <- (x,p,y), a(p)", "Ans(x) <- (x,p,y), bb(p)"} {
		res, err := ecrpq.Eval(ecrpq.MustParse(text, testEnv()), snap, ecrpq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{0, 1, 3, len(res.Answers), 1000} {
			checkWriteResult(t, s, "q", snap, res, 0, false, true, 12345, limit)
		}
	}

	rng := rand.New(rand.NewSource(1))
	odd := oddGraph(20)
	// The request's snapshot may be newer than the result's: a stale
	// result renders its own names at the request's epoch.
	old := odd.Snapshot()
	odd.AddNode("newer")
	cur := odd.Snapshot()
	for i := 0; i < 2000; i++ {
		res := randomResult(rng, old, 12)
		name := oddNames[rng.Intn(len(oddNames))]
		limit := rng.Intn(len(res.Answers) + 2)
		if i%7 == 0 {
			limit = 1000
		}
		switch i % 3 {
		case 0: // fresh or cached
			checkWriteResult(t, s, name, old, res, 0, false, i%2 == 0, rng.Int63(), limit)
		case 1: // degraded, served from the cache at a lag
			checkWriteResult(t, s, name, cur, res, uint64(1+rng.Intn(8)), true, true, 0, limit)
		case 2: // degraded after a failed evaluation
			checkWriteResult(t, s, name, cur, res, uint64(rng.Intn(3)), true, true, int64(rng.Intn(1e9)), limit)
		}
	}
	// Empty results at every limit.
	for _, limit := range []int{0, 1, 1000} {
		checkWriteResult(t, s, "", cur, &ecrpq.Result{Snap: old}, 0, false, false, 0, limit)
	}
}

// FuzzWriteResult holds the writer to the reflected encoder on fuzzed
// query and node names and labels; it must never panic.
func FuzzWriteResult(f *testing.F) {
	for i, name := range oddNames {
		f.Add(name, oddNames[(i+1)%len(oddNames)], string(oddLabels[i%len(oddLabels)]), oddLabels[(i+3)%len(oddLabels)], uint8(i%3))
	}
	s := New(Config{DB: graph.NewDB(), Env: testEnv()})
	f.Fuzz(func(t *testing.T, query, node, labels string, label rune, limit uint8) {
		// A store per input keeps each run independent of the ones before.
		g := graph.NewDB()
		u, v := g.AddNode(node), g.AddNode(node+"'")
		snap := g.Snapshot()
		path := graph.Path{Nodes: []graph.Node{u}}
		for _, l := range append([]rune(labels), label) {
			path.Labels = append(path.Labels, l)
			path.Nodes = append(path.Nodes, v)
		}
		res := &ecrpq.Result{Snap: snap, Answers: []ecrpq.Answer{
			{Nodes: []graph.Node{u, v}, Paths: []graph.Path{path, {Nodes: []graph.Node{v}}}},
			{Nodes: []graph.Node{v, u}},
		}}
		checkWriteResult(t, s, query, snap, res, uint64(limit), limit%2 == 1, true, int64(limit), int(limit%4))
	})
}

// TestHitAllocsIndependentOfShown: a hit appends its page into a pooled
// buffer and writes it once, so it allocates the same whether it shows
// one answer or a hundred answers with their witness paths (the
// reflected renderer allocated per answer, node name and label). The
// slack of 2 covers a pool the collector emptied between runs.
func TestHitAllocsIndependentOfShown(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a quarter of sync.Pool puts at random")
	}
	h, one := hitHandler(t, 120)
	hundred := httptest.NewRequest(http.MethodGet, "/query/paths?limit=100", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hundred)
	var qr queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil || !qr.Cached || len(qr.Answers) != 100 || !qr.Truncated {
		t.Fatalf("limit=100 is not a truncated hit of 100 answers (%v): %.200s", err, rec.Body)
	}
	allocs := func(req *http.Request) float64 {
		return testing.AllocsPerRun(50, func() { h.ServeHTTP(httptest.NewRecorder(), req) })
	}
	a1, a100 := allocs(one), allocs(hundred)
	t.Logf("allocations per hit: limit=1 %.0f, limit=100 %.0f (%d bytes)", a1, a100, rec.Body.Len())
	if a100 > a1+2 {
		t.Fatalf("a hit showing 100 answers allocates %.0f times, one showing 1 answer %.0f: rendering allocates per shown answer", a100, a1)
	}
}

// TestWriteResultStaysOnTheWire checks the framing a client sees over a
// real connection: a page past net/http's 2 KiB chunking buffer carries
// its Content-Length and decodes into the schema.
func TestWriteResultStaysOnTheWire(t *testing.T) {
	s := New(Config{DB: lineGraph(strings.Repeat("a", 40)), Env: testEnv()})
	if err := s.Register("paths", witnessQuery); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, ts.URL+"/query/paths?limit=50", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength <= 2048 || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v", resp.ContentLength, resp.TransferEncoding)
	}
	if qr.Count != 40*41/2 || len(qr.Answers) != 50 || !qr.Truncated || len(qr.Answers[0].Paths) != 1 {
		t.Fatalf("count %d, %d answers shown, truncated %v", qr.Count, len(qr.Answers), qr.Truncated)
	}
}
