package pathquery

import (
	"context"
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/ilp"
	"repro/internal/lenabs"
	"repro/internal/linconstr"
	"repro/internal/neg"
	"repro/internal/rdf"
)

// This file holds the snapshot-isolation property test of the
// epoch-versioned store: a pinned snapshot's Eval and Stream answers
// (including witness lengths) must be byte-identical before, during,
// and after a concurrent AddEdge storm. Run it under -race — the CI
// race step covers this package — to also prove the absence of data
// races between the storm and the evaluations.

// renderEval canonicalizes an Eval result: sorted answers with witness
// lengths (Eval keeps shortest witnesses, so lengths are deterministic).
func renderEval(t *testing.T, p *Prepared, s *Snapshot, opts Options) string {
	t.Helper()
	res, err := p.EvalContext(context.Background(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, a := range res.Answers {
		fmt.Fprintf(&b, "%v /", a.Nodes)
		for _, pth := range a.Paths {
			fmt.Fprintf(&b, " %d", pth.Len())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// renderStream canonicalizes a Stream run over a pinned snapshot: the
// sorted node tuples with the witness lengths the deterministic BFS
// discovery produces.
func renderStream(t *testing.T, p *Prepared, s *Snapshot, opts Options) string {
	t.Helper()
	var rows []string
	for a, err := range p.Stream(context.Background(), s, StreamOptions{Options: opts}) {
		if err != nil {
			t.Fatal(err)
		}
		row := fmt.Sprintf("%v /", a.Nodes)
		for _, pth := range a.Paths {
			row += fmt.Sprintf(" %d", pth.Len())
		}
		rows = append(rows, row)
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestSnapshotIsolationUnderWriteStorm pins a snapshot, records its
// Eval and Stream renderings, then re-renders both repeatedly while
// writer goroutines storm AddEdge/AddNode — every rendering must be
// byte-identical to the pre-storm one, and again after the storm. A
// fresh snapshot taken after the storm must see the writes.
func TestSnapshotIsolationUnderWriteStorm(t *testing.T) {
	sigma := []rune{'a', 'b'}
	r := rand.New(rand.NewSource(77))
	g := NewGraph()
	const n = 12
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	// A guaranteed a³b³ chain from node 0, plus random noise edges.
	chain := []rune("aaabbb")
	for i, a := range chain {
		g.AddEdge(Node(i), a, Node(i+1))
	}
	for e := 0; e < 24; e++ {
		g.AddEdge(Node(r.Intn(n)), sigma[r.Intn(2)], Node(r.Intn(n)))
	}

	q, err := ParseQuery("Ans(x, y, p1, p2) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", Env{Sigma: sigma})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(q, Env{Sigma: sigma})
	if err != nil {
		t.Fatal(err)
	}
	// x is bound: the serving-shape point lookup, cheap enough to rerun
	// dozens of times mid-storm.
	opts := Options{MaxProductStates: 50_000_000, Bind: map[NodeVar]Node{"x": 0}}

	pinned := g.Snapshot()
	wantEval := renderEval(t, p, pinned, opts)
	wantStream := renderStream(t, p, pinned, opts)
	if wantEval == "" {
		t.Fatal("empty pre-storm answer set; the test would be vacuous")
	}

	// Writer storm: fresh edges (and the occasional node) in a loop,
	// enough traffic to force compactions mid-storm.
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			wr := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g.AddEdge(Node(wr.Intn(n)), sigma[wr.Intn(2)], Node(wr.Intn(n)))
				if i%50 == 0 {
					g.AddNode("")
				}
			}
		}(int64(100 + w))
	}

	var readers sync.WaitGroup
	for rd := 0; rd < 2; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 5; i++ {
				if got := renderEval(t, p, pinned, opts); got != wantEval {
					t.Errorf("Eval answers drifted mid-storm:\n got:\n%s\nwant:\n%s", got, wantEval)
					return
				}
				if got := renderStream(t, p, pinned, opts); got != wantStream {
					t.Errorf("Stream answers drifted mid-storm:\n got:\n%s\nwant:\n%s", got, wantStream)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()

	// After the storm: the pinned snapshot still answers identically...
	if got := renderEval(t, p, pinned, opts); got != wantEval {
		t.Fatalf("Eval answers drifted after the storm:\n got:\n%s\nwant:\n%s", got, wantEval)
	}
	if got := renderStream(t, p, pinned, opts); got != wantStream {
		t.Fatalf("Stream answers drifted after the storm:\n got:\n%s\nwant:\n%s", got, wantStream)
	}
	// ...while a fresh snapshot reflects the writes.
	fresh := g.Snapshot()
	if fresh.Epoch() <= pinned.Epoch() || fresh.NumEdges() <= pinned.NumEdges() {
		t.Fatalf("storm left no trace: pinned epoch %d/%d edges, fresh %d/%d",
			pinned.Epoch(), pinned.NumEdges(), fresh.Epoch(), fresh.NumEdges())
	}
	if _, err := p.EvalContext(context.Background(), fresh, opts); err != nil {
		t.Fatalf("post-storm evaluation: %v", err)
	}
}

// TestSnapshotterEntryPoints runs every evaluation entry point that
// takes a Snapshotter on a graph where one later write changes the
// answer. Passing the Graph must see the write; passing a snapshot
// pinned before it must read exactly what the Graph read at the pin,
// whatever the entry point reports: a Fingerprint, the sorted answer
// keys, an automaton's size, a length set or a bool.
func TestSnapshotterEntryPoints(t *testing.T) {
	sigma := []rune{'a', 'b'}
	env := Env{Sigma: sigma}
	ctx := context.Background()
	const u, v, w Node = 0, 1, 2
	// u -a-> v -b-> w; the write adds v -a-> u, closing an a-cycle.
	build := func() *Graph {
		g := NewGraph()
		g.AddNode("u")
		g.AddNode("v")
		g.AddNode("w")
		g.AddEdge(u, 'a', v)
		g.AddEdge(v, 'b', w)
		return g
	}
	write := func(g *Graph) { g.AddEdge(v, 'a', u) }

	nodes, err := ParseQuery("Ans(x, y) <- (x,p,y), a+(p)", env)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := ParseQuery("Ans(x, y, p) <- (x,p,y), a+(p)", env)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ecrpq.CompileProgram(nodes, false)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(nodes, env)
	if err != nil {
		t.Fatal(err)
	}
	cached := prep.Cached(NewCache(1 << 20))
	// At least two a-steps: unsatisfiable until the write closes the cycle.
	twoAs := []linconstr.Constraint{{Terms: []linconstr.Term{{Path: "p", Label: 'a', Coef: 1}}, Rel: ilp.GE, RHS: 2}}
	vu := Path{Nodes: []Node{v, u}, Labels: []rune{'a'}}
	// Some node lies on an a-cycle: false until the write.
	aCycle := neg.ExistsNode{X: "x", F: neg.ExistsPath{P: "p", F: neg.And{
		F: neg.Edge{X: "x", P: "p", Y: "x"}, G: neg.Lang("a+", "p")}}}
	// Only a ≺ a: v originates no a-sequence until the write.
	onlyA := rdf.NewHierarchy().Sub('a', 'a')

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	fp := func(res *Result, err error) string {
		t.Helper()
		must(err)
		return fmt.Sprintf("fingerprint %016x", res.Fingerprint())
	}
	keys := func(answers []Answer, err error) string {
		t.Helper()
		must(err)
		ks := make([]string, len(answers))
		for i, a := range answers {
			ks[i] = a.Key()
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	streamed := func(seq iter.Seq2[Answer, error]) string {
		t.Helper()
		var answers []Answer
		for a, err := range seq {
			must(err)
			answers = append(answers, a)
		}
		return keys(answers, nil)
	}
	nfaSize := func(states, transitions int) string {
		return fmt.Sprintf("%d states, %d transitions", states, transitions)
	}
	decided := func(ok bool, err error) string {
		t.Helper()
		must(err)
		return fmt.Sprint(ok)
	}

	cases := []struct {
		name string
		read func(g Snapshotter) string
	}{
		{"ecrpq.Eval", func(g Snapshotter) string { return fp(ecrpq.Eval(nodes, g, Options{})) }},
		{"ecrpq.Program.Eval", func(g Snapshotter) string { return fp(prog.Eval(ctx, g, Options{})) }},
		{"ecrpq.Program.Stream", func(g Snapshotter) string { return streamed(prog.Stream(ctx, g, StreamOptions{})) }},
		{"ecrpq.ProductNFA", func(g Snapshotter) string {
			a, _, err := ecrpq.ProductNFA(nodes, g, Options{})
			must(err)
			return nfaSize(a.NumStates(), a.NumTransitions())
		}},
		{"ecrpq.BuildPathAutomaton", func(g Snapshotter) string {
			pa, err := ecrpq.BuildPathAutomaton(paths, g, []Node{u, v}, Options{})
			must(err)
			return nfaSize(pa.A.NumStates(), pa.A.NumTransitions())
		}},
		{"ecrpq.NaiveEval", func(g Snapshotter) string { return keys(ecrpq.NaiveEval(nodes, g, 3)) }},
		{"ecrpq.Member", func(g Snapshotter) string { return decided(ecrpq.Member(nodes, g, []Node{v, u}, nil, Options{})) }},
		// The path is validated on the same snapshot the automaton is
		// built on: on the pin, v -a-> u is not an edge yet.
		{"ecrpq.Member/path", func(g Snapshotter) string {
			ok, err := ecrpq.Member(paths, g, []Node{v, u}, []Path{vu}, Options{})
			if err != nil && strings.Contains(err.Error(), "missing edge") {
				return "path not in graph"
			}
			return decided(ok, err)
		}},
		{"linconstr.Feasible", func(g Snapshotter) string {
			return decided(linconstr.Feasible(nodes, twoAs, g, sigma, nil, linconstr.Options{}))
		}},
		{"linconstr.EvalContext", func(g Snapshotter) string {
			return keys(linconstr.EvalContext(ctx, nodes, twoAs, g, sigma, linconstr.Options{}))
		}},
		{"lenabs.EvalAbstract", func(g Snapshotter) string {
			return keys(lenabs.EvalAbstract(ctx, nodes, g, sigma, Options{}))
		}},
		{"lenabs.EvalLenContext", func(g Snapshotter) string {
			return keys(lenabs.EvalLenContext(ctx, nodes, g, lenabs.Options{}))
		}},
		{"lenabs.LengthsBetween", func(g Snapshotter) string {
			return fmt.Sprint(lenabs.LengthsBetween(g, u, u).Progressions())
		}},
		{"neg.NewEvaluator", func(g Snapshotter) string { return decided(neg.NewEvaluator(g).Holds(aCycle)) }},
		{"neg.NewCRPQNegEvaluator", func(g Snapshotter) string {
			return decided(neg.NewCRPQNegEvaluator(g).HoldsCRPQ(aCycle))
		}},
		{"rdf.Hierarchy.IsoAssociated", func(g Snapshotter) string {
			pairs, err := onlyA.IsoAssociated(g)
			must(err)
			sort.Slice(pairs, func(i, j int) bool {
				return pairs[i][0] < pairs[j][0] || (pairs[i][0] == pairs[j][0] && pairs[i][1] < pairs[j][1])
			})
			return fmt.Sprint(pairs)
		}},
		{"rdf.Hierarchy.RhoQuery", func(g Snapshotter) string {
			pairs, err := onlyA.RhoQuery(g, u, v, 10, 3)
			must(err)
			rows := make([]string, len(pairs))
			for i, pr := range pairs {
				rows[i] = fmt.Sprint(pr[0].Nodes, pr[0].LabelString(), pr[1].Nodes, pr[1].LabelString())
			}
			sort.Strings(rows)
			return strings.Join(rows, " ")
		}},
		{"pathquery.Eval", func(g Snapshotter) string { return fp(Eval(nodes, g, Options{})) }},
		{"Prepared.Eval", func(g Snapshotter) string { return fp(prep.Eval(g, Options{})) }},
		{"Prepared.EvalContext", func(g Snapshotter) string { return fp(prep.EvalContext(ctx, g, Options{})) }},
		{"Prepared.Stream", func(g Snapshotter) string { return streamed(prep.Stream(ctx, g, StreamOptions{})) }},
		{"CachedPrepared.Eval", func(g Snapshotter) string { return fp(cached.Eval(g, Options{})) }},
		{"CachedPrepared.EvalContext", func(g Snapshotter) string { return fp(cached.EvalContext(ctx, g, Options{})) }},
		{"pathquery.Member", func(g Snapshotter) string { return decided(Member(nodes, g, []Node{v, u}, nil, Options{})) }},
		{"pathquery.BuildPathAutomaton", func(g Snapshotter) string {
			pa, err := BuildPathAutomaton(paths, g, []Node{u, v}, Options{})
			must(err)
			return nfaSize(pa.A.NumStates(), pa.A.NumTransitions())
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := build()
			before := c.read(g)
			pinned := g.Snapshot()
			write(g)
			if got := c.read(pinned); got != before {
				t.Errorf("pinned snapshot after the write reads %q, the graph read %q at the pin", got, before)
			}
			if after := c.read(g); after == before {
				t.Errorf("graph after the write still reads %q: the write was not seen", after)
			}
		})
	}
}
