package ecrpq

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestEvalAfterHeadMutation evaluates, mutates the head in place, and
// evaluates again through Eval: the second answer set must reflect the
// mutated head (narrower tuples, deduplicated).
func TestEvalAfterHeadMutation(t *testing.T) {
	q := MustParse("Ans(x, y) <- (x,p,y), a+(p)", env())
	g := stringGraph("aaa")
	res, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 || len(res.Answers[0].Nodes) != 2 {
		t.Fatalf("before mutation: %v", res.Answers)
	}
	q.HeadNodes = []NodeVar{"x"}
	res2, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Answers) == 0 {
		t.Fatal("no answers after mutation")
	}
	seen := map[graph.Node]bool{}
	for _, a := range res2.Answers {
		if len(a.Nodes) != 1 {
			t.Fatalf("answer arity %d after narrowing the head to one variable", len(a.Nodes))
		}
		if seen[a.Nodes[0]] {
			t.Fatalf("duplicate head tuple %v after narrowing", a.Nodes)
		}
		seen[a.Nodes[0]] = true
	}
	if len(res2.Answers) >= len(res.Answers)+1 {
		t.Fatalf("narrowed head has %d answers, full head %d", len(res2.Answers), len(res.Answers))
	}
}

// TestOptionsCacheKey: semantically identical options canonicalize to
// one key; any evaluation-relevant difference changes it.
func TestOptionsCacheKey(t *testing.T) {
	a := Options{Bind: map[NodeVar]graph.Node{"x": 1, "y": 2}, MaxProductStates: 100}
	b := Options{Bind: map[NodeVar]graph.Node{"y": 2, "x": 1}, MaxProductStates: 100}
	if a.CacheKey() != b.CacheKey() {
		t.Errorf("bind order changed the key:\n%q\n%q", a.CacheKey(), b.CacheKey())
	}
	distinct := []Options{
		a,
		{Bind: map[NodeVar]graph.Node{"x": 1}, MaxProductStates: 100},
		{Bind: map[NodeVar]graph.Node{"x": 2, "y": 2}, MaxProductStates: 100},
		{Bind: map[NodeVar]graph.Node{"x": 1, "y": 2}},
		{MaxProductStates: 100},
		{NoPrune: true},
		{},
	}
	seen := map[string]int{}
	for i, o := range distinct {
		k := o.CacheKey()
		if j, dup := seen[k]; dup {
			t.Errorf("options %d and %d share key %q", i, j, k)
		}
		seen[k] = i
	}
}

// TestOptionsSurface pins the public option surface: exactly these
// four fields, and a CacheKey that renders none of the switches removed
// with the old bench apparatus and the old timing harness. A new field
// must be a deliberate change here, not a knob that slips in beside the
// others.
func TestOptionsSurface(t *testing.T) {
	want := []string{"Bind", "MaxProductStates", "NoPrune", "BFSWorkers"}
	typ := reflect.TypeOf(Options{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Options fields = %v, want %v", got, want)
	}
	key := Options{Bind: map[NodeVar]graph.Node{"x": 1}, NoPrune: true, BFSWorkers: 1}.CacheKey()
	for _, gone := range []string{"nodecomp", "nocls", "noadv", "join="} {
		if strings.Contains(key, gone) {
			t.Errorf("CacheKey %q renders removed component %q", key, gone)
		}
	}
}

// TestResultFingerprintAndSize: the fingerprint is stable across
// recomputation, sensitive to answers, and SizeBytes grows with the
// answer set.
func TestResultFingerprintAndSize(t *testing.T) {
	q := MustParse("Ans(x, y, p1) <- (x,p1,y), a+(p1)", env())
	g := stringGraph("aaaa")
	res1, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Fingerprint() != res2.Fingerprint() {
		t.Error("identical evaluations have different fingerprints")
	}
	empty := &Result{}
	if res1.Fingerprint() == empty.Fingerprint() {
		t.Error("nonempty result fingerprints like the empty result")
	}
	if res1.SizeBytes() <= empty.SizeBytes() {
		t.Errorf("SizeBytes: answers %d, empty %d", res1.SizeBytes(), empty.SizeBytes())
	}
	// Dropping one answer changes the fingerprint.
	trimmed := &Result{Query: res1.Query, Snap: res1.Snap, Answers: res1.Answers[:len(res1.Answers)-1]}
	if trimmed.Fingerprint() == res1.Fingerprint() {
		t.Error("fingerprint insensitive to a dropped answer")
	}
}

// fixedResultAnswers is a hand-built answer set covering every word the
// fingerprint hashes: counts, node tuples, witness nodes and labels,
// empty paths, a negative node and a non-ASCII label.
func fixedResultAnswers() []Answer {
	return []Answer{
		{Nodes: []graph.Node{0, 1}},
		{Nodes: []graph.Node{3, 1 << 33}, Paths: []graph.Path{
			{Nodes: []graph.Node{3, 7, 1 << 33}, Labels: []rune{'a', '⊥'}},
			{Nodes: []graph.Node{3}},
		}},
		{Nodes: []graph.Node{-1}, Paths: []graph.Path{{Nodes: []graph.Node{5, 5}, Labels: []rune{0x10FFFF}}}},
		{},
	}
}

// TestFingerprintGolden pins Result.Fingerprint on a fixed result to the
// value the hash/fnv implementation it replaced returned, and checks the
// inlined FNV-1a against hash/fnv on the same byte stream: cached
// fingerprints, the benchmark's checks and cross-version comparisons depend
// on the value never moving.
func TestFingerprintGolden(t *testing.T) {
	answers := fixedResultAnswers()
	const golden = 0x9d87373ae32846fa
	h := fnv.New64a()
	wr := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	wr(uint64(len(answers)))
	for _, a := range answers {
		wr(uint64(len(a.Nodes)))
		for _, v := range a.Nodes {
			wr(uint64(v))
		}
		wr(uint64(len(a.Paths)))
		for _, p := range a.Paths {
			wr(uint64(len(p.Nodes)))
			for _, v := range p.Nodes {
				wr(uint64(v))
			}
			for _, l := range p.Labels {
				wr(uint64(l))
			}
		}
	}
	got := (&Result{Answers: answers}).Fingerprint()
	if want := h.Sum64(); got != want {
		t.Fatalf("Fingerprint = %016x, hash/fnv over the same words = %016x", got, want)
	}
	if got != golden {
		t.Fatalf("Fingerprint of the fixed result = %#016x, pinned %#016x", got, uint64(golden))
	}
	if got := (&Result{}).Fingerprint(); got != 0xa8c7f832281a39c5 {
		t.Fatalf("Fingerprint of the empty result = %#016x, pinned 0xa8c7f832281a39c5", got)
	}
}

// TestFingerprintMemo: an evaluator-built result hashes once; restamp
// carries the memo to the re-stamped result whether or not it was
// computed yet; a copy whose Answers were re-sliced or replaced does
// not inherit a value that no longer describes it.
func TestFingerprintMemo(t *testing.T) {
	q := MustParse("Ans(x, y, p1) <- (x,p1,y), a+(p1)", env())
	g := stringGraph("aaaa")
	res, err := Eval(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.fp == nil {
		t.Fatal("evaluator-built result carries no fingerprint memo")
	}
	want := fingerprintAnswers(res.Answers)
	early := restamp(res, g.Snapshot()) // before the first Fingerprint call
	if got := res.Fingerprint(); got != want {
		t.Fatalf("Fingerprint = %016x, uncached %016x", got, want)
	}
	late := restamp(res, g.Snapshot())
	for name, r := range map[string]*Result{"before": early, "after": late} {
		if r.fp != res.fp {
			t.Fatalf("restamp %s the first call dropped the memo", name)
		}
		if got := r.Fingerprint(); got != want {
			t.Fatalf("restamp %s the first call: Fingerprint = %016x, want %016x", name, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { res.Fingerprint() }); n != 0 {
		t.Fatalf("memoized Fingerprint allocates %v times per call", n)
	}

	trimmed := *res // shares the memo cell, which is why the cell records what it describes
	trimmed.Answers = trimmed.Answers[:len(trimmed.Answers)-1]
	if got, want := trimmed.Fingerprint(), fingerprintAnswers(trimmed.Answers); got != want || got == res.Fingerprint() {
		t.Fatalf("re-sliced copy: Fingerprint = %016x, its own answers hash to %016x (original %016x)", got, want, res.Fingerprint())
	}
	swapped := *res
	swapped.Answers = append([]Answer(nil), res.Answers...)
	swapped.Answers[0].Nodes = []graph.Node{9, 9}
	if got, want := swapped.Fingerprint(), fingerprintAnswers(swapped.Answers); got != want {
		t.Fatalf("copy with replaced answers: Fingerprint = %016x, its own answers hash to %016x", got, want)
	}
}

// TestFingerprintConcurrent has many goroutines fingerprint one shared
// result (what concurrent cache hits do) from a cold memo; run under
// -race it proves the memo publishes safely.
func TestFingerprintConcurrent(t *testing.T) {
	q := MustParse("Ans(x, y, p1) <- (x,p1,y), a+(p1)", env())
	for round := 0; round < 20; round++ {
		res, err := Eval(q, stringGraph("aaaaaa"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := fingerprintAnswers(res.Answers)
		stamped := restamp(res, res.Snap)
		var wg sync.WaitGroup
		got := make([]uint64, 16)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := res
				if i%2 == 1 {
					r = stamped
				}
				got[i] = r.Fingerprint()
			}(i)
		}
		wg.Wait()
		for i, fp := range got {
			if fp != want {
				t.Fatalf("round %d goroutine %d: Fingerprint = %016x, want %016x", round, i, fp, want)
			}
		}
	}
}
