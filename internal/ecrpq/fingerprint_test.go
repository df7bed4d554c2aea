package ecrpq

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
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
// answer set. A re-stamped result reads its size from the memo cell it
// shares; a copy with other answers does not.
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

	size := res1.SizeBytes()
	re := restamp(res1, g.Snapshot())
	if got := re.SizeBytes(); re.fp != res1.fp || got != size {
		t.Fatalf("re-stamped SizeBytes = %d (memo shared: %v), want %d", got, re.fp == res1.fp, size)
	}
	res1.fp.size++ // a size read from the memo moves with it
	if got := re.SizeBytes(); got != size+1 {
		t.Errorf("re-stamped SizeBytes = %d after the memo moved to %d: the answers were walked again", got, size+1)
	}
	res1.fp.size--
	copied := *res1 // shares the memo cell, not the answers it describes
	copied.Answers = copied.Answers[:len(copied.Answers)-1]
	if got, want := copied.SizeBytes(), size-answersBytes(res1.Answers[len(res1.Answers)-1:]); got != want {
		t.Errorf("SizeBytes of a copy without the last answer = %d, want %d", got, want)
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
	got := (&Result{Answers: answers}).Fingerprint()
	if want := fnvReference(answers); got != want {
		t.Fatalf("Fingerprint = %016x, hash/fnv over the same words = %016x", got, want)
	}
	if got != golden {
		t.Fatalf("Fingerprint of the fixed result = %#016x, pinned %#016x", got, uint64(golden))
	}
	if got := (&Result{}).Fingerprint(); got != 0xa8c7f832281a39c5 {
		t.Fatalf("Fingerprint of the empty result = %#016x, pinned 0xa8c7f832281a39c5", got)
	}
}

// fnvReference hashes the answer set's words through hash/fnv, eight
// little-endian bytes each: the byte stream fingerprintAnswers hashes.
func fnvReference(answers []Answer) uint64 {
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
	return h.Sum64()
}

// TestFingerprintMatchesFNV checks the folded FNV-1a against hash/fnv on
// random answer sets whose node ids and labels sit just below and past
// 2⁸, 2¹⁶, 2²⁴ and 2³¹ (and at 0 and negative ids), with and without
// witness paths: every count of trailing zero bytes a word can have.
func TestFingerprintMatchesFNV(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	var edges []int64
	for _, b := range []uint{8, 16, 24, 31} {
		edges = append(edges, 1<<b-1, 1<<b, 1<<b+1)
	}
	edges = append(edges, 0, 1, -1, 1<<40, -(1 << 31))
	val := func() int64 {
		if r.Intn(3) == 0 {
			return r.Int63n(1 << 33)
		}
		return edges[r.Intn(len(edges))]
	}
	label := func() rune {
		if r.Intn(4) == 0 {
			return rune(r.Intn(0x110000))
		}
		return rune([]int64{0xff, 0x100, 0xffff, 0x10000, 'a', 0x10FFFF}[r.Intn(6)])
	}
	for trial := 0; trial < 300; trial++ {
		answers := make([]Answer, r.Intn(6))
		for i := range answers {
			a := &answers[i]
			for n := r.Intn(4); n > 0; n-- {
				a.Nodes = append(a.Nodes, graph.Node(val()))
			}
			for n := r.Intn(3); trial%2 == 1 && n > 0; n-- {
				var p graph.Path
				for m := r.Intn(4); m > 0; m-- {
					p.Nodes = append(p.Nodes, graph.Node(val()))
					p.Labels = append(p.Labels, label())
				}
				a.Paths = append(a.Paths, p)
			}
		}
		if got, want := fingerprintAnswers(answers), fnvReference(answers); got != want {
			t.Fatalf("trial %d: fingerprint %016x, hash/fnv %016x over %v", trial, got, want, answers)
		}
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
