package relations

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/regex"
)

var ab = []rune{'a', 'b'}

func TestConvolve(t *testing.T) {
	s1, s2 := []rune("aba"), []rune("babb")
	w := Convolve(s1, s2)
	if len(w) != 4 {
		t.Fatalf("convolution length %d, want 4", len(w))
	}
	// Paper's example: [(aba, babb)] = (a,b)(b,a)(a,b)(⊥,b)
	want := []TupleSym{
		makeSym('a', 'b'), makeSym('b', 'a'), makeSym('a', 'b'), makeSym(Bot, 'b'),
	}
	for i := range want {
		if w[i] != want[i] {
			t.Errorf("symbol %d = %q, want %q", i, w[i], want[i])
		}
	}
}

func TestEquality(t *testing.T) {
	eq := Equality(ab)
	if !eq.ContainsStrings("abab", "abab") || !eq.ContainsStrings("", "") {
		t.Error("eq should hold on equal strings")
	}
	if eq.ContainsStrings("ab", "ba") || eq.ContainsStrings("a", "aa") {
		t.Error("eq should fail on different strings")
	}
}

func TestEqualLength(t *testing.T) {
	el := EqualLength(ab)
	if !el.ContainsStrings("ab", "ba") || !el.ContainsStrings("", "") {
		t.Error("el should hold on equal lengths")
	}
	if el.ContainsStrings("a", "aa") {
		t.Error("el should fail on different lengths")
	}
}

func TestPrefix(t *testing.T) {
	pre := Prefix(ab)
	yes := [][2]string{{"", ""}, {"", "a"}, {"ab", "ab"}, {"ab", "abba"}}
	no := [][2]string{{"b", "ab"}, {"ab", "a"}, {"ba", "bba"}}
	for _, c := range yes {
		if !pre.ContainsStrings(c[0], c[1]) {
			t.Errorf("prefix(%q,%q) should hold", c[0], c[1])
		}
	}
	for _, c := range no {
		if pre.ContainsStrings(c[0], c[1]) {
			t.Errorf("prefix(%q,%q) should fail", c[0], c[1])
		}
	}
}

func TestLengthComparisons(t *testing.T) {
	lt := ShorterLen(ab)
	le := ShorterEqLen(ab)
	if !lt.ContainsStrings("a", "bb") || lt.ContainsStrings("ab", "ba") || lt.ContainsStrings("ab", "a") {
		t.Error("lt wrong")
	}
	if !le.ContainsStrings("ab", "ba") || !le.ContainsStrings("a", "bb") || le.ContainsStrings("ab", "a") {
		t.Error("le wrong")
	}
}

func TestMorphism(t *testing.T) {
	h := Morphism(ab, map[rune]rune{'a': 'b', 'b': 'a'})
	if !h.ContainsStrings("aab", "bba") {
		t.Error("morphism should map aab to bba")
	}
	if h.ContainsStrings("aab", "bbb") || h.ContainsStrings("a", "ba") {
		t.Error("morphism wrong")
	}
}

func TestRhoIso(t *testing.T) {
	// Subproperty order: a ≺ b (and reflexivity NOT assumed).
	prec := func(x, y rune) bool { return x == 'a' && y == 'b' }
	rho := RhoIso([]rune{'a', 'b', 'c'}, prec)
	if !rho.ContainsStrings("ab", "ba") {
		t.Error("ρ-iso should relate positionwise ≺-comparable sequences")
	}
	if rho.ContainsStrings("ac", "bc") {
		t.Error("c is incomparable to c without reflexivity")
	}
	if rho.ContainsStrings("a", "ba") {
		t.Error("ρ-iso requires equal length")
	}
}

func TestMismatchOrGap(t *testing.T) {
	mg := MismatchOrGap(ab)
	if !mg.ContainsStrings("a", "b") || !mg.ContainsStrings("a", "") || !mg.ContainsStrings("", "b") {
		t.Error("mismatch/gap pairs should be accepted")
	}
	if mg.ContainsStrings("a", "a") || mg.ContainsStrings("", "") || mg.ContainsStrings("ab", "ba") {
		t.Error("mismatch relation is single-position only")
	}
}

func TestFromLanguage(t *testing.T) {
	r := FromLanguage("a+", regex.MustParse("a+"))
	if !r.ContainsStrings("aaa") || r.ContainsStrings("") || r.ContainsStrings("ab") {
		t.Error("FromLanguage wrong")
	}
}

func TestFromTupleRegex(t *testing.T) {
	// a^n b^n-style: equal length with first all-a and second all-b.
	node := regex.MustParseTuple("(<a,b>)*", 2)
	r := FromTupleRegex("ab-pairs", node, 2)
	if !r.ContainsStrings("aa", "bb") || r.ContainsStrings("a", "bb") || r.ContainsStrings("ab", "bb") {
		t.Error("tuple regex relation wrong")
	}
}

func TestIntersectUnionComplement(t *testing.T) {
	el := EqualLength(ab)
	eq := Equality(ab)
	inter := Intersect(el, eq) // = eq
	if !inter.ContainsStrings("ab", "ab") || inter.ContainsStrings("ab", "ba") {
		t.Error("eq∩el should be eq")
	}
	uni := Union(eq, ShorterLen(ab))
	if !uni.ContainsStrings("ab", "ab") || !uni.ContainsStrings("a", "ab") || uni.ContainsStrings("ab", "ba") {
		t.Error("eq∪lt wrong")
	}
	neq := Complement(eq, ab)
	cases := [][2]string{{"", ""}, {"a", "a"}, {"a", "b"}, {"ab", "ab"}, {"ab", "ba"}, {"a", "ab"}, {"ba", "b"}}
	for _, c := range cases {
		want := !eq.ContainsStrings(c[0], c[1])
		if got := neq.ContainsStrings(c[0], c[1]); got != want {
			t.Errorf("¬eq(%q,%q) = %v, want %v", c[0], c[1], got, want)
		}
	}
}

func TestPadValid(t *testing.T) {
	pv := PadValid(ab, 2)
	if !pv.Accepts(Convolve([]rune("ab"), []rune("a"))) {
		t.Error("proper convolution rejected")
	}
	if pv.Accepts([]TupleSym{makeSym(Bot, 'a'), makeSym('a', 'a')}) {
		t.Error("improper convolution accepted")
	}
	if pv.Accepts([]TupleSym{makeSym(Bot, Bot)}) {
		t.Error("all-⊥ symbol accepted")
	}
}

func randString(r *rand.Rand, maxLen int, sigma []rune) []rune {
	n := r.Intn(maxLen + 1)
	out := make([]rune, n)
	for i := range out {
		out[i] = sigma[r.Intn(len(sigma))]
	}
	return out
}

func TestPropertyEditDistanceMatchesDP(t *testing.T) {
	for _, k := range []int{0, 1, 2, 3} {
		rel := EditDistance(ab, k)
		r := rand.New(rand.NewSource(int64(k) + 42))
		f := func(uint8) bool {
			x := randString(r, 6, ab)
			y := randString(r, 6, ab)
			want := EditDistanceDP(x, y) <= k
			got := rel.Contains(x, y)
			if got != want {
				t.Logf("k=%d x=%q y=%q dp=%d got=%v", k, string(x), string(y), EditDistanceDP(x, y), got)
			}
			return got == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestEditDistanceExamples(t *testing.T) {
	d1 := EditDistance(ab, 1)
	if !d1.ContainsStrings("ab", "ab") || !d1.ContainsStrings("ab", "aab") ||
		!d1.ContainsStrings("ab", "b") || !d1.ContainsStrings("ab", "aa") {
		t.Error("distance-1 pairs rejected")
	}
	if d1.ContainsStrings("ab", "ba") { // needs 2 substitutions
		t.Error("ab→ba has distance 2")
	}
	if d1.ContainsStrings("", "ab") {
		t.Error("two insertions exceed k=1")
	}
}

func TestEditDistanceDP(t *testing.T) {
	cases := []struct {
		x, y string
		d    int
	}{
		{"", "", 0}, {"a", "", 1}, {"", "ab", 2},
		{"kitten", "sitting", 3}, {"ab", "ba", 2}, {"abc", "abc", 0},
	}
	for _, c := range cases {
		if got := EditDistanceDP([]rune(c.x), []rune(c.y)); got != c.d {
			t.Errorf("dp(%q,%q) = %d, want %d", c.x, c.y, got, c.d)
		}
	}
}

func newJoint(t *testing.T, m int, atoms ...Atom) *Joint {
	t.Helper()
	j, err := NewJoint(m, atoms)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJointStepMatchesTupleSemantics(t *testing.T) {
	// Query over 3 tapes: eq(π0,π1) ∧ el(π1,π2).
	j := newJoint(t, 3,
		Atom{Rel: Equality(ab), Pos: []int{0, 1}},
		Atom{Rel: EqualLength(ab), Pos: []int{1, 2}},
	)
	run := NewJointRunner(j)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		ss := [][]rune{randString(r, 4, ab), randString(r, 4, ab), randString(r, 4, ab)}
		want := j.AcceptsTuple(ss)
		// run the stepper over the convolution
		s, ok := run.StartID(), true
		for _, sym := range Convolve(ss...) {
			if s, ok = run.Step(s, run.AddSym([]rune(sym))); !ok {
				break
			}
		}
		got := ok && run.Accepting(s)
		if got != want {
			t.Fatalf("joint runner disagrees on %q/%q/%q: got %v want %v",
				string(ss[0]), string(ss[1]), string(ss[2]), got, want)
		}
	}
}

func TestJointRejectsImproper(t *testing.T) {
	r := NewJointRunner(newJoint(t, 2, Atom{Rel: Prefix(ab), Pos: []int{0, 1}}))
	s, ok := r.Step(r.StartID(), r.AddSym([]rune{Bot, 'a'}))
	if !ok {
		t.Fatal("padding on tape 0 should be fine")
	}
	if _, ok := r.Step(s, r.AddSym([]rune{'a', 'a'})); ok {
		t.Error("tape 0 resumed after ⊥; must be rejected")
	}
	if _, ok := r.Step(r.StartID(), r.AddSym([]rune{Bot, Bot})); ok {
		t.Error("all-⊥ symbol must be rejected")
	}
}

// TestAddSymInternsOnce: registering a tuple the runner already holds
// returns its id and registers nothing, and ids are dense in
// first-registration order, whatever repeats come between.
func TestAddSymInternsOnce(t *testing.T) {
	r := NewJointRunner(newJoint(t, 2, Atom{Rel: Prefix(ab), Pos: []int{0, 1}}))
	syms := [][]rune{{'a', 'b'}, {Bot, 'a'}, {'a', 'b'}, {'b', 'b'}, {Bot, 'a'}, {'b', Bot}, {'b', 'b'}}
	wantIDs := []int{0, 1, 0, 2, 1, 3, 2}
	for i, sym := range syms {
		buf := slices.Clone(sym)
		before := r.NumSyms()
		id := r.AddSym(buf)
		if id != wantIDs[i] {
			t.Fatalf("AddSym(%q) = %d, want %d", string(sym), id, wantIDs[i])
		}
		if r.NumSyms() != max(before, id+1) {
			t.Fatalf("AddSym(%q) = %d: NumSyms %d → %d", string(sym), id, before, r.NumSyms())
		}
		buf[0] = 'x' // the runner keeps a copy
		if got := r.SymRunes(id); !slices.Equal(got, sym) {
			t.Fatalf("SymRunes(%d) = %q, want %q", id, string(got), string(sym))
		}
	}
	// A repeat steps exactly like its first registration.
	s1, ok1 := r.Step(r.StartID(), r.AddSym([]rune{Bot, 'a'}))
	s2, ok2 := r.Step(r.StartID(), 1)
	if s1 != s2 || ok1 != ok2 || r.NumSyms() != 4 {
		t.Fatalf("repeat of symbol 1 stepped to (%d, %v), the id to (%d, %v); %d symbols", s1, ok1, s2, ok2, r.NumSyms())
	}
}

func TestJointValidation(t *testing.T) {
	if _, err := NewJoint(2, []Atom{{Rel: Equality(ab), Pos: []int{0}}}); err == nil {
		t.Error("arity mismatch should error")
	}
	if _, err := NewJoint(2, []Atom{{Rel: Equality(ab), Pos: []int{0, 5}}}); err == nil {
		t.Error("out-of-range tape should error")
	}
}

func TestTupleAlphabet(t *testing.T) {
	al := TupleAlphabet(ab, 2)
	// (2+1)^2 - 1 = 8 symbols
	if len(al) != 8 {
		t.Errorf("TupleAlphabet size = %d, want 8", len(al))
	}
	for _, s := range al {
		if AllBot(s) {
			t.Error("all-⊥ symbol should be excluded")
		}
	}
}
