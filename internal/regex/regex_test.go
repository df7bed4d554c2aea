package regex

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func match(t *testing.T, src, w string) bool {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return Match(n, []rune(w))
}

func TestParseAndMatchBasics(t *testing.T) {
	cases := []struct {
		re  string
		yes []string
		no  []string
	}{
		{"a", []string{"a"}, []string{"", "b", "aa"}},
		{"ab", []string{"ab"}, []string{"a", "b", "ba", "abb"}},
		{"a|b", []string{"a", "b"}, []string{"", "ab", "c"}},
		{"a*", []string{"", "a", "aaaa"}, []string{"b", "ab"}},
		{"a+", []string{"a", "aaa"}, []string{"", "b"}},
		{"a?b", []string{"b", "ab"}, []string{"", "a", "aab"}},
		{"(ab)*", []string{"", "ab", "abab"}, []string{"a", "aba"}},
		{"(a|b)*c", []string{"c", "ac", "babc"}, []string{"", "ab", "ca"}},
		{"[abc]*", []string{"", "abc", "cba"}, []string{"d", "abd"}},
		{"()", []string{""}, []string{"a"}},
		{"[]", nil, []string{"", "a"}},
		{"a()b", []string{"ab"}, []string{"a()b"}},
		{`\*\+`, []string{"*+"}, []string{"", "*"}},
	}
	for _, c := range cases {
		for _, w := range c.yes {
			if !match(t, c.re, w) {
				t.Errorf("Match(%q, %q) = false, want true", c.re, w)
			}
		}
		for _, w := range c.no {
			if match(t, c.re, w) {
				t.Errorf("Match(%q, %q) = true, want false", c.re, w)
			}
		}
	}
}

func TestParseBot(t *testing.T) {
	n := MustParse("a_*")
	if !Match(n, []rune{'a', Bot, Bot}) {
		t.Error("a_* should match a⊥⊥")
	}
	if Match(n, []rune("a_")) {
		t.Error("a_* must treat _ as ⊥, not as literal underscore")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"(", ")", "(a", "a)", "*", "a**b)", "[ab", `a\`, "a|*"}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	exprs := []string{"a", "ab", "a|b", "a*", "(ab)*", "(a|b)*c", "[abc]a", "a+b?"}
	for _, src := range exprs {
		n := MustParse(src)
		re := String(n)
		m, err := Parse(re)
		if err != nil {
			t.Fatalf("reparse of String(%q) = %q failed: %v", src, re, err)
		}
		// Compare on sample words.
		for _, w := range []string{"", "a", "b", "c", "ab", "ba", "abc", "aab", "abab", "cc"} {
			if Match(n, []rune(w)) != Match(m, []rune(w)) {
				t.Errorf("round trip of %q changed language on %q (printed %q)", src, w, re)
			}
		}
	}
}

func TestParseTuple(t *testing.T) {
	// Prefix relation over {a,b}: (<a,a>|<b,b>)*(<_,a>|<_,b>)*
	n, err := ParseTuple("(<a,a>|<b,b>)*(<_,a>|<_,b>)*", 2)
	if err != nil {
		t.Fatal(err)
	}
	pair := func(x, y rune) string { return string([]rune{x, y}) }
	yes := [][]string{
		{},
		{pair('a', 'a')},
		{pair('a', 'a'), pair(Bot, 'b')},
		{pair(Bot, 'a'), pair(Bot, 'b')},
	}
	no := [][]string{
		{pair('a', 'b')},
		{pair(Bot, 'a'), pair('a', 'a')},
	}
	for _, w := range yes {
		if !Match(n, w) {
			t.Errorf("prefix relation should accept %q", w)
		}
	}
	for _, w := range no {
		if Match(n, w) {
			t.Errorf("prefix relation should reject %q", w)
		}
	}
}

func TestParseTupleErrors(t *testing.T) {
	bad := []struct {
		src   string
		arity int
	}{
		{"<a>", 2},
		{"<a,b,c>", 2},
		{"<a,b", 2},
		{"a", 1},
		{"<a,b>", 0},
		{"<a,b>)", 2},
	}
	for _, c := range bad {
		if _, err := ParseTuple(c.src, c.arity); err == nil {
			t.Errorf("ParseTuple(%q, %d) succeeded, want error", c.src, c.arity)
		}
	}
}

// randomExpr builds a random expression over {a,b} along with a generator
// bias so that property tests exercise deep structure.
func randomExpr(r *rand.Rand, depth int) *Node[rune] {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return Lit('a')
		case 1:
			return Lit('b')
		case 2:
			return Eps[rune]()
		default:
			return Lit('c')
		}
	}
	switch r.Intn(3) {
	case 0:
		return Seq(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 1:
		return Or(randomExpr(r, depth-1), randomExpr(r, depth-1))
	default:
		return Kleene(randomExpr(r, depth-1))
	}
}

// naiveMatch is an exponential backtracking matcher used as an independent
// oracle against the derivative matcher.
func naiveMatch(n *Node[rune], w []rune) bool {
	switch n.Op {
	case OpEmpty:
		return false
	case OpEps:
		return len(w) == 0
	case OpSym:
		return len(w) == 1 && w[0] == n.Sym
	case OpAlt:
		return naiveMatch(n.Left, w) || naiveMatch(n.Right, w)
	case OpConcat:
		for i := 0; i <= len(w); i++ {
			if naiveMatch(n.Left, w[:i]) && naiveMatch(n.Right, w[i:]) {
				return true
			}
		}
		return false
	default: // OpStar
		if len(w) == 0 {
			return true
		}
		for i := 1; i <= len(w); i++ {
			if naiveMatch(n.Left, w[:i]) && naiveMatch(n, w[i:]) {
				return true
			}
		}
		return false
	}
}

func TestPropertyDerivAgreesWithNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(wordSeed uint16) bool {
		n := randomExpr(r, 4)
		w := make([]rune, 0, 6)
		s := wordSeed
		for i := 0; i < 6 && s != 0; i++ {
			w = append(w, rune('a'+s%3))
			s /= 3
		}
		return Match(n, w) == naiveMatch(n, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPow(t *testing.T) {
	n := Pow(MustParse("ab"), 3)
	if !Match(n, []rune("ababab")) || Match(n, []rune("abab")) {
		t.Error("Pow(ab,3) wrong")
	}
	if !Match(Pow(MustParse("a"), 0), nil) {
		t.Error("Pow(a,0) should be ε")
	}
}

func TestAlphabet(t *testing.T) {
	n := MustParse("(a|b)*c(a)")
	got := Alphabet(n)
	want := map[rune]bool{'a': true, 'b': true, 'c': true}
	if len(got) != len(want) {
		t.Fatalf("Alphabet = %v, want 3 symbols", got)
	}
	for _, r := range got {
		if !want[r] {
			t.Errorf("unexpected symbol %q", r)
		}
	}
}

func TestNullable(t *testing.T) {
	cases := map[string]bool{
		"a*":     true,
		"a":      false,
		"()":     true,
		"[]":     false,
		"a|b*":   true,
		"ab*":    false,
		"(ab)?c": false,
		"a?b?":   true,
	}
	for src, want := range cases {
		if got := MustParse(src).Nullable(); got != want {
			t.Errorf("Nullable(%q) = %v, want %v", src, got, want)
		}
	}
}

func TestStringEscaping(t *testing.T) {
	n := Lit('*')
	s := String(n)
	if !strings.Contains(s, `\*`) {
		t.Errorf("String(Lit('*')) = %q, want escape", s)
	}
	m, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if !Match(m, []rune("*")) {
		t.Error("escaped star should match *")
	}
}
