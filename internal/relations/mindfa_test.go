package relations

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/regex"
)

// randomClassComponent builds a joint over 1–3 tapes from random unary
// languages (with and without character classes) and random binary
// relations, class-compiled as the evaluator compiles it. It returns the
// compiled joint, its partition and the uncompiled joint, the reference
// AcceptsTuple reads labels through.
func randomClassComponent(t *testing.T, r *rand.Rand) (*Joint, *regex.Partition, *Joint, string) {
	t.Helper()
	sigma := []rune("abc")
	langs := []string{"a+", "(a|b)*", "[a-b]+", "[^a]*", "c?a(b|c)*", "(ab)*", ".b*", "[b-c]*a",
		"(a|b)*a", "a|b|c", "((a|b)(a|b))*", "[abc]*", "(a|b|c)*c(a|b|c)?"}
	binary := []struct {
		name string
		rel  func([]rune) *Relation
	}{{"el", EqualLength}, {"prefix", Prefix}, {"eq", Equality}, {"lt", ShorterLen}}
	m := 1 + r.Intn(3)
	var atoms []Atom
	desc := fmt.Sprintf("%d tapes:", m)
	for i := 0; i < m; i++ {
		if r.Intn(4) > 0 {
			src := langs[r.Intn(len(langs))]
			atoms = append(atoms, Atom{Rel: lang(t, src), Pos: []int{i}})
			desc += fmt.Sprintf(" %s(%d)", src, i)
		}
	}
	for i := 0; i+1 < m; i++ {
		if r.Intn(3) > 0 {
			b := binary[r.Intn(len(binary))]
			p := []int{i, i + 1 + r.Intn(m-i-1)}
			if r.Intn(2) == 0 {
				p[0], p[1] = p[1], p[0]
			}
			atoms = append(atoms, Atom{Rel: b.rel(sigma), Pos: p})
			desc += fmt.Sprintf(" %s(%d,%d)", b.name, p[0], p[1])
		}
	}
	part, compiled, err := CompileClassAtoms(atoms)
	if err != nil {
		t.Fatal(err)
	}
	return newJoint(t, m, compiled...), part, &Joint{M: m, Atoms: atoms}, desc
}

// randomClassWord returns a word of class tuples: a convolution of m
// class strings of length at most maxLen (⊥-padded), or with improper
// set a word with ⊥ anywhere.
func randomClassWord(r *rand.Rand, m, k, maxLen int, improper bool) [][]rune {
	if improper {
		word := make([][]rune, r.Intn(maxLen+1))
		for p := range word {
			word[p] = make([]rune, m)
			for i := range word[p] {
				word[p][i] = rune(r.Intn(k + 2))
			}
		}
		return word
	}
	strs := make([][]rune, m)
	n := 0
	for i := range strs {
		strs[i] = make([]rune, r.Intn(maxLen+1))
		for p := range strs[i] {
			strs[i][p] = rune(1 + r.Intn(k+1))
		}
		n = max(n, len(strs[i]))
	}
	word := make([][]rune, n)
	for p := range word {
		word[p] = make([]rune, m)
		for i, s := range strs {
			if p < len(s) {
				word[p][i] = s[p]
			}
		}
	}
	return word
}

func tableAccepts(d *ClassDFA, word [][]rune) bool {
	q := d.StartID()
	for _, sym := range word {
		idx := 0
		for i, c := range sym {
			idx += int(d.ClassMap[i][c]) * d.Pow[i]
		}
		next, ok := d.Step(q, idx)
		if !ok {
			return false
		}
		q = next
	}
	return d.Accepting(q)
}

func runnerAccepts(r *JointRunner, ids map[string]int, word [][]rune) bool {
	q := r.StartID()
	for _, sym := range word {
		id, ok := ids[string(sym)]
		if !ok {
			id = r.AddSym(sym)
			ids[string(sym)] = id
		}
		next, live := r.Step(q, id)
		if !live {
			return false
		}
		q = next
	}
	return r.Accepting(q)
}

// tableClasses partitions the table's states by naive Moore refinement
// over full rows and returns the number of classes.
func tableClasses(d *ClassDFA) int {
	n := d.NumStates()
	class := make([]int, n)
	for q := range class {
		if d.Accepting(q) {
			class[q] = 1
		}
	}
	for count := -1; ; {
		sigs := map[string]int{}
		next := make([]int, n)
		for q := range next {
			sig := []int{class[q]}
			for _, v := range d.Row(q) {
				if v > 0 {
					sig = append(sig, class[v-1])
				} else {
					sig = append(sig, -1)
				}
			}
			key := fmt.Sprint(sig)
			if _, ok := sigs[key]; !ok {
				sigs[key] = len(sigs)
			}
			next[q] = sigs[key]
		}
		class = next
		if len(sigs) == count {
			return count
		}
		count = len(sigs)
	}
}

// TestClassDFAMatchesRunner checks the minimal table against the lazy
// runner and the tuple semantics on random components of 1–3 tapes:
// every class word up to length 6 (⊥-padded or not a convolution at all)
// is accepted by the table iff by the runner, and a convolution iff its
// strings satisfy every atom. The minimal table has no two equivalent
// states, its live sets are exactly its rows' live columns, and the
// unmerged table accepts the same words.
func TestClassDFAMatchesRunner(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	for trial := 0; trial < 80; trial++ {
		j, part, orig, desc := randomClassComponent(t, r)
		k := part.NumClasses()
		merged := BuildClassDFA(j, k, 1<<16, true)
		plain := BuildClassDFA(j, k, 1<<16, false)
		if merged == nil || plain == nil {
			t.Fatalf("%s: no table within the bound", desc)
		}
		if merged.NumStates() > plain.NumStates() || plain.NumStates() > max(merged.Explored, 1) {
			t.Fatalf("%s: %d explored, %d unmerged, %d merged states", desc, merged.Explored, plain.NumStates(), merged.NumStates())
		}
		if got := tableClasses(merged); got != merged.NumStates() {
			t.Fatalf("%s: the merged table's %d states fall into %d Nerode classes", desc, merged.NumStates(), got)
		}
		for _, d := range []*ClassDFA{merged, plain} {
			for q := 0; q < d.NumStates(); q++ {
				for i, ls := range d.Live(q) {
					want := LiveSet{}
					for idx, v := range d.Row(q) {
						c := rune(idx / d.Pow[i] % (d.Classes[i] + 2))
						switch {
						case v <= 0:
						case c == Bot:
							want.Bot = true
						case !slices.Contains(want.Labels, c):
							want.Labels = append(want.Labels, c)
						}
					}
					slices.Sort(want.Labels)
					if ls.All || ls.Bot != want.Bot || !slices.Equal(ls.Labels, want.Labels) {
						t.Fatalf("%s: state %d tape %d live set %+v, its row's live columns %+v", desc, q, i, ls, want)
					}
				}
			}
		}
		runner, ids := NewJointRunner(j), map[string]int{}
		for w := 0; w < 600; w++ {
			improper := w%5 == 0
			word := randomClassWord(r, j.M, k, 6, improper)
			lazy := runnerAccepts(runner, ids, word)
			if got := tableAccepts(merged, word); got != lazy {
				t.Fatalf("%s: word %v: table %v, runner %v", desc, word, got, lazy)
			}
			if got := tableAccepts(plain, word); got != lazy {
				t.Fatalf("%s: word %v: unmerged table %v, runner %v", desc, word, got, lazy)
			}
			if improper {
				continue
			}
			strs := make([][]rune, j.M)
			dead := false
			for _, sym := range word {
				for i, c := range sym {
					if c != Bot {
						strs[i] = append(strs[i], part.Label(c))
						dead = dead || c == part.DeadClass()
					}
				}
			}
			if dead && part.Wild() {
				// The dead class's representative label is the wild bucket's:
				// no label maps to the dead class of a wild partition.
				continue
			}
			if want := orig.AcceptsTuple(strs); want != lazy {
				t.Fatalf("%s: word %v (%q): runner %v, tuple semantics %v", desc, word, strs, lazy, want)
			}
		}
	}
}

// TestClassDFAShapes pins the table of two shapes the benchmark runs:
// [σ]* over 32 labels (33 explored states, one minimal, 32 classes that
// all behave alike) and the aⁿbⁿ joint (one class live per tape).
func TestClassDFAShapes(t *testing.T) {
	sigma := []rune("abcdefghijklmnopqrstuvwxyzABCDEF")
	node, err := regex.Parse("(" + strings.Join(strings.Split(string(sigma), ""), "|") + ")*")
	if err != nil {
		t.Fatal(err)
	}
	cls, err := regex.Parse("[" + string(sigma) + "]*")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*regex.Node[rune]{node, cls} {
		part, atoms, err := CompileClassAtoms([]Atom{{Rel: FromLanguage("perm", n), Pos: []int{0}}})
		if err != nil {
			t.Fatal(err)
		}
		d := BuildClassDFA(newJoint(t, 1, atoms...), part.NumClasses(), 1<<16, true)
		if d == nil || d.NumStates() != 1 || d.Minimal != 1 || !d.Accepting(0) || d.Classes[0] != 1 || d.FineClasses != 32 {
			t.Fatalf("[σ]*: table %+v", d)
		}
		if ls := d.Live(0)[0]; ls.Bot || !slices.Equal(ls.Labels, []rune{1}) {
			t.Fatalf("[σ]*: live %+v", ls)
		}
	}

	part, atoms, err := CompileClassAtoms([]Atom{
		{Rel: lang(t, "a+"), Pos: []int{0}},
		{Rel: lang(t, "b+"), Pos: []int{1}},
		{Rel: EqualLength(ab), Pos: []int{0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := BuildClassDFA(newJoint(t, 2, atoms...), part.NumClasses(), 1<<16, true)
	if d == nil || d.Minimal != 2 || !slices.Equal(d.Classes, []int{1, 1}) {
		t.Fatalf("aⁿbⁿ: table %+v", d)
	}
	if d.Accepting(0) || !d.Accepting(1) {
		t.Fatal("aⁿbⁿ: the start state accepts or the loop state does not")
	}
	if BuildClassDFA(newJoint(t, 2, atoms...), part.NumClasses(), 0, true) != nil {
		t.Fatal("a zero bound built a table")
	}
}
