package relations

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestIntegerStepMatchesNFA checks the runner's integer subset step
// against NFA.Step on random class-compiled components (and on atoms
// past 64 NFA states, whose bitsets span several words). Every symbol
// over ⊥, the partition's classes, its dead class and a class no atom
// reads is registered, and the runner is explored from its start state
// by them; half of them are registered and explored by before the rest,
// so columns are also built after steps have run. Then every subset it
// interned steps by every registered symbol's projection. A projection
// must be all-⊥ exactly when its column says so, dead exactly when no
// NFA state reads it, and otherwise step to NFA.Step's set, or be
// rejected exactly when that set is empty or has no co-reachable member.
func TestIntegerStepMatchesNFA(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		j, part, orig, desc := randomClassComponent(t, r)
		if trial%4 == 0 {
			// A wide atom: more than 64 NFA states.
			src := strings.Repeat("(a|b|c)", 12) + "[ab]*"
			wide, atoms, err := CompileClassAtoms(append(slices.Clone(orig.Atoms), Atom{Rel: lang(t, src), Pos: []int{0}}))
			if err != nil {
				t.Fatal(err)
			}
			j, part, desc = newJoint(t, j.M, atoms...), wide, desc+" "+src+"(0)"
		}
		checkIntegerStep(t, j, part.NumClasses(), desc)
	}
}

func checkIntegerStep(t *testing.T, j *Joint, k int, desc string) {
	t.Helper()
	run := NewJointRunner(j)
	var syms [][]rune
	tup := make([]rune, j.M)
	var gen func(i int)
	gen = func(i int) {
		if i == j.M {
			syms = append(syms, slices.Clone(tup))
			return
		}
		for c := rune(0); c <= rune(k+2); c++ {
			tup[i] = c
			gen(i + 1)
		}
	}
	gen(0)
	// Register half the symbols and explore by them before registering
	// the rest, so columns are also built after steps have run.
	for _, reg := range [][][]rune{syms[:len(syms)/2], syms[len(syms)/2:]} {
		for _, sym := range reg {
			run.AddSym(sym)
		}
		for q := 0; q < run.NumStates(); q++ {
			for id := 0; id < run.NumSyms(); id++ {
				run.Step(q, id)
			}
		}
	}
	for ai, at := range j.Atoms {
		a, st := at.Rel.A, &run.steps[ai]
		for id, sym := range syms {
			proj := make([]rune, len(at.Pos))
			allBot := true
			for c, p := range at.Pos {
				proj[c] = sym[p]
				if sym[p] != Bot {
					allBot = false
					if at.part != nil {
						proj[c] = at.part.Label(sym[p])
					}
				}
			}
			col := run.symInfo[id].cols[ai]
			if allBot != (col == colAllBot) {
				t.Fatalf("%s: atom %d symbol %v: column %d, all-⊥ %v", desc, ai, sym, col, allBot)
			}
			if allBot {
				continue
			}
			read := false
			for q := 0; q < a.NumStates(); q++ {
				read = read || len(a.Successors(q, TupleSym(proj))) > 0
			}
			if read != (col != colDead) {
				t.Fatalf("%s: atom %d symbol %v: column %d, read by some state %v", desc, ai, sym, col, read)
			}
			if !read {
				continue
			}
			for set := 0; set < run.subsets[ai].Len(); set++ {
				from := run.subsets[ai].At(set)
				want := a.Step(from, TupleSym(proj))
				got, ok := st.step(from, col)
				if live := slices.ContainsFunc(want, func(q int) bool { return run.live[ai].coReach[q] }); ok != live {
					t.Fatalf("%s: atom %d subset %v symbol %v: step ok %v, NFA.Step %v", desc, ai, from, sym, ok, want)
				}
				if ok && !slices.Equal(got, want) {
					t.Fatalf("%s: atom %d subset %v symbol %v: step %v, NFA.Step %v", desc, ai, from, sym, got, want)
				}
			}
		}
	}
}
