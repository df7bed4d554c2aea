package relations

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestRunnerViewsMatchSequential drives many concurrent RunnerViews
// over one shared master and checks every answer against a private
// sequential runner replaying the same walks — the -race test of the
// group/view cache-coherence contract.
func TestRunnerViewsMatchSequential(t *testing.T) {
	build := func() *JointRunner {
		j := newJoint(t, 2,
			Atom{Rel: lang(t, "a+"), Pos: []int{0}},
			Atom{Rel: lang(t, "(a|b)*"), Pos: []int{1}},
			Atom{Rel: EqualLength(ab), Pos: []int{0, 1}},
		)
		return NewJointRunner(j)
	}
	shared := build()
	// Register the symbol universe up front, single-threaded, so every
	// walker addresses symbols by the same dense ids.
	universe := [][]rune{
		{'a', 'a'}, {'a', 'b'}, {'b', 'a'}, {'b', 'b'},
		{'a', Bot}, {Bot, 'a'}, {'b', Bot}, {Bot, 'b'},
	}
	syms := make([]int, len(universe))
	for i, rs := range universe {
		syms[i] = shared.AddSym(rs)
	}
	group := NewRunnerGroup(shared)

	const walkers = 8
	errs := make([]error, walkers)
	var wg sync.WaitGroup
	for w := 0; w < walkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := group.View()
			// The reference runner is rebuilt fresh per walker; dense
			// state ids match the master's only for states this walker
			// itself discovers in the same order, so the walk compares
			// behavior (ok/accept/live/runes), not raw master ids.
			ref := build()
			refSyms := make([]int, len(universe))
			for i, rs := range universe {
				refSyms[i] = ref.AddSym(rs)
			}
			r := rand.New(rand.NewSource(int64(1000 + w)))
			for walk := 0; walk < 200; walk++ {
				// Walk from the start; on each step the view and the
				// reference must agree on steppability, acceptance, and
				// live sets. State ids may differ (parallel discovery
				// order), so we track the pair.
				vs, rs := shared.StartID(), ref.StartID()
				for depth := 0; depth < 12; depth++ {
					si := r.Intn(len(universe))
					vNext, vOK := view.Step(vs, syms[si])
					rNext, rOK := ref.Step(rs, refSyms[si])
					if vOK != rOK {
						errs[w] = fmt.Errorf("walker %d: step %v ok=%v, reference %v", w, universe[si], vOK, rOK)
						return
					}
					if !vOK {
						break
					}
					if va, ra := view.Accepting(vNext), ref.Accepting(rNext); va != ra {
						errs[w] = fmt.Errorf("walker %d: accepting=%v, reference %v", w, va, ra)
						return
					}
					vl, rl := view.Live(vNext), ref.Live(rNext)
					if len(vl) != len(rl) {
						errs[w] = fmt.Errorf("walker %d: live has %d tapes, reference %d", w, len(vl), len(rl))
						return
					}
					for tape := range vl {
						if vl[tape].All != rl[tape].All || vl[tape].Bot != rl[tape].Bot ||
							string(vl[tape].Labels) != string(rl[tape].Labels) {
							errs[w] = fmt.Errorf("walker %d tape %d: live %+v, reference %+v", w, tape, vl[tape], rl[tape])
							return
						}
					}
					if string(view.SymRunes(syms[si])) != string(universe[si]) {
						errs[w] = fmt.Errorf("walker %d: SymRunes(%d) = %q, want %q",
							w, syms[si], string(view.SymRunes(syms[si])), string(universe[si]))
						return
					}
					vs, rs = vNext, rNext
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunnerGroupDoSerializesSymRegistration registers symbols
// concurrently through Do — the master is the single symbol-id
// authority across workers, its AddSym interning under the group lock —
// and checks every recorded id resolves to the runes its registrar saw,
// with no duplicate registrations despite the contention.
func TestRunnerGroupDoSerializesSymRegistration(t *testing.T) {
	j := newJoint(t, 1, Atom{Rel: lang(t, "(a|b|c|d)*"), Pos: []int{0}})
	master := NewJointRunner(j)
	group := NewRunnerGroup(master)
	sigma := []rune{'a', 'b', 'c', 'd'}

	const workers = 8
	type reg struct {
		id int
		r  rune
	}
	got := make([][]reg, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := group.View()
			r := rand.New(rand.NewSource(int64(2000 + w)))
			for i := 0; i < 100; i++ {
				c := sigma[r.Intn(len(sigma))]
				var id int
				view.Do(func(m *JointRunner) { id = m.AddSym([]rune{c}) })
				got[w] = append(got[w], reg{id, c})
				if rs := view.SymRunes(id); len(rs) != 1 || rs[0] != c {
					got[w] = append(got[w], reg{-1, c})
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, regs := range got {
		for _, rg := range regs {
			if rg.id < 0 {
				t.Fatalf("worker %d: SymRunes disagreed with registration of %q", w, rg.r)
			}
			if rs := master.SymRunes(rg.id); len(rs) != 1 || rs[0] != rg.r {
				t.Fatalf("worker %d: master SymRunes(%d) = %q, registered %q", w, rg.id, string(rs), rg.r)
			}
		}
	}
	// Interning held under contention: four distinct runes, four ids.
	if n := master.NumSyms(); n > len(sigma) {
		t.Fatalf("master registered %d symbol ids for a %d-rune universe", n, len(sigma))
	}
}
