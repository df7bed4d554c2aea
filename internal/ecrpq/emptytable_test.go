package ecrpq_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/workload"
)

// emptyTableTexts are queries with a component that accepts nothing on
// any graph: p1 reads only a, p2 only b, and eq wants them equal. Its
// minimal table has no live state ("joint states 1 → 0"). The second adds
// a component that does accept.
var emptyTableTexts = []string{
	"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), eq(p1,p2)",
	"Ans(x,y) <- (x,p1,z), (z,p2,y), (z,p3,w), a+(p1), b+(p2), eq(p1,p2), a(p3)",
}

// TestEmptyTableAnswersAtOnce evaluates the empty-table texts with every
// start variable free over the 10⁴-label alphabet, where a run over the
// start space pays for 2 048² assignments. A pruning evaluation reads the
// empty table and answers before the start-domain pass and the start
// enumeration: it charges no product state (a budget of one passes), and
// it starts no product-BFS run at all. Every run, the start-domain
// pass's included, passes the BFSStep fault site at its first state, so
// a hook that fails nothing counts the runs: the first evaluation of a
// compiled program, which builds the table, and a stream must count
// none. The count is exact on any host, busy or not.
func TestEmptyTableAnswersAtOnce(t *testing.T) {
	env := ecrpq.Env{Sigma: workload.BigAlphabetSigma(10000)}
	s := workload.BigAlphabetGraph().Snapshot()
	ctx := context.Background()
	faultinject.Set(func(faultinject.Point, uint64) error { return nil })
	defer faultinject.Clear()
	for _, text := range emptyTableTexts {
		prog, err := ecrpq.CompileProgram(ecrpq.MustParse(text, env), false)
		if err != nil {
			t.Fatal(err)
		}
		runs := faultinject.Hits(faultinject.BFSStep)
		res, err := prog.Eval(ctx, s, ecrpq.Options{MaxProductStates: 1})
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if len(res.Answers) != 0 {
			t.Fatalf("%s: %d answers, want none", text, len(res.Answers))
		}
		for _, err := range prog.Stream(ctx, s, ecrpq.StreamOptions{Options: ecrpq.Options{MaxProductStates: 1}}) {
			t.Fatalf("%s: the stream yielded (err %v)", text, err)
		}
		if n := faultinject.Hits(faultinject.BFSStep) - runs; n != 0 {
			t.Errorf("%s: the first evaluation and a stream started %d product-BFS runs, want none", text, n)
		}
	}
}

// TestEmptyTableMatchesNoPrune checks the empty-table texts against
// NoPrune, which runs every start assignment, on a two-label graph small
// enough for it: the fingerprints agree on the first evaluation, and
// again after an edge is added, where default mode's Advance revalidates
// the empty answer and NoPrune evaluates afresh.
func TestEmptyTableMatchesNoPrune(t *testing.T) {
	ab := []rune{'a', 'b'}
	env := ecrpq.Env{Sigma: ab}
	ctx := context.Background()
	for _, text := range emptyTableTexts {
		db := workload.Random(rand.New(rand.NewSource(41)), 24, 3.0, ab)
		prog, err := ecrpq.CompileProgram(ecrpq.MustParse(text, env), false)
		if err != nil {
			t.Fatal(err)
		}
		eval := func(s *graph.Snapshot, noPrune bool) *ecrpq.Result {
			res, err := prog.EvalSnapshotMemo(ctx, s, ecrpq.Options{NoPrune: noPrune, BFSWorkers: 1})
			if err != nil {
				t.Fatalf("%s (NoPrune %t): %v", text, noPrune, err)
			}
			return res
		}
		s1 := db.Snapshot()
		def, ref := eval(s1, false), eval(s1, true)
		if def.Fingerprint() != ref.Fingerprint() || len(def.Answers) != 0 {
			t.Fatalf("%s: %d answers (%#x) by default, %d (%#x) under NoPrune", text,
				len(def.Answers), def.Fingerprint(), len(ref.Answers), ref.Fingerprint())
		}
		db.AddEdge(0, 'a', 1)
		db.AddEdge(1, 'b', 2)
		s2 := db.Snapshot()
		adv, kind, err := prog.Advance(ctx, def, s2, ecrpq.Options{BFSWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if kind != ecrpq.AdvanceRevalidated {
			t.Errorf("%s: Advance took %v, want revalidated", text, kind)
		}
		if want := eval(s2, true); adv.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: after AddEdge, Advance fingerprints %#x, NoPrune %#x", text, adv.Fingerprint(), want.Fingerprint())
		}
	}
}
