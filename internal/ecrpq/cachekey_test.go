package ecrpq_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/graph"
)

// fmtCacheKey is the fmt rendering CacheKey had before it appended into
// one buffer; the key text must not change.
func fmtCacheKey(o ecrpq.Options) string {
	vars := make([]string, 0, len(o.Bind))
	for v := range o.Bind {
		vars = append(vars, string(v))
	}
	sort.Strings(vars)
	var b strings.Builder
	b.WriteString("bind:")
	for _, v := range vars {
		fmt.Fprintf(&b, "%s=%d,", v, o.Bind[ecrpq.NodeVar(v)])
	}
	fmt.Fprintf(&b, ";max=%d;noprune=%t", o.MaxProductStates, o.NoPrune)
	return b.String()
}

// TestCacheKeyFormat checks CacheKey against the fmt rendering over
// random options: zero to twelve binds (past the sort's stack buffer),
// short and long variable names, negative and large budgets. A key of
// a few short binds costs one allocation, the string itself.
func TestCacheKeyFormat(t *testing.T) {
	if got, want := (ecrpq.Options{Bind: map[ecrpq.NodeVar]graph.Node{"x": 1}}).CacheKey(), "bind:x=1,;max=0;noprune=false"; got != want {
		t.Fatalf("CacheKey = %q, want %q", got, want)
	}
	rng := rand.New(rand.NewSource(1))
	names := []ecrpq.NodeVar{"x", "y", "z", "x1", "x10", "x2", "Y", "_", "é", "long_variable_name_that_passes_the_key_buffer_on_its_own_0123456789"}
	for i := 0; i < 5000; i++ {
		o := ecrpq.Options{MaxProductStates: rng.Intn(1 << 20), NoPrune: rng.Intn(2) == 0, BFSWorkers: rng.Intn(4)}
		switch rng.Intn(3) {
		case 0:
			o.MaxProductStates = -o.MaxProductStates
		case 1:
			o.MaxProductStates = 0
		}
		if k := rng.Intn(13); k > 0 {
			o.Bind = map[ecrpq.NodeVar]graph.Node{}
			for j := 0; j < k; j++ {
				v := names[rng.Intn(len(names))]
				if rng.Intn(3) == 0 {
					v += ecrpq.NodeVar(fmt.Sprint(j))
				}
				o.Bind[v] = graph.Node(rng.Intn(1 << uint(rng.Intn(40))))
			}
		}
		if got, want := o.CacheKey(), fmtCacheKey(o); got != want {
			t.Fatalf("CacheKey = %q, fmt renders %q", got, want)
		}
	}
	if raceEnabled {
		return
	}
	o := ecrpq.Options{Bind: map[ecrpq.NodeVar]graph.Node{"x": 17, "y": 4096, "z": 3}, MaxProductStates: 100000}
	for _, bind := range []map[ecrpq.NodeVar]graph.Node{nil, {"x": 17}, o.Bind} {
		o.Bind = bind
		if n := testing.AllocsPerRun(100, func() { _ = o.CacheKey() }); n > 1 {
			t.Errorf("CacheKey with %d binds allocates %.0f times, want 1", len(bind), n)
		}
	}
}
