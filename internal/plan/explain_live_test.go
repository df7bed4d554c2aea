package plan

import (
	"strings"
	"testing"

	"repro/internal/ecrpq"
)

// TestExplainShowsLiveLabels pins the live-label rendering of Explain:
// the selective aⁿbⁿ query advertises exactly its usable labels, and an
// unconstrained-alphabet query renders the All fast path.
func TestExplainShowsLiveLabels(t *testing.T) {
	env := ecrpq.Env{Sigma: []rune("abcdefgh")}
	q := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env)
	p, err := Compile(q, env)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	if !strings.Contains(out, "live(p1:a p2:b)") {
		t.Fatalf("Explain missing selective live sets:\n%s", out)
	}
	q2 := ecrpq.MustParse("Ans(x,y) <- (x,p,y), [abcdefgh]*(p)", env)
	p2, err := Compile(q2, env)
	if err != nil {
		t.Fatal(err)
	}
	out2 := p2.Explain()
	if !strings.Contains(out2, "live(p:") {
		t.Fatalf("Explain missing live sets:\n%s", out2)
	}
}

// TestExplainShowsStartDomains pins the start-domain rules of Explain: a
// rule per path atom that ends at a start variable, under the component
// whose enumeration it confines, naming the atom's own language — and
// none for a query where no atom feeds another.
func TestExplainShowsStartDomains(t *testing.T) {
	env := ecrpq.Env{Sigma: []rune("ab")}
	for _, tc := range []struct {
		text  string
		rules []string
	}{
		{"Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)",
			[]string{"  component 1: paths(p2) nodes(z, y) live(p2:b)\n    start domain: z ⊆ post[a+](x) when x is bound or confined\n"}},
		{"Ans(x,y) <- (x,p1,z), (z,p2,w), (w,p3,y), (a|b)*a(p1), el(p1,p3)",
			[]string{"start domain: w ⊆ post[Σ*](z) when z is bound or confined", "start domain: z ⊆ post[(a|b)*a](x) when x is bound or confined"}},
		{"Ans(x,y) <- (x,p,y), a+(p)", nil},
		{"Ans(y,z) <- (x,p1,y), (x,p2,z), a+(p1), b+(p2)", nil},
	} {
		p, err := Compile(ecrpq.MustParse(tc.text, env), env)
		if err != nil {
			t.Fatal(err)
		}
		out := p.Explain()
		for _, rule := range tc.rules {
			if !strings.Contains(out, rule) {
				t.Errorf("%s: Explain missing %q:\n%s", tc.text, rule, out)
			}
		}
		if len(tc.rules) == 0 && strings.Contains(out, "start domain") {
			t.Errorf("%s: Explain prints a start-domain rule for a query with none:\n%s", tc.text, out)
		}
	}
}

// TestExplainShowsStopRule pins the rows line of Explain: per component,
// how much of its relation the head and the joins make it enumerate — the
// columns they read, the stop rule an unbound evaluation arms, and the
// binding that would arm the next one.
func TestExplainShowsStopRule(t *testing.T) {
	env := ecrpq.Env{Sigma: []rune("ab")}
	for _, tc := range []struct {
		text string
		rows []string
	}{
		{"Ans() <- (x,p1,y), (u,p2,v), a+(p1), eq(p1,p2)",
			[]string{"    rows: decided by first row\n"}},
		{"Ans(x) <- (x,p,y), a+(p)",
			[]string{"    rows: first per start assignment (needs x; y unread); decided by first row when x bound\n"}},
		{"Ans(x,y) <- (x,p,y), a+(p)",
			[]string{"    rows: all (needs x, y); first per start assignment when y bound\n"}},
		{"Ans(x, p) <- (x,p,y), a+(p)",
			[]string{"    rows: all, shortest witness each (a head path variable is kept)\n"}},
		// The head reads nothing of the second component past x.
		{"Ans(x,y) <- (x,p1,y), (x,p2,z), a+(p1), b+(p2)", []string{
			"nodes(x, y) live(p1:a)\n    rows: all (needs x, y); first per start assignment when y bound\n",
			"nodes(x, z) live(p2:b)\n    rows: first per start assignment (needs x; z unread); decided by first row when x bound\n"}},
		// A Boolean chain still needs its join column.
		{"Ans() <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", []string{
			"    rows: all (needs z; x unread); first per start assignment when z bound\n",
			"    rows: first per start assignment (needs z; y unread); decided by first row when z bound\n"}},
	} {
		p, err := Compile(ecrpq.MustParse(tc.text, env), env)
		if err != nil {
			t.Fatal(err)
		}
		out := p.Explain()
		for _, rows := range tc.rows {
			if !strings.Contains(out, rows) {
				t.Errorf("%s: Explain missing %q:\n%s", tc.text, rows, out)
			}
		}
		if got := strings.Count(out, "    rows: "); got != p.NumComponents() {
			t.Errorf("%s: %d rows lines for %d components:\n%s", tc.text, got, p.NumComponents(), out)
		}
	}
	p, err := Compile(ecrpq.MustParse("Ans(x) <- (x,p1,y), (x,p2,z), a+(p1), b+(p2)", env), env)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range p.prog.Components() {
		if len(c.Needed) != 1 || c.Needed[0] != "x" {
			t.Errorf("component %d needs %v, want [x]", i, c.Needed)
		}
	}
}

// TestExplainShowsTable pins the table line of Explain, one per
// component after its rows line: [σ]* over 32 labels is 2 joint states
// and 32 classes on the lazy runner and one of each on its minimal
// table; four el-joined tapes over 32 labels read Σ as one class, split
// into 4 cells by (a|b)+, and coarsen to one class per tape; four
// eq-joined tapes, which tell all 32 labels apart, pass the
// exploration's bound and stay lazy.
func TestExplainShowsTable(t *testing.T) {
	sigma := []rune("abcdefghijklmnopqrstuvwxyzABCDEF")
	env := ecrpq.Env{Sigma: sigma}
	for _, tc := range []struct{ text, line string }{
		{"Ans(x,y) <- (x,p,y), [" + string(sigma) + "]*(p)", "    table: joint states 2 → 1; classes 32 → 1\n"},
		{"Ans(y1, y4) <- (x,p1,y1), (x,p2,y2), (x,p3,y3), (x,p4,y4), el(p1,p2), el(p2,p3), el(p3,p4), (a|b)+(p1)",
			"    table: joint states 2 → 2; classes 4 → 1, 4 → 1, 4 → 1, 4 → 1\n"},
		{"Ans(y1, y4) <- (x,p1,y1), (x,p2,y2), (x,p3,y3), (x,p4,y4), eq(p1,p2), eq(p2,p3), eq(p3,p4), (a|b)+(p1)",
			"    table: lazy (exploration passed the bound)\n"},
	} {
		p, err := Compile(ecrpq.MustParse(tc.text, env), env)
		if err != nil {
			t.Fatal(err)
		}
		out := p.Explain()
		if !strings.Contains(out, tc.line) || !strings.Contains(out, "\n    rows: ") {
			t.Fatalf("%s: Explain missing %q:\n%s", tc.text, tc.line, out)
		}
		if strings.Index(out, "    table: ") < strings.Index(out, "    rows: ") {
			t.Fatalf("%s: the table line comes before the rows line:\n%s", tc.text, out)
		}
	}
}
