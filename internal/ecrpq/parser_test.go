package ecrpq

import (
	"strings"
	"testing"

	"repro/internal/relations"
)

func TestParseBasic(t *testing.T) {
	q, err := Parse("Ans(x, y, p1) <- (x,p1,z), (z,p2,y), a+(p1), el(p1,p2)", env())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.PathAtoms) != 2 || len(q.RelAtoms) != 2 {
		t.Fatalf("parsed %d path atoms, %d rel atoms", len(q.PathAtoms), len(q.RelAtoms))
	}
	if len(q.HeadNodes) != 2 || q.HeadNodes[0] != "x" || q.HeadNodes[1] != "y" {
		t.Errorf("head nodes = %v", q.HeadNodes)
	}
	if len(q.HeadPaths) != 1 || q.HeadPaths[0] != "p1" {
		t.Errorf("head paths = %v", q.HeadPaths)
	}
	if q.RelAtoms[1].Rel.Arity != 2 {
		t.Error("el should resolve to the binary built-in")
	}
	if q.IsCRPQ() {
		t.Error("query with el is not a CRPQ")
	}
}

func TestParseComplexRegexAtom(t *testing.T) {
	q, err := Parse("Ans(x,y) <- (x,p,y), (a|b)*a(p)", env())
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsCRPQ() {
		t.Error("language-only query is a CRPQ")
	}
	if !q.RelAtoms[0].Rel.ContainsStrings("ba") || q.RelAtoms[0].Rel.ContainsStrings("ab") {
		t.Error("regex atom language wrong")
	}
}

func TestParseNamedRelations(t *testing.T) {
	myrel := relations.Equality(sigmaAB)
	e := Env{Sigma: sigmaAB, Relations: map[string]*relations.Relation{"same": myrel}}
	q, err := Parse("Ans() <- (x,p,y), (x,q,y), same(p,q)", e)
	if err != nil {
		t.Fatal(err)
	}
	if q.RelAtoms[0].Rel != myrel {
		t.Error("named relation not resolved")
	}
}

func TestParseBuiltins(t *testing.T) {
	for _, name := range []string{"eq", "el", "prefix", "lt", "le", "edit1"} {
		src := "Ans() <- (x,p,y), (x,q,y), " + name + "(p,q)"
		if _, err := Parse(src, env()); err != nil {
			t.Errorf("built-in %s: %v", name, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"Ans(x,y)",                         // no body
		"foo(x) <- (x,p,y)",                // head not Ans
		"Ans(x) <- ",                       // empty body
		"Ans(x) <- (x,p)",                  // 2-ary path atom is not valid regex either
		"Ans(x) <- (x,p,y), a)b(p)",        // invalid regex name
		"Ans(x) <- (x,p,y), el(p)",         // arity mismatch
		"Ans(w) <- (x,p,y), a(p)",          // head var not in body
		"Ans(x) <- (x,p,y), (x,p,z), a(p)", // repeated path var
		"Ans(x) <- (x,p,y), unknown(p,q)",  // unknown binary relation
	}
	for _, src := range bad {
		if _, err := Parse(src, env()); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := "Ans(x, y, p1) <- (x,p1,z), (z,p2,y), a+(p1), el(p1,p2)"
	q := MustParse(src, env())
	printed := q.String()
	q2, err := Parse(printed, env())
	if err != nil {
		t.Fatalf("reparse of %q: %v", printed, err)
	}
	if q2.String() != printed {
		t.Errorf("round trip unstable: %q vs %q", printed, q2.String())
	}
}

func TestBuilderEquivalentToParse(t *testing.T) {
	q1 := MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env())
	q2 := NewBuilder().
		Path("x", "p1", "z").
		Path("z", "p2", "y").
		Lang("p1", "a+").
		Lang("p2", "b+").
		Rel(relations.EqualLength(sigmaAB), "p1", "p2").
		HeadNodes("x", "y").
		MustBuild()
	g := stringGraph("aabb")
	r1, err := Eval(q1, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Eval(q2, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if answersString(g, r1.Answers) != answersString(g, r2.Answers) {
		t.Error("builder and parser queries disagree")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().Path("x", "p", "y").Lang("p", "((").Build(); err == nil {
		t.Error("bad regex in Lang should surface at Build")
	}
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("empty query should fail validation")
	}
	if _, err := NewBuilder().Path("x", "p", "y").HeadPaths("q").Build(); err == nil {
		t.Error("unknown head path should fail")
	}
}

func TestValidateMessages(t *testing.T) {
	q := &Query{PathAtoms: []PathAtom{{X: "x", Pi: "p", Y: "y"}},
		RelAtoms: []RelAtom{{Rel: relations.Equality(sigmaAB), Args: []PathVar{"p", "q"}}}}
	err := q.Validate()
	if err == nil || !strings.Contains(err.Error(), "q") {
		t.Errorf("want unbound-variable error mentioning q, got %v", err)
	}
}

func TestIsAcyclic(t *testing.T) {
	acyclic := MustParse("Ans() <- (x,p1,y), (y,p2,z), a(p1), a(p2)", env())
	if !acyclic.IsAcyclic() {
		t.Error("chain should be acyclic")
	}
	cyclic := MustParse("Ans() <- (x,p1,y), (y,p2,x), a(p1), a(p2)", env())
	if cyclic.IsAcyclic() {
		t.Error("2-cycle should be cyclic")
	}
	selfLoop := MustParse("Ans() <- (x,p1,x), a(p1)", env())
	if selfLoop.IsAcyclic() {
		t.Error("self-loop atom should be cyclic")
	}
	parallel := MustParse("Ans() <- (x,p1,y), (x,p2,y), a(p1), b(p2)", env())
	if parallel.IsAcyclic() {
		t.Error("parallel atoms should count as cyclic")
	}
}

func TestNodeAndPathVars(t *testing.T) {
	q := MustParse("Ans(x) <- (x,p1,y), (y,p2,z), a(p1), b(p2)", env())
	nv := q.NodeVars()
	if len(nv) != 3 || nv[0] != "x" || nv[1] != "y" || nv[2] != "z" {
		t.Errorf("NodeVars = %v", nv)
	}
	pv := q.PathVars()
	if len(pv) != 2 || pv[0] != "p1" || pv[1] != "p2" {
		t.Errorf("PathVars = %v", pv)
	}
	if a, ok := q.AtomOf("p2"); !ok || a.X != "y" {
		t.Errorf("AtomOf(p2) = %v, %v", a, ok)
	}
	if _, ok := q.AtomOf("nope"); ok {
		t.Error("AtomOf unknown var should be false")
	}
}
