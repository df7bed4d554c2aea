package graph

import (
	"strings"
	"testing"
)

// line builds the string graph G_s of Proposition 3.2: for s = a0…an-1,
// nodes v0…vn and edges (vi, ai, vi+1).
func line(s string) (*DB, Node, Node) {
	g := NewDB()
	prev := g.AddNode("v0")
	first := prev
	for i, r := range s {
		next := g.AddNode("v" + string(rune('1'+i)))
		g.AddEdge(prev, r, next)
		prev = next
	}
	return g, first, prev
}

func TestBasicConstruction(t *testing.T) {
	g := NewDB()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(a, 'x', b)
	g.AddEdge(a, 'x', b) // duplicate ignored
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Errorf("got %d nodes %d edges, want 2/1", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(a, 'x', b) || g.HasEdge(b, 'x', a) {
		t.Error("HasEdge wrong")
	}
	if v, ok := g.NodeByName("a"); !ok || v != a {
		t.Error("NodeByName wrong")
	}
	if g.AddNode("a") != a {
		t.Error("AddNode should be idempotent per name")
	}
	if got := g.Alphabet(); len(got) != 1 || got[0] != 'x' {
		t.Errorf("Alphabet = %v", got)
	}
}

func TestPathBasics(t *testing.T) {
	g, v0, v3 := line("abc")
	p := EmptyPath(v0).Extend('a', 1).Extend('b', 2).Extend('c', 3)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.From() != v0 || p.To() != v3 || p.Len() != 3 {
		t.Error("path endpoints/length wrong")
	}
	if p.LabelString() != "abc" {
		t.Errorf("label = %q", p.LabelString())
	}
	bad := p.Extend('z', 0)
	if err := bad.Validate(g); err == nil {
		t.Error("Validate should fail for missing edge")
	}
	if !p.Equal(p) || p.Equal(bad) {
		t.Error("Equal wrong")
	}
}

func TestParseWriteText(t *testing.T) {
	src := `
# a comment
node isolated
edge alice k bob
bob -f-> carol
`
	g, err := ParseText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 2 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	alice, _ := g.NodeByName("alice")
	bob, _ := g.NodeByName("bob")
	carol, _ := g.NodeByName("carol")
	if !g.HasEdge(alice, 'k', bob) || !g.HasEdge(bob, 'f', carol) {
		t.Error("edges missing")
	}
	var b strings.Builder
	if err := WriteText(&b, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Error("round trip lost edges")
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"edge a b",         // missing field
		"gibberish",        // unknown line
		"a - -> b -> c ->", // malformed arrow
	}
	for _, src := range bad {
		if _, err := ParseText(strings.NewReader(src)); err == nil {
			t.Errorf("ParseText(%q) succeeded, want error", src)
		}
	}
}

func TestFormatPath(t *testing.T) {
	g, v0, _ := line("ab")
	p := EmptyPath(v0).Extend('a', 1)
	if got := p.Format(g); got != "v0 -a-> v1" {
		t.Errorf("Format = %q", got)
	}
}
