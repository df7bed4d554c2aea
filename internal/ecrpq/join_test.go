package ecrpq

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// This file tests the join layer on its own: seeded random relation sets
// over acyclic and cyclic variable hypergraphs go through joinAll and
// through a nested-loop join written here, and must agree on the rows and
// on which witness every row carries. The end-to-end suites only reach
// this code through fingerprints.

// relSpec describes one input relation; build makes a fresh varRelation
// from it (the semijoin phases filter their inputs in place, so every
// join gets its own).
type relSpec struct {
	vars  []NodeVar
	pvars []PathVar
	rows  [][]graph.Node
	paths [][]graph.Path // per row, aligned to pvars
}

func (s relSpec) build() *varRelation {
	r := &varRelation{vars: s.vars, pvars: s.pvars}
	for i, row := range s.rows {
		var w []graph.Path
		if len(s.pvars) > 0 {
			w = s.paths[i]
		}
		r.add(row, w)
	}
	return r
}

func buildAll(specs []relSpec) []*varRelation {
	out := make([]*varRelation, len(specs))
	for i, s := range specs {
		out[i] = s.build()
	}
	return out
}

// tagPath is a path of the given length whose first label names it, so
// two witnesses of equal length are still told apart (a path of length 0
// is told apart by its node).
func tagPath(tag, length int) graph.Path {
	p := graph.Path{Nodes: []graph.Node{graph.Node(tag)}}
	for i := 0; i < length; i++ {
		p.Nodes = append(p.Nodes, graph.Node(tag))
		p.Labels = append(p.Labels, rune('A'+tag))
	}
	return p
}

// randomRelSpecs fills the given variable sets with distinct random rows
// over a domain of dom nodes. Relations flagged in witnessed carry one or
// two path variables; within one relation and path variable every row's
// witness has a different length, so the shortest witness of an answer is
// unique and every correct join order must pick the same one.
func randomRelSpecs(r *rand.Rand, varSets [][]NodeVar, dom int, witnessed []bool) []relSpec {
	specs := make([]relSpec, len(varSets))
	tag := 0
	for i, vars := range varSets {
		s := relSpec{vars: vars}
		if witnessed[i] {
			for k := 0; k <= r.Intn(2); k++ {
				s.pvars = append(s.pvars, PathVar(fmt.Sprintf("p%d_%d", i, k)))
			}
		}
		seen := map[string]bool{}
		for n := 1 + r.Intn(12); n > 0; n-- {
			row := make([]graph.Node, len(vars))
			for j := range row {
				row[j] = graph.Node(r.Intn(dom))
			}
			if k := fmt.Sprint(row); !seen[k] {
				seen[k] = true
				s.rows = append(s.rows, row)
			}
		}
		lens := make([][]int, len(s.pvars))
		for k := range lens {
			lens[k] = r.Perm(len(s.rows))
		}
		for ri := range s.rows {
			w := make([]graph.Path, len(s.pvars))
			for k := range w {
				w[k] = tagPath(tag, lens[k][ri])
				tag++
			}
			s.paths = append(s.paths, w)
		}
		specs[i] = s
	}
	return specs
}

// joinedRow is one output row in a column-order-independent form.
type joinedRow struct {
	paths map[PathVar]graph.Path
}

// naiveJoin is the reference: nested loops over the relations in index
// order, one consistent binding at a time, projected onto keep; among the
// bindings of one output row the strictly shorter witness wins per path
// variable, else the first seen.
func naiveJoin(specs []relSpec, keep []NodeVar) map[string]joinedRow {
	out := map[string]joinedRow{}
	binding := map[NodeVar]graph.Node{}
	paths := map[PathVar]graph.Path{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(specs) {
			key := rowKey(keep, func(v NodeVar) graph.Node { return binding[v] })
			held, ok := out[key]
			if !ok {
				held = joinedRow{paths: map[PathVar]graph.Path{}}
				out[key] = held
			}
			for pv, p := range paths {
				if old, had := held.paths[pv]; !had || p.Len() < old.Len() {
					held.paths[pv] = p
				}
			}
			return
		}
		s := specs[i]
	rows:
		for ri, row := range s.rows {
			var bound []NodeVar
			for j, v := range s.vars {
				if n, ok := binding[v]; ok {
					if n != row[j] {
						for _, b := range bound {
							delete(binding, b)
						}
						continue rows
					}
					continue
				}
				binding[v] = row[j]
				bound = append(bound, v)
			}
			for k, pv := range s.pvars {
				paths[pv] = s.paths[ri][k]
			}
			rec(i + 1)
			for _, b := range bound {
				delete(binding, b)
			}
		}
	}
	rec(0)
	return out
}

// rowKey renders the values of the sorted keep variables.
func rowKey(keep []NodeVar, val func(NodeVar) graph.Node) string {
	var b strings.Builder
	for _, v := range keep {
		fmt.Fprintf(&b, "%s=%d,", v, val(v))
	}
	return b.String()
}

// relationRows converts a joined relation to the reference form, failing
// on a duplicate row or a column outside keep.
func relationRows(t *testing.T, r *varRelation, keep []NodeVar) map[string]joinedRow {
	t.Helper()
	for _, v := range r.vars {
		if !slices.Contains(keep, v) {
			t.Fatalf("joined relation has column %s outside the kept %v", v, keep)
		}
	}
	out := map[string]joinedRow{}
	for i := 0; i < r.n; i++ {
		row := r.row(i)
		key := rowKey(keep, func(v NodeVar) graph.Node { return row[varPos(r.vars, v)] })
		if _, dup := out[key]; dup {
			t.Fatalf("joined relation holds row %s twice", key)
		}
		jr := joinedRow{paths: map[PathVar]graph.Path{}}
		for k, pv := range r.pvars {
			jr.paths[pv] = r.witness(i)[k]
		}
		out[key] = jr
	}
	return out
}

func sameRows(t *testing.T, what string, got, want map[string]joinedRow, witnesses bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("%s: row %s missing", what, key)
		}
		if !witnesses {
			continue
		}
		if len(g.paths) != len(w.paths) {
			t.Fatalf("%s: row %s carries %d witnesses, want %d", what, key, len(g.paths), len(w.paths))
		}
		for pv, p := range w.paths {
			if !g.paths[pv].Equal(p) {
				t.Fatalf("%s: row %s carries witness %v for %s, want %v", what, key, g.paths[pv], pv, p)
			}
		}
	}
}

// joinShapes are the variable hypergraphs of the differential test.
var joinShapes = []struct {
	name    string
	varSets [][]NodeVar
	acyclic bool
}{
	{"single", [][]NodeVar{{"x", "y", "z"}}, true},
	{"pair", [][]NodeVar{{"x", "y"}, {"y", "z"}}, true},
	{"same-start", [][]NodeVar{{"x", "y"}, {"x", "z"}}, true},
	{"chain4", [][]NodeVar{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}}, true},
	{"star", [][]NodeVar{{"c", "x", "y"}, {"x", "u"}, {"y", "v"}, {"c", "w"}}, true},
	{"deep", [][]NodeVar{{"x", "d", "w"}, {"d", "e"}, {"w", "f"}, {"e", "g"}}, true},
	{"unconnected", [][]NodeVar{{"x", "y"}, {"u", "v"}, {"y", "z"}}, true},
	{"triangle", [][]NodeVar{{"x", "y"}, {"y", "z"}, {"z", "x"}}, false},
	{"square+tail", [][]NodeVar{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}, {"a", "t"}}, false},
}

// TestJoinDifferential: joinAll (Yannakakis on the acyclic shapes,
// backtracking on the cyclic ones) == backtrackJoin on every shape == the
// nested-loop join, on rows and on witness choice, with head variables
// spread at random over the relations.
func TestJoinDifferential(t *testing.T) {
	ctx := context.Background()
	for _, shape := range joinShapes {
		t.Run(shape.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(22))
			jp := planJoin(shape.varSets)
			if jp.acyclic != shape.acyclic {
				t.Fatalf("planJoin says acyclic=%t", jp.acyclic)
			}
			var all []NodeVar
			for _, vs := range shape.varSets {
				for _, v := range vs {
					if !slices.Contains(all, v) {
						all = append(all, v)
					}
				}
			}
			slices.Sort(all)
			for trial := 0; trial < 150; trial++ {
				witnessed := make([]bool, len(shape.varSets))
				if trial%3 != 0 {
					for i := range witnessed {
						witnessed[i] = r.Intn(2) == 0
					}
				}
				specs := randomRelSpecs(r, shape.varSets, 2+r.Intn(3), witnessed)
				var keep []NodeVar
				for _, v := range all {
					if r.Intn(3) > 0 {
						keep = append(keep, v)
					}
				}
				want := naiveJoin(specs, keep)
				joined, err := joinAll(ctx, buildAll(specs), jp, keep)
				if err != nil {
					t.Fatal(err)
				}
				// A Boolean backtracking join (the one a cyclic hypergraph
				// gets) stops at its first binding: its one row carries that
				// binding's witnesses, not the shortest.
				sameRows(t, fmt.Sprintf("trial %d keep %v", trial, keep),
					relationRows(t, joined, keep), want, len(keep) > 0 || shape.acyclic)
				bt, err := backtrackJoin(ctx, buildAll(specs), keep)
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, fmt.Sprintf("trial %d keep %v, backtracking", trial, keep),
					relationRows(t, bt, keep), want, len(keep) > 0)
				if shape.acyclic {
					checkFoldColumns(t, specs, jp, keep)
				}
			}
		})
	}
}

// checkFoldColumns re-runs the Yannakakis reduction and inspects what
// each fold left in rels[parent]: a column must be kept by the head or
// shared with a relation folded later.
func checkFoldColumns(t *testing.T, specs []relSpec, jp joinPlan, keep []NodeVar) {
	t.Helper()
	rels := buildAll(specs)
	keepSet := map[NodeVar]bool{}
	for _, v := range keep {
		keepSet[v] = true
	}
	if _, err := yannakakisReduce(context.Background(), rels, jp.elims, keepSet); err != nil {
		t.Fatal(err)
	}
	for k, e := range jp.elims {
		if e.parent < 0 {
			continue
		}
		// rels[e.parent] is the result of the parent's last fold; only
		// check at that fold.
		last := true
		for _, later := range jp.elims[k+1:] {
			last = last && later.parent != e.parent
		}
		if !last {
			continue
		}
	cols:
		for _, v := range rels[e.parent].vars {
			if keepSet[v] {
				continue
			}
			for _, later := range jp.elims[k+1:] {
				if later.child != e.parent && slices.Contains(specs[later.child].vars, v) {
					continue cols
				}
			}
			t.Fatalf("fold %d into %d left column %s, which the head %v does not keep and no later fold shares",
				e.child, e.parent, v, keep)
		}
	}
}

// TestJoinWitnessTieOrder pins the tie rule of the Yannakakis folds on a
// case where the child is pre-projected and the witnesses tie: among
// equally short witnesses the first in (parent row, child row) order is
// kept.
func TestJoinWitnessTieOrder(t *testing.T) {
	pA, pB, pC, pD := tagPath(0, 1), tagPath(1, 1), tagPath(2, 1), tagPath(3, 1)
	specs := []relSpec{
		{vars: []NodeVar{"x", "y"}, pvars: []PathVar{"p"},
			rows:  [][]graph.Node{{5, 2}, {6, 1}, {7, 1}, {8, 2}},
			paths: [][]graph.Path{{pA}, {pB}, {pC}, {pD}}},
		{vars: []NodeVar{"y", "z"}, rows: [][]graph.Node{{1, 9}, {2, 9}}},
	}
	jp := planJoin([][]NodeVar{specs[0].vars, specs[1].vars})
	if !jp.acyclic || jp.elims[0] != (elimination{child: 0, parent: 1}) {
		t.Fatalf("unexpected join plan %+v", jp)
	}
	joined, err := joinAll(context.Background(), buildAll(specs), jp, []NodeVar{"z"})
	if err != nil {
		t.Fatal(err)
	}
	// Parent row (1,9) comes first and meets child rows B then C; parent
	// row (2,9) meets A then D. All four tie, so B stays.
	if joined.n != 1 || !joined.witness(0)[0].Equal(pB) {
		t.Fatalf("joined %d rows, witness %v; want one row carrying %v", joined.n, joined.witness(0), pB)
	}
}

// TestJoinNoInflatedIntermediate is the bigalpha_join shape,
// Ans(x,y) <- (x,p1,y), (x,p2,z) with x bound: the fold of (x,y) into
// (x,z) must not pair every y with every z only to project z away. No
// relation the reduction materialises may have more rows than the larger
// of the parent and the answer set.
func TestJoinNoInflatedIntermediate(t *testing.T) {
	const answers, zs = 1461, 3
	xy := relSpec{vars: []NodeVar{"x", "y"}}
	for i := 0; i < answers; i++ {
		xy.rows = append(xy.rows, []graph.Node{0, graph.Node(i)})
	}
	xz := relSpec{vars: []NodeVar{"x", "z"}}
	for i := 0; i < zs; i++ {
		xz.rows = append(xz.rows, []graph.Node{0, graph.Node(i)})
	}
	rels := buildAll([]relSpec{xy, xz})
	jp := planJoin([][]NodeVar{xy.vars, xz.vars})
	root, err := yannakakisReduce(context.Background(), rels, jp.elims, map[NodeVar]bool{"x": true, "y": true})
	if err != nil {
		t.Fatal(err)
	}
	if root.n != answers {
		t.Fatalf("the root has %d rows, want %d", root.n, answers)
	}
	// Every fold's result replaces rels[parent], so rels holds every
	// intermediate the reduction built.
	for i, r := range append(rels, root) {
		if r.n > max(zs, answers) {
			t.Errorf("relation %d over %v was materialised with %d rows; the parent has %d and there are %d answers",
				i, r.vars, r.n, zs, answers)
		}
	}
}
