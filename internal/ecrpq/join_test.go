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

// TestJoinHeadRootedDifferential is TestJoinDifferential's check for the
// plans a program without witnesses makes: the GYO order planned for the
// head, which folds the ears that add no head variable first. On every
// acyclic shape and random head the join must still equal the nested-loop
// join, and the folds must keep only what the head or a later fold reads;
// the order must differ from the index order somewhere, or the check
// tests nothing new.
func TestJoinHeadRootedDifferential(t *testing.T) {
	ctx := context.Background()
	reordered := 0
	for _, shape := range joinShapes {
		if !shape.acyclic {
			continue
		}
		r := rand.New(rand.NewSource(41))
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
			var keep []NodeVar
			for _, v := range all {
				if r.Intn(3) > 0 {
					keep = append(keep, v)
				}
			}
			jp := planJoin(shape.varSets, keep...)
			if !jp.acyclic {
				t.Fatalf("%s: the head-rooted plan says cyclic", shape.name)
			}
			if !slices.Equal(jp.elims, planJoin(shape.varSets).elims) {
				reordered++
			}
			specs := randomRelSpecs(r, shape.varSets, 2+r.Intn(3), make([]bool, len(shape.varSets)))
			joined, err := joinAll(ctx, buildAll(specs), jp, keep)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("%s trial %d keep %v", shape.name, trial, keep),
				relationRows(t, joined, keep), naiveJoin(specs, keep), false)
			checkFoldColumns(t, specs, jp, keep)
		}
	}
	if reordered == 0 {
		t.Error("no head changed the elimination order")
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
// of the parent and the answer set. Planned for the head, as a program
// without witnesses plans it, the order folds (x,z) into (x,y) instead:
// (x,y) is the root and comes back as it is, and the join indexes and
// copies none of its rows — one semijoin of it against a three-row index.
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
	for _, headed := range []bool{false, true} {
		rels := buildAll([]relSpec{xy, xz})
		jp := planJoin([][]NodeVar{xy.vars, xz.vars})
		if headed {
			jp = planJoin([][]NodeVar{xy.vars, xz.vars}, "x", "y")
		}
		var a joinArena
		root, err := a.yannakakisReduce(context.Background(), rels, jp.elims, []NodeVar{"x", "y"})
		if err != nil {
			t.Fatal(err)
		}
		if root.n != answers {
			t.Fatalf("headed %t: the root has %d rows, want %d", headed, root.n, answers)
		}
		// Every fold's result replaces rels[parent], so rels holds every
		// intermediate the reduction built.
		for i, r := range append(rels, root) {
			if r.n > max(zs, answers) {
				t.Errorf("headed %t: relation %d over %v was materialised with %d rows; the parent has %d and there are %d answers",
					headed, i, r.vars, r.n, zs, answers)
			}
		}
		if !headed {
			continue
		}
		if want := []elimination{{child: 1, parent: 0}, {child: 0, parent: -1}}; !slices.Equal(jp.elims, want) {
			t.Fatalf("head-rooted plan %v, want %v", jp.elims, want)
		}
		if root != rels[0] {
			t.Errorf("the root is a relation over %v with %d rows, not the (x,y) component relation itself", root.vars, root.n)
		}
		for _, r := range a.rels[:a.nrels] {
			if r.n > zs {
				t.Errorf("the join copied %d rows into a relation over %v", r.n, r.vars)
			}
		}
		for _, x := range a.idx[:a.nidx] {
			if x.rel.n > zs {
				t.Errorf("the join indexed a relation over %v with %d rows", x.rel.vars, x.rel.n)
			}
		}
		if a.nidx != 1 {
			t.Errorf("the join built %d indexes, want the one semijoin's", a.nidx)
		}
	}
}

// TestJoinTopDownBoundsFolds: the top-down semijoins filter each child by
// its parent before any fold, so a fold below the root joins only rows
// the answer can use. In the chain A(x,y) – B(y,z) – C(z,w), rooted at A,
// A keeps only y = 0, B maps each of 100 y values to its z, and C gives
// every z ten w values. Bottom-up, B and C agree on every row; only the
// top-down pass carries A's filter down to C, so the fold of C into B
// materialises B's one surviving row times ten, not all 100 × 10.
func TestJoinTopDownBoundsFolds(t *testing.T) {
	const ys, ws = 100, 10
	a := relSpec{vars: []NodeVar{"x", "y"}, rows: [][]graph.Node{{7, 0}}}
	b := relSpec{vars: []NodeVar{"y", "z"}}
	c := relSpec{vars: []NodeVar{"z", "w"}}
	for y := range ys {
		b.rows = append(b.rows, []graph.Node{graph.Node(y), graph.Node(y)})
		for w := range ws {
			c.rows = append(c.rows, []graph.Node{graph.Node(y), graph.Node(w)})
		}
	}
	rels := buildAll([]relSpec{a, b, c})
	elims := []elimination{{child: 2, parent: 1}, {child: 1, parent: 0}, {child: 0, parent: -1}}
	var arena joinArena
	root, err := arena.yannakakisReduce(context.Background(), rels, elims, []NodeVar{"x", "w"})
	if err != nil {
		t.Fatal(err)
	}
	if root.n != ws {
		t.Fatalf("the root has %d rows, want %d", root.n, ws)
	}
	// rels[1] is the fold of C into B.
	if rels[1].n != ws {
		t.Fatalf("the fold of C into B over %v has %d rows, want %d", rels[1].vars, rels[1].n, ws)
	}
}

// TestHeadOrderMatchesSortFunc checks assemble's radix order against a
// comparison sort of the head tuples: random relations of one to three
// head columns (in any column order, beside a column the head skips),
// rows distinct on the head, node ids past 2⁸, 2¹⁶ and 2²⁴, one arena
// reused throughout as a pooled workspace reuses it.
func TestHeadOrderMatchesSortFunc(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	var a joinArena
	for trial := 0; trial < 300; trial++ {
		arity := 1 + trial%3
		bound := []int{1 << 8, 1 << 16, 1 << 24, 1 << 31}[trial/3%4] + 1000
		vars := []NodeVar{"x", "y", "z", "skip"}
		pos := r.Perm(len(vars) - 1)[:arity]
		rel := &varRelation{vars: vars}
		seen := map[string]bool{}
		for range r.Intn(2000) {
			row := make([]graph.Node, len(vars))
			for c := range row {
				row[c] = graph.Node(r.Intn(bound))
				if r.Intn(3) == 0 { // shared values, so ties reach later columns
					row[c] = graph.Node(bound - 1 - r.Intn(3))
				}
			}
			head := make([]graph.Node, arity)
			gather(head, row, pos)
			if k := fmt.Sprint(head); !seen[k] {
				seen[k] = true
				rel.add(row, nil)
			}
		}
		if rel.n == 0 {
			continue
		}
		want := make([][]graph.Node, rel.n)
		for i := range want {
			want[i] = make([]graph.Node, arity)
			gather(want[i], rel.row(i), pos)
		}
		slices.SortFunc(want, slices.Compare)
		for i, row := range a.headOrder(rel, pos) {
			got := make([]graph.Node, arity)
			gather(got, rel.row(int(row)), pos)
			if !slices.Equal(got, want[i]) {
				t.Fatalf("trial %d (arity %d, ids < %d): answer %d is %v, want %v", trial, arity, bound, i, got, want[i])
			}
		}
		a.release()
	}
}
