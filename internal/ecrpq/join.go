package ecrpq

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/intern"
)

// joinPlan is the compile-time half of the join layer: the GYO
// reduction of the hypergraph whose hyperedges are the components'
// variable sets. It depends only on the query structure, so Programs
// compute it once and reuse it for every execution.
type joinPlan struct {
	acyclic bool
	elims   []elimination
}

// planJoin runs the GYO reduction over the component variable sets.
func planJoin(varSets [][]NodeVar) joinPlan {
	acyclic, elims := gyoOrder(varSets)
	return joinPlan{acyclic: acyclic, elims: elims}
}

// joinAll joins the component relations on their shared node variables,
// keeping only the columns in keep (the query's output variables) plus
// whatever is needed to perform the join. keepPaths lists the path
// variables whose witnesses must survive.
//
// Under JoinAuto it runs the full Yannakakis algorithm when the
// hypergraph of variable sets is α-acyclic (GYO-reducible): semijoin
// reduction followed by bottom-up joins projected onto the needed
// columns — the PTIME combined-complexity algorithm behind Theorem 6.5.
// Crucially the projected joins keep intermediate results polynomial;
// materializing full assignments would be exponential in the query even
// for chains.
//
// Rows are columnar ([]graph.Node aligned to the relation's vars); hash
// indexes are interned node tuples (package intern), never strings.
// Cancellation of ctx is honored inside the enumeration loops.
func joinAll(ctx context.Context, rels []*varRelation, jp joinPlan, mode JoinMode, keep []NodeVar, keepPaths []PathVar) (*varRelation, error) {
	if len(rels) == 0 {
		return &varRelation{}, nil
	}
	keepSet := map[NodeVar]bool{}
	for _, v := range keep {
		keepSet[v] = true
	}
	pathSet := map[PathVar]bool{}
	for _, v := range keepPaths {
		pathSet[v] = true
	}
	final, err := reduceJoin(ctx, rels, jp, mode, keepSet, pathSet)
	if err != nil {
		return nil, err
	}
	return backtrackJoin(ctx, final, keepSet, pathSet)
}

// reduceJoin runs everything up to the final enumeration: for the
// Yannakakis strategy the semijoin phases and the projected bottom-up
// joins, leaving only the per-tree roots (which share no variables); for
// the backtracking strategy the relations pass through unchanged. The
// returned relations feed backtrackJoin or the streaming joinEnum.
func reduceJoin(ctx context.Context, rels []*varRelation, jp joinPlan, mode JoinMode, keep map[NodeVar]bool, keepPaths map[PathVar]bool) ([]*varRelation, error) {
	switch mode {
	case JoinYannakakis:
		if !jp.acyclic {
			return nil, fmt.Errorf("ecrpq: JoinYannakakis requested but the join hypergraph is cyclic")
		}
		return yannakakisReduce(ctx, rels, jp.elims, keep, keepPaths)
	case JoinAuto:
		if jp.acyclic {
			return yannakakisReduce(ctx, rels, jp.elims, keep, keepPaths)
		}
		return rels, nil
	default: // JoinBacktrack
		return rels, nil
	}
}

// elimination records one GYO ear removal: child is folded into parent;
// parent == -1 marks a root left at the end.
type elimination struct{ child, parent int }

// gyoOrder runs the GYO reduction on the hypergraph whose hyperedges
// are the given variable sets. It reports α-acyclicity and the
// elimination order.
func gyoOrder(varSets [][]NodeVar) (bool, []elimination) {
	n := len(varSets)
	varsOf := make([]map[NodeVar]bool, n)
	alive := make([]bool, n)
	for i, vs := range varSets {
		varsOf[i] = map[NodeVar]bool{}
		for _, v := range vs {
			varsOf[i][v] = true
		}
		alive[i] = true
	}
	var elims []elimination
	remaining := n
	for remaining > 1 {
		progress := false
		for i := 0; i < n && remaining > 1; i++ {
			if !alive[i] {
				continue
			}
			// An "ear": some live j ≠ i covers every variable of i that is
			// shared with any other live relation.
			shared := map[NodeVar]bool{}
			for v := range varsOf[i] {
				for j := 0; j < n; j++ {
					if j != i && alive[j] && varsOf[j][v] {
						shared[v] = true
						break
					}
				}
			}
			for j := 0; j < n; j++ {
				if j == i || !alive[j] {
					continue
				}
				covers := true
				for v := range shared {
					if !varsOf[j][v] {
						covers = false
						break
					}
				}
				if covers {
					elims = append(elims, elimination{child: i, parent: j})
					alive[i] = false
					remaining--
					progress = true
					break
				}
			}
		}
		if !progress {
			return false, nil
		}
	}
	for i := 0; i < n; i++ {
		if alive[i] {
			elims = append(elims, elimination{child: i, parent: -1})
		}
	}
	return true, elims
}

// yannakakisReduce runs the first phases of the Yannakakis algorithm:
// bottom-up and top-down semijoins, then bottom-up joins projected onto
// parent variables plus kept columns. Relations are mutated in place;
// the surviving per-tree roots are returned (they share no variables,
// so the caller cross-joins them).
func yannakakisReduce(ctx context.Context, rels []*varRelation, elims []elimination, keep map[NodeVar]bool, keepPaths map[PathVar]bool) ([]*varRelation, error) {
	for _, e := range elims {
		if e.parent >= 0 {
			semijoin(rels[e.parent], rels[e.child])
		}
	}
	for i := len(elims) - 1; i >= 0; i-- {
		if elims[i].parent >= 0 {
			semijoin(rels[elims[i].child], rels[elims[i].parent])
		}
	}
	// Phase 3: projected joins child→parent in elimination order.
	var roots []*varRelation
	for _, e := range elims {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.parent < 0 {
			roots = append(roots, projectRelation(rels[e.child], keep, keepPaths))
			continue
		}
		pj, err := projectJoin(ctx, rels[e.parent], rels[e.child], keep, keepPaths)
		if err != nil {
			return nil, err
		}
		rels[e.parent] = pj
	}
	return roots, nil
}

// positions maps each of vars to its column index in of (-1 if absent).
func positions(vars, of []NodeVar) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = varPos(of, v)
	}
	return out
}

// gather copies the row's values at the given column positions into buf.
func gather(nodes []graph.Node, pos []int, buf []int) []int {
	buf = buf[:0]
	for _, p := range pos {
		buf = append(buf, int(nodes[p]))
	}
	return buf
}

// projectRelation projects a relation onto keep ∩ vars plus nothing
// else, deduplicating rows (shortest witnesses win).
func projectRelation(r *varRelation, keep map[NodeVar]bool, keepPaths map[PathVar]bool) *varRelation {
	var cols []NodeVar
	var pos []int
	for i, v := range r.vars {
		if keep[v] {
			cols = append(cols, v)
			pos = append(pos, i)
		}
	}
	out := &varRelation{vars: cols}
	seen := intern.NewTable(len(r.rows))
	buf := make([]int, 0, len(cols))
	nodes := make([]graph.Node, len(cols))
	for _, rr := range r.rows {
		buf = gather(rr.nodes, pos, buf)
		paths := filterPaths(rr.paths, keepPaths)
		idx, added := seen.Intern(buf)
		if !added {
			mergeShorterPaths(&out.rows[idx], paths)
			continue
		}
		for i, p := range pos {
			nodes[i] = rr.nodes[p]
		}
		out.addRow(nodes, paths)
	}
	return out
}

// projectJoin joins parent ⋈ child and projects onto vars(parent) ∪
// (kept columns present in child), deduplicating.
func projectJoin(ctx context.Context, parent, child *varRelation, keep map[NodeVar]bool, keepPaths map[PathVar]bool) (*varRelation, error) {
	shared := sharedVars(child, parent)
	childShared := positions(shared, child.vars)
	parentShared := positions(shared, parent.vars)
	index := intern.NewTable(len(child.rows))
	rowsOf := [][]int32{}
	buf := make([]int, 0, len(shared))
	for i, rc := range child.rows {
		buf = gather(rc.nodes, childShared, buf)
		id, added := index.Intern(buf)
		if added {
			rowsOf = append(rowsOf, nil)
		}
		rowsOf[id] = append(rowsOf[id], int32(i))
	}
	// Output columns: parent's vars plus child's kept vars.
	cols := append([]NodeVar(nil), parent.vars...)
	var childCols []int // positions in child.vars of appended columns
	for i, v := range child.vars {
		if keep[v] && varPos(cols, v) < 0 {
			cols = append(cols, v)
			childCols = append(childCols, i)
		}
	}
	out := &varRelation{vars: cols}
	seen := intern.NewTable(len(parent.rows))
	keyBuf := make([]int, len(cols))
	nodes := make([]graph.Node, len(cols))
	for ri, rp := range parent.rows {
		if ri&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		buf = gather(rp.nodes, parentShared, buf)
		id, ok := index.Lookup(buf)
		if !ok {
			continue
		}
		for _, ci := range rowsOf[id] {
			rc := child.rows[ci]
			for i := range rp.nodes {
				keyBuf[i] = int(rp.nodes[i])
			}
			for i, cp := range childCols {
				keyBuf[len(rp.nodes)+i] = int(rc.nodes[cp])
			}
			paths := filterPaths(rp.paths, keepPaths)
			for pv, p := range filterPaths(rc.paths, keepPaths) {
				if old, ok := paths[pv]; !ok || p.Len() < old.Len() {
					if paths == nil {
						paths = map[PathVar]graph.Path{}
					}
					paths[pv] = p
				}
			}
			idx, added := seen.Intern(keyBuf)
			if !added {
				mergeShorterPaths(&out.rows[idx], paths)
				continue
			}
			for i, x := range keyBuf {
				nodes[i] = graph.Node(x)
			}
			out.addRow(nodes, paths)
		}
	}
	return out, nil
}

// filterPaths projects a witness map onto the kept path variables,
// returning nil (not an empty map) when nothing survives; merge sites
// allocate lazily.
func filterPaths(paths map[PathVar]graph.Path, keepPaths map[PathVar]bool) map[PathVar]graph.Path {
	var out map[PathVar]graph.Path
	for pv, p := range paths {
		if keepPaths[pv] {
			if out == nil {
				out = make(map[PathVar]graph.Path, len(paths))
			}
			out[pv] = p
		}
	}
	return out
}

func mergeShorterPaths(dst *row, paths map[PathVar]graph.Path) {
	for pv, p := range paths {
		if old, ok := dst.paths[pv]; !ok || p.Len() < old.Len() {
			if dst.paths == nil {
				dst.paths = map[PathVar]graph.Path{}
			}
			dst.paths[pv] = p
		}
	}
}

// semijoin keeps only the rows of a that agree with some row of b on
// their shared variables.
func semijoin(a, b *varRelation) {
	shared := sharedVars(a, b)
	if len(shared) == 0 {
		if len(b.rows) == 0 {
			a.rows = nil
		}
		return
	}
	aPos := positions(shared, a.vars)
	bPos := positions(shared, b.vars)
	index := intern.NewTable(len(b.rows))
	buf := make([]int, 0, len(shared))
	for _, rb := range b.rows {
		buf = gather(rb.nodes, bPos, buf)
		index.Intern(buf)
	}
	var kept []row
	for _, ra := range a.rows {
		buf = gather(ra.nodes, aPos, buf)
		if _, ok := index.Lookup(buf); ok {
			kept = append(kept, ra)
		}
	}
	a.rows = kept
}

func sharedVars(a, b *varRelation) []NodeVar {
	var out []NodeVar
	for _, v := range a.vars {
		if varPos(b.vars, v) >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// joinEnum enumerates the natural join of a set of relations by
// backtracking with hash indexes on the variables shared with the
// already-joined prefix. It is the execution half shared by the
// materializing backtrackJoin and the streaming executor: run invokes
// the callback once per satisfying assignment (projected onto the kept
// columns, duplicates included — callers deduplicate), stopping early
// when the callback returns false.
type joinEnum struct {
	plan      []indexedRel
	keepCols  []NodeVar
	keepSlots []int
	bindVars  []NodeVar
	keepPaths map[PathVar]bool
}

type indexedRel struct {
	rel    *varRelation
	shared []int // column positions (in rel.vars) shared with the prefix
	index  *intern.Table
	rowsOf [][]int32
	// bindPos[j] is the slot in the global binding for rel.vars[j].
	bindPos []int
}

// newJoinEnum indexes the relations for enumeration. Global binding
// slots are assigned per distinct variable in first-seen order; the
// kept columns are keep ∩ (all variables), in that same order.
func newJoinEnum(rels []*varRelation, keep map[NodeVar]bool, keepPaths map[PathVar]bool) *joinEnum {
	je := &joinEnum{keepPaths: keepPaths}
	slotOf := map[NodeVar]int{}
	je.plan = make([]indexedRel, len(rels))
	for i, r := range rels {
		var sharedPos []int
		bindPos := make([]int, len(r.vars))
		for j, v := range r.vars {
			if s, ok := slotOf[v]; ok {
				sharedPos = append(sharedPos, j)
				bindPos[j] = s
			} else {
				s := len(je.bindVars)
				slotOf[v] = s
				je.bindVars = append(je.bindVars, v)
				bindPos[j] = s
				if keep[v] {
					je.keepCols = append(je.keepCols, v)
					je.keepSlots = append(je.keepSlots, s)
				}
			}
		}
		idx := intern.NewTable(len(r.rows))
		rowsOf := [][]int32{}
		buf := make([]int, 0, len(sharedPos))
		for ri, rr := range r.rows {
			buf = gather(rr.nodes, sharedPos, buf)
			id, added := idx.Intern(buf)
			if added {
				rowsOf = append(rowsOf, nil)
			}
			rowsOf[id] = append(rowsOf[id], int32(ri))
		}
		je.plan[i] = indexedRel{rel: r, shared: sharedPos, index: idx, rowsOf: rowsOf, bindPos: bindPos}
	}
	return je
}

// run enumerates the join. each receives a transient node slice (in
// keepCols order; callees must copy) and the filtered witness map, and
// returns false to stop the enumeration. Cancellation of ctx is checked
// periodically; run returns ctx.Err() when it fired.
func (je *joinEnum) run(ctx context.Context, each func(nodes []graph.Node, paths map[PathVar]graph.Path) bool) error {
	binding := make([]graph.Node, len(je.bindVars))
	for i := range binding {
		binding[i] = -1
	}
	bindPaths := map[PathVar]graph.Path{}
	rowBuf := make([]graph.Node, len(je.keepCols))
	probeBuf := make([]int, 0, 8)
	done := false
	steps := 0
	var ctxErr error
	var rec func(i int)
	rec = func(i int) {
		if done {
			return
		}
		if steps++; steps&4095 == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				done = true
				return
			}
		}
		if i == len(je.plan) {
			for k, s := range je.keepSlots {
				rowBuf[k] = binding[s]
			}
			paths := filterPaths(bindPaths, je.keepPaths)
			if !each(rowBuf, paths) {
				done = true
			}
			return
		}
		p := je.plan[i]
		probeBuf = probeBuf[:0]
		for _, j := range p.shared {
			probeBuf = append(probeBuf, int(binding[p.bindPos[j]]))
		}
		id, ok := p.index.Lookup(probeBuf)
		if !ok {
			return
		}
		for _, ri := range p.rowsOf[id] {
			if done {
				return
			}
			rr := p.rel.rows[ri]
			var added []int
			ok := true
			for j, n := range rr.nodes {
				s := p.bindPos[j]
				if prev := binding[s]; prev >= 0 {
					if prev != n {
						ok = false
						break
					}
				} else {
					binding[s] = n
					added = append(added, s)
				}
			}
			if ok {
				var addedPaths []PathVar
				for pv, pp := range rr.paths {
					if _, exists := bindPaths[pv]; !exists {
						bindPaths[pv] = pp
						addedPaths = append(addedPaths, pv)
					}
				}
				rec(i + 1)
				for _, pv := range addedPaths {
					delete(bindPaths, pv)
				}
			}
			for _, s := range added {
				binding[s] = -1
			}
		}
	}
	rec(0)
	return ctxErr
}

// backtrackJoin materializes the natural join, deduplicating on the
// kept columns (shortest witnesses win). For Boolean queries (no kept
// columns) it stops at the first satisfying assignment.
func backtrackJoin(ctx context.Context, rels []*varRelation, keep map[NodeVar]bool, keepPaths map[PathVar]bool) (*varRelation, error) {
	je := newJoinEnum(rels, keep, keepPaths)
	out := &varRelation{vars: je.keepCols}
	boolean := len(je.keepCols) == 0
	seen := intern.NewTable(16)
	keyBuf := make([]int, len(je.keepCols))
	err := je.run(ctx, func(nodes []graph.Node, paths map[PathVar]graph.Path) bool {
		for i, n := range nodes {
			keyBuf[i] = int(n)
		}
		idx, added := seen.Intern(keyBuf)
		if !added {
			mergeShorterPaths(&out.rows[idx], paths)
			return true
		}
		out.addRow(nodes, paths)
		return !boolean
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
