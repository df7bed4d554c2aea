package ecrpq

import (
	"context"
	"slices"

	"repro/internal/graph"
)

// joinPlan is the compile-time half of the join layer: the GYO
// reduction of the hypergraph whose hyperedges are the components'
// variable sets. It depends only on the query structure, so Programs
// compute it once and reuse it for every execution.
type joinPlan struct {
	acyclic bool
	elims   []elimination
}

// planJoin runs the GYO reduction over the component variable sets. head,
// when given, are the head variables of a join that carries no witness:
// the reduction then folds first every ear that adds none of them, so the
// relation that carries the head becomes the root (see gyoOrder). Without
// it ears fold in index order, which is what a join with witnesses keeps:
// the order of its folds decides which of two equally short witnesses a
// row keeps.
func planJoin(varSets [][]NodeVar, head ...NodeVar) joinPlan {
	acyclic, elims := gyoOrder(varSets, head)
	return joinPlan{acyclic: acyclic, elims: elims}
}

// joinAll joins the component relations on their shared node variables
// and projects onto keep (the query's head node variables); witness
// columns ride along, shortest path per row.
//
// The policy is fixed by the hypergraph of variable sets. When it is
// α-acyclic (GYO-reducible) the join runs the full Yannakakis algorithm:
// semijoin reduction followed by bottom-up joins projected onto the
// needed columns — the PTIME combined-complexity algorithm behind
// Theorem 6.5. Crucially the projected joins keep intermediate results
// polynomial; materializing full assignments would be exponential in the
// query even for chains. The reduction ends in one root (gyoOrder), and
// that root, projected, is the joined relation. Only cyclic hypergraphs
// go through the backtracking enumeration.
//
// The result is distinct on its columns and may alias an input relation
// (a projection that drops nothing copies nothing); everything it builds
// lives in the arena. Cancellation of ctx is honored inside the
// enumeration loops.
func (a *joinArena) joinAll(ctx context.Context, rels []*varRelation, jp joinPlan, keep []NodeVar) (*varRelation, error) {
	if len(rels) == 0 {
		return a.relation(nil, nil), nil
	}
	final, reduced, err := a.reduceJoin(ctx, rels, jp, keep)
	if err != nil {
		return nil, err
	}
	if reduced {
		return final[0], nil
	}
	return a.backtrackJoin(ctx, final, keep)
}

// reduceJoin runs everything up to the final enumeration: for an acyclic
// plan (reduced = true) the semijoin phases and the projected bottom-up
// joins, leaving the one root, distinct on its kept columns; for a cyclic
// one the relations pass through unchanged to the backtracking
// enumeration. The returned relations may alias the inputs; callers only
// read them.
func (a *joinArena) reduceJoin(ctx context.Context, rels []*varRelation, jp joinPlan, keep []NodeVar) (final []*varRelation, reduced bool, err error) {
	if !jp.acyclic {
		return rels, false, nil
	}
	root, err := a.yannakakisReduce(ctx, rels, jp.elims, keep)
	if err != nil {
		return nil, false, err
	}
	a.root[0] = root
	return a.root[:], true, nil
}

// joinArena is the join layer's storage, owned by a workspace: the
// relations the layer materialises (projections, folds, the backtracking
// join's output), their dedup sets and hash indexes, and the small key,
// tuple, witness and column buffers. release hands all of it out again
// for the next evaluation, so a warm join allocates nothing; what the
// arena handed out is valid until then.
type joinArena struct {
	rels  []*varRelation
	nrels int
	sets  []*rowSet
	nsets int
	idx   []*rowIndex
	nidx  int

	joinBufs
	paths []graph.Path
	vars  []NodeVar
	pvars []PathVar
	root  [1]*varRelation // reduceJoin's result
}

// joinBufs are the arena's buffers that belong to no program — key and
// tuple nodes, column positions, headOrder's permutation and its radix
// buffer — which a workspace's arena holds while the workspace holds its
// scratch set (see takeWorkspace).
type joinBufs struct {
	nodes []graph.Node
	ints  []int
	order [2][]int32
}

// nextOf returns the n-th object of one of the arena's lists, building it
// on first use, and advances n.
func nextOf[T any](list *[]*T, n *int) *T {
	if *n == len(*list) {
		*list = append(*list, new(T))
	}
	x := (*list)[*n]
	*n++
	return x
}

// relation hands out an empty relation over vars and pvars.
func (a *joinArena) relation(vars []NodeVar, pvars []PathVar) *varRelation {
	r := nextOf(&a.rels, &a.nrels)
	r.reset(vars, pvars)
	return r
}

// set hands out an empty dedup set.
func (a *joinArena) set() *rowSet {
	s := nextOf(&a.sets, &a.nsets)
	s.reset()
	return s
}

// index hands out an index over rel on the given columns.
func (a *joinArena) index(rel *varRelation, cols []int) *rowIndex {
	x := nextOf(&a.idx, &a.nidx)
	x.build(rel, cols, carve(&a.nodes, len(cols)))
	return x
}

// positions maps each of vars to its column index in of (-1 if absent),
// in arena storage.
func (a *joinArena) positions(vars, of []NodeVar) []int {
	return positions(carve(&a.ints, len(vars)), vars, of)
}

// headOrder returns the row indices of r ordered by the node columns at
// pos, lexicographically: an LSD byte-radix sort, last column first and
// each column's bytes least significant first, that skips a byte every
// row shares. The permutation is arena storage.
func (a *joinArena) headOrder(r *varRelation, pos []int) []int32 {
	perm, tmp := zeroed(a.order[0], r.n), zeroed(a.order[1], r.n)
	a.order = [2][]int32{perm, tmp}
	for i := range perm {
		perm[i] = int32(i)
	}
	w := len(r.vars)
	for k := len(pos) - 1; k >= 0; k-- {
		col := r.nodes[pos[k]:]
		var bits graph.Node
		for i := range r.n {
			bits |= col[i*w]
		}
		for shift := 0; bits>>shift != 0; shift += 8 {
			var count [256]int32
			for _, i := range perm {
				count[byte(col[int(i)*w]>>shift)]++
			}
			if count[byte(col[int(perm[0])*w]>>shift)] == int32(r.n) {
				continue
			}
			var sum int32
			for b, c := range count {
				count[b] = sum
				sum += c
			}
			for _, i := range perm {
				b := byte(col[int(i)*w] >> shift)
				tmp[count[b]] = i
				count[b]++
			}
			perm, tmp = tmp, perm
		}
	}
	return perm
}

// release makes everything the arena handed out available to the next
// evaluation. Storage past the pooled-scratch budget is dropped, and no
// witness path of the last result stays referenced.
func (a *joinArena) release() {
	for _, r := range a.rels[:a.nrels] {
		if r.oversized() {
			*r = varRelation{}
		}
		r.reset(nil, nil)
	}
	for _, s := range a.sets[:a.nsets] {
		if len(s.slots) > maxPooledScratch {
			*s = rowSet{}
		}
	}
	for _, x := range a.idx[:a.nidx] {
		if x.oversized() {
			*x = rowIndex{}
		}
		x.rel = nil
	}
	a.nrels, a.nsets, a.nidx = 0, 0, 0
	clear(a.paths[:cap(a.paths)])
	a.root[0] = nil
	a.nodes, a.ints = capped(a.nodes), capped(a.ints)
	a.order = [2][]int32{capped(a.order[0]), capped(a.order[1])}
	a.paths = a.paths[:0]
	a.vars, a.pvars = a.vars[:0], a.pvars[:0]
}

// elimination records one GYO ear removal: child is folded into parent;
// parent == -1 marks a root left at the end.
type elimination struct{ child, parent int }

// gyoOrder runs the GYO reduction on the hypergraph whose hyperedges
// are the given variable sets. It reports α-acyclicity and the
// elimination order. An ear that shares nothing fits any parent, so
// unconnected relations are folded too and an acyclic order ends in
// exactly one root.
//
// Ears are removed in sweeps in index order. With head set, before every
// removal, the ears that are silent into a parent — that bring it no head
// variable, neither of their own nor from an ear folded into them — are
// folded first: such a fold only filters the parent, which the semijoins
// have already done, so it reads none of the ear's rows, and the relations
// that carry the head are left to be the parents. On Ans(x,y) <- (x,p1,y),
// (x,p2,z) the (x,z) relation folds into (x,y), not the other way round.
func gyoOrder(varSets [][]NodeVar, head []NodeVar) (bool, []elimination) {
	n := len(varSets)
	varsOf := make([]map[NodeVar]bool, n)
	// alive, and loud: an ear folded into the relation brought it a head
	// variable.
	flags := make([]bool, 2*n)
	alive, loud := flags[:n], flags[n:]
	for i, vs := range varSets {
		varsOf[i] = map[NodeVar]bool{}
		for _, v := range vs {
			varsOf[i][v] = true
		}
		alive[i] = true
	}
	silent := func(i, j int) bool {
		if loud[i] {
			return false
		}
		for _, v := range head {
			if varsOf[i][v] && !varsOf[j][v] {
				return false
			}
		}
		return true
	}
	// ear returns the first live j ≠ i that accept admits (nil admits
	// every j) and that holds every variable of i some other live relation
	// shares, or -1.
	ear := func(i int, accept func(i, j int) bool) int {
		shared := func(v NodeVar) bool {
			for k := 0; k < n; k++ {
				if k != i && alive[k] && varsOf[k][v] {
					return true
				}
			}
			return false
		}
		for j := 0; j < n; j++ {
			if j == i || !alive[j] || accept != nil && !accept(i, j) {
				continue
			}
			if !slices.ContainsFunc(varSets[i], func(v NodeVar) bool { return !varsOf[j][v] && shared(v) }) {
				return j
			}
		}
		return -1
	}
	var elims []elimination
	remaining := n
	fold := func(i, j int) {
		loud[j] = loud[j] || !silent(i, j)
		elims = append(elims, elimination{child: i, parent: j})
		alive[i] = false
		remaining--
	}
	foldSilent := func() {
		for found := len(head) > 0; found; {
			found = false
			for i := 0; i < n && remaining > 1; i++ {
				if alive[i] {
					if j := ear(i, silent); j >= 0 {
						fold(i, j)
						found = true
					}
				}
			}
		}
	}
	for remaining > 1 {
		before := remaining
		for i := 0; i < n && remaining > 1; i++ {
			if foldSilent(); !alive[i] || remaining == 1 {
				continue
			}
			if j := ear(i, nil); j >= 0 {
				fold(i, j)
			}
		}
		if remaining == before {
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

// yannakakisReduce runs the Yannakakis algorithm up to its root:
// bottom-up and top-down semijoins, then bottom-up joins, each projected
// onto the columns something still reads. Component relations are
// filtered in place and rels[parent] is replaced by each fold's result;
// the root is returned projected onto keep.
//
// A subtree that brings its parent no kept column and no witness — none
// of its relations does — adds nothing to the output: its fold only
// filters the parent, which the bottom-up semijoins have done, and reads
// none of its rows. The top-down semijoin into it is skipped.
func (a *joinArena) yannakakisReduce(ctx context.Context, rels []*varRelation, elims []elimination, keep []NodeVar) (*varRelation, error) {
	for _, e := range elims {
		if e.parent >= 0 {
			a.semijoin(rels[e.parent], rels[e.child])
		}
	}
	for i := len(elims) - 1; i >= 0; i-- {
		if elims[i].parent >= 0 && foldAdds(rels, elims, i, keep) {
			a.semijoin(rels[elims[i].child], rels[elims[i].parent])
		}
	}
	inKeep := func(v NodeVar) bool { return slices.Contains(keep, v) }
	// Phase 3: projected joins child→parent in elimination order.
	var root *varRelation
	for k, e := range elims {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.parent < 0 {
			root = a.projectRelation(rels[e.child], inKeep)
			continue
		}
		// A parent column outlives the fold only if the head keeps it or a
		// relation still to be folded shares it. (By the ear property no
		// such relation shares a column the parent gained from a child.)
		wanted := func(v NodeVar) bool {
			if inKeep(v) {
				return true
			}
			for _, later := range elims[k+1:] {
				if later.child != e.parent && slices.Index(rels[later.child].vars, v) >= 0 {
					return true
				}
			}
			return false
		}
		pj, err := a.projectJoin(ctx, rels[e.parent], rels[e.child], inKeep, wanted)
		if err != nil {
			return nil, err
		}
		rels[e.parent] = pj
	}
	return root, nil
}

// foldAdds reports whether fold k of elims brings its parent something
// the output reads: a witness, or a column of keep the parent lacks, of
// the child's own or through a fold into the child. It reads the
// relations' columns as they are before the folds.
func foldAdds(rels []*varRelation, elims []elimination, k int, keep []NodeVar) bool {
	e := elims[k]
	c, p := rels[e.child], rels[e.parent]
	if len(c.pvars) > 0 || slices.ContainsFunc(c.vars, func(v NodeVar) bool { return slices.Contains(keep, v) && slices.Index(p.vars, v) < 0 }) {
		return true
	}
	for j := range k {
		if elims[j].parent == e.child && foldAdds(rels, elims, j, keep) {
			return true
		}
	}
	return false
}

// positions fills dst with the column index in of of each of vars (-1 if
// absent).
func positions(dst []int, vars, of []NodeVar) []int {
	for i, v := range vars {
		dst[i] = slices.Index(of, v)
	}
	return dst
}

// gather copies the row's values at the given column positions into dst.
func gather(dst, row []graph.Node, pos []int) {
	for k, p := range pos {
		dst[k] = row[p]
	}
}

// projectRelation projects r onto the columns want admits, in r's column
// and row order, deduplicating (shortest witnesses win). It is the one
// projection routine of the join layer. A projection that drops no column
// cannot create a duplicate and returns r itself.
func (a *joinArena) projectRelation(r *varRelation, want func(NodeVar) bool) *varRelation {
	if !slices.ContainsFunc(r.vars, func(v NodeVar) bool { return !want(v) }) {
		return r
	}
	cols, pos := carve(&a.vars, len(r.vars))[:0], carve(&a.ints, len(r.vars))[:0]
	for i, v := range r.vars {
		if want(v) {
			cols = append(cols, v)
			pos = append(pos, i)
		}
	}
	out := a.relation(cols, r.pvars)
	seen := a.set()
	tup := carve(&a.nodes, len(pos))
	for i := 0; i < r.n; i++ {
		gather(tup, r.row(i), pos)
		seen.put(out, tup, r.witness(i))
	}
	return out
}

// projectJoin folds child into parent: parent ⋈ child projected onto the
// parent columns wanted admits plus the kept columns only the child has.
// It must run after the semijoin phases (every parent row has a partner).
//
// Both sides are projected before they are paired — the child onto what
// the parent shares or the head keeps, the parent onto what is wanted or
// the child shares — so the pairing enumerates no combination twice, and
// the output needs a dedup only when a join column is dropped from it.
// Each pre-projection folds rows that would have produced colliding
// output rows anyway, at the position of the first of them, so witnesses
// are merged exactly as a dedup of the unprojected pairing in (parent
// row, child row) order would: strictly shorter wins, else first seen.
func (a *joinArena) projectJoin(ctx context.Context, parent, child *varRelation, keep, wanted func(NodeVar) bool) (*varRelation, error) {
	inParent := func(v NodeVar) bool { return slices.Index(parent.vars, v) >= 0 }
	gains := len(child.pvars) > 0
	for _, v := range child.vars {
		gains = gains || keep(v) && !inParent(v)
	}
	if !gains {
		// The child only filters, and the semijoins already did that.
		return a.projectRelation(parent, wanted), nil
	}
	child = a.projectRelation(child, func(v NodeVar) bool { return keep(v) || inParent(v) })
	shared := carve(&a.vars, len(child.vars))[:0]
	childCols := carve(&a.ints, len(child.vars))[:0] // child columns the output gains
	for i, v := range child.vars {
		if inParent(v) {
			shared = append(shared, v)
		} else {
			childCols = append(childCols, i)
		}
	}
	parent = a.projectRelation(parent, func(v NodeVar) bool { return wanted(v) || slices.Index(child.vars, v) >= 0 })
	np := len(parent.pvars)
	pvars := carve(&a.pvars, np+len(child.pvars))
	copy(pvars[copy(pvars, parent.pvars):], child.pvars)
	vars := carve(&a.vars, len(parent.vars)+len(childCols))[:0]
	parentCols := carve(&a.ints, len(parent.vars))[:0]
	for i, v := range parent.vars {
		if wanted(v) {
			vars = append(vars, v)
			parentCols = append(parentCols, i)
		}
	}
	for _, c := range childCols {
		vars = append(vars, child.vars[c])
	}
	out := a.relation(vars, pvars)
	dedup := len(parentCols) < len(parent.vars)
	index := a.index(child, a.positions(shared, child.vars))
	parentShared := a.positions(shared, parent.vars)
	key := carve(&a.nodes, len(shared))
	tup := carve(&a.nodes, len(vars))
	w := carve(&a.paths, len(pvars))
	seen := a.set()
	for ri := 0; ri < parent.n; ri++ {
		if ri&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rp := parent.row(ri)
		gather(key, rp, parentShared)
		gather(tup, rp, parentCols)
		copy(w, parent.witness(ri))
		for ci := index.first(key); ci >= 0; ci = index.after(ci) {
			gather(tup[len(parentCols):], child.row(ci), childCols)
			copy(w[np:], child.witness(ci))
			if dedup {
				seen.put(out, tup, w)
			} else {
				out.add(tup, w)
			}
		}
	}
	return out, nil
}

// semijoin keeps only the rows of r that agree with some row of b on
// their shared variables, compacting r in place.
func (a *joinArena) semijoin(r, b *varRelation) {
	shared := carve(&a.vars, len(r.vars))[:0]
	for _, v := range r.vars {
		if slices.Index(b.vars, v) >= 0 {
			shared = append(shared, v)
		}
	}
	if len(shared) == 0 {
		if b.n == 0 {
			r.truncate(0)
		}
		return
	}
	index := a.index(b, a.positions(shared, b.vars))
	rPos := a.positions(shared, r.vars)
	key := carve(&a.nodes, len(shared))
	kept := 0
	for i := 0; i < r.n; i++ {
		gather(key, r.row(i), rPos)
		if index.first(key) < 0 {
			continue
		}
		if kept != i {
			copy(r.row(kept), r.row(i))
			copy(r.witness(kept), r.witness(i))
		}
		kept++
	}
	r.truncate(kept)
}

// joinEnum enumerates the natural join of a set of relations by
// backtracking with hash indexes on the variables shared with the
// already-joined prefix. It is the execution half shared by the
// materializing backtrackJoin and the streaming executor: run invokes
// the callback once per satisfying assignment (projected onto the kept
// columns, duplicates included — callers deduplicate), stopping early
// when the callback returns false — and after the first assignment when
// no column is kept: every further one would be its duplicate.
type joinEnum struct {
	plan      []indexedRel
	keepCols  []NodeVar
	keepSlots []int
	bindVars  []NodeVar
	pathCols  []PathVar // the relations' witness columns, in plan order
}

// indexedRel is one relation of the enumeration. Its columns split into
// those shared with the prefix — the key of its index, probed with the
// binding's keySlots — and the fresh ones, which a row of it writes to
// the binding's freshSlots.
type indexedRel struct {
	rel        *varRelation
	index      *rowIndex
	keySlots   []int
	fresh      []int
	freshSlots []int
	pathAt     int // where rel.pvars start in pathCols
}

// newJoinEnum indexes the relations for enumeration, on indexes of the
// arena. Global binding slots are assigned per distinct variable in
// first-seen order; the kept columns are keep ∩ (all variables), in that
// same order.
func (a *joinArena) newJoinEnum(rels []*varRelation, keep []NodeVar) *joinEnum {
	je := &joinEnum{}
	slotOf := map[NodeVar]int{}
	je.plan = make([]indexedRel, len(rels))
	for i, r := range rels {
		p := indexedRel{rel: r, pathAt: len(je.pathCols)}
		var sharedPos []int
		for j, v := range r.vars {
			if s, ok := slotOf[v]; ok {
				sharedPos = append(sharedPos, j)
				p.keySlots = append(p.keySlots, s)
				continue
			}
			s := len(je.bindVars)
			slotOf[v] = s
			je.bindVars = append(je.bindVars, v)
			p.fresh = append(p.fresh, j)
			p.freshSlots = append(p.freshSlots, s)
			if slices.Contains(keep, v) {
				je.keepCols = append(je.keepCols, v)
				je.keepSlots = append(je.keepSlots, s)
			}
		}
		p.index = a.index(r, sharedPos)
		je.plan[i] = p
		je.pathCols = append(je.pathCols, r.pvars...)
	}
	return je
}

// run enumerates the join. each receives the node tuple (in keepCols
// order) and the witnesses (in pathCols order) of one assignment — both
// transient, callees must copy — and returns false to stop the
// enumeration. Cancellation of ctx is checked periodically; run returns
// ctx.Err() when it fired.
//
// All scratch is sized here, once: the binding, the output buffers and
// one probe key per depth. A row binds exactly its relation's fresh
// columns — the shared ones are the probe key, bound by the prefix — so
// deeper levels overwrite their slots and nothing is undone on the way
// back.
func (je *joinEnum) run(ctx context.Context, each func(nodes []graph.Node, paths []graph.Path) bool) error {
	binding := make([]graph.Node, len(je.bindVars))
	paths := make([]graph.Path, len(je.pathCols))
	rowBuf := make([]graph.Node, len(je.keepCols))
	keys := make([][]graph.Node, len(je.plan))
	for i, p := range je.plan {
		keys[i] = make([]graph.Node, len(p.keySlots))
	}
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
			gather(rowBuf, binding, je.keepSlots)
			if !each(rowBuf, paths) || len(je.keepCols) == 0 {
				done = true
			}
			return
		}
		p := &je.plan[i]
		gather(keys[i], binding, p.keySlots)
		for ri := p.index.first(keys[i]); ri >= 0 && !done; ri = p.index.after(ri) {
			row := p.rel.row(ri)
			for k, j := range p.fresh {
				binding[p.freshSlots[k]] = row[j]
			}
			copy(paths[p.pathAt:], p.rel.witness(ri))
			rec(i + 1)
		}
	}
	rec(0)
	return ctxErr
}

// backtrackJoin materializes the natural join, deduplicating on the
// kept columns (shortest witnesses win). For Boolean queries (no kept
// columns) the enumeration stops at the first satisfying assignment.
func (a *joinArena) backtrackJoin(ctx context.Context, rels []*varRelation, keep []NodeVar) (*varRelation, error) {
	je := a.newJoinEnum(rels, keep)
	out := a.relation(je.keepCols, je.pathCols)
	seen := a.set()
	err := je.run(ctx, func(nodes []graph.Node, paths []graph.Path) bool {
		seen.put(out, nodes, paths)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
