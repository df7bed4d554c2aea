package relations

import (
	"cmp"
	"slices"

	"repro/internal/intern"
)

// ClassDFA is the minimal complete transition table of a Joint whose
// atoms read class runes (CompileClassAtoms): the joint DFA the lazy
// JointRunner learns state by state, explored once from the start state,
// trimmed of the states that cannot reach acceptance, minimized, and
// with each tape's classes coarsened to the classes the minimal DFA can
// tell apart. It is immutable once built, so any number of goroutines
// read it without a lock.
//
// A row index names a tuple of coarse classes: Σ cᵢ·Pow[i], where
// ClassMap[i] maps tape i's fine classes — 0 (⊥), the partition's
// classes 1…k and its dead class k+1 — to coarse ones: ⊥ keeps 0, the
// live coarse classes are 1…Classes[i], and Classes[i]+1 is the tape's
// dead class, whose column is dead in every state. A row entry is −1
// when the tuple leads to no state that can accept, and next+1
// otherwise; no entry is 0, so a reader never has to step anything.
// State 0 is the start state.
type ClassDFA struct {
	Pow      []int
	Width    int
	ClassMap [][]rune
	Classes  []int

	// Explored counts the joint states the exploration interned and
	// Minimal the live states of the table (the dead sink not counted);
	// FineClasses is the partition's class count k. They are what Explain
	// prints as before → after.
	Explored, Minimal, FineClasses int

	rows   [][]int32
	accept []bool
	live   [][]LiveSet
}

// StartID returns the start state, 0.
func (d *ClassDFA) StartID() int { return 0 }

// NumStates returns the number of table states: the live ones, or one
// dead start state when nothing the joint reads can accept.
func (d *ClassDFA) NumStates() int { return len(d.rows) }

// Accepting reports whether state q accepts.
func (d *ClassDFA) Accepting(q int) bool { return d.accept[q] }

// Row returns state q's row (shared; do not modify).
func (d *ClassDFA) Row(q int) []int32 { return d.rows[q] }

// Step returns the successor of state q by the coarse tuple at row index
// idx, or ok=false when the tuple is dead.
func (d *ClassDFA) Step(q, idx int) (int, bool) {
	v := d.rows[q][idx]
	return int(v - 1), v > 0
}

// Live returns, per tape, the coarse classes that lead state q to a live
// state — exactly, not as an over-approximation — with Bot set when ⊥
// does. All is never set. The sets are shared; do not modify.
func (d *ClassDFA) Live(q int) []LiveSet { return d.live[q] }

// BuildClassDFA builds the table of j, whose atoms read the classes
// 1…k of a partition (k+1 being its dead class). The exploration steps,
// from each state a lazy runner reaches, only the class tuples in the
// product of the state's live sets; every other tuple is dead by the
// soundness of Live. It gives up, returning nil, once the tuples it has
// stepped pass maxCells, the NFA states those steps scan pass
// scanPerCell·maxCells, or the table would pass maxCells: the joint DFA
// of an intersection of regular expressions is exponential in the query,
// a wide alternation makes every step scan a wide subset, and a lazy
// runner then learns only the part an evaluation touches.
//
// With merge false the table keeps every explored state that can accept
// (it is trimmed and its classes coarsened, but no two states merge);
// the product BFS needs that when it keeps witnesses over several tapes,
// whose per-tape lengths two equivalent states need not share.
func BuildClassDFA(j *Joint, k, maxCells int, merge bool) *ClassDFA {
	m := j.M
	r := NewJointRunner(j)
	tail, sym, head, ok := explore(r, k, maxCells)
	if !ok {
		return nil
	}
	n := r.NumStates()
	final := make([]bool, n)
	for q := range final {
		final[q] = r.Accepting(q)
	}
	co := coReachable(n, final, tail, head)

	// Live states, renumbered densely in discovery order, and the edges
	// between them (an edge into a live state leaves a live one), kept in
	// place.
	dense := make([]int32, n)
	var lfinal []bool
	for q, ok := range co {
		dense[q] = -1
		if ok {
			dense[q] = int32(len(lfinal))
			lfinal = append(lfinal, final[q])
		}
	}
	live := 0
	for e := range tail {
		if co[head[e]] {
			tail[live], sym[live], head[live] = dense[tail[e]], sym[e], dense[head[e]]
			live++
		}
	}
	tail, sym, head = tail[:live], sym[:live], head[:live]
	block := make([]int32, len(lfinal))
	nMin := len(lfinal)
	if merge {
		block, nMin = minimize(lfinal, tail, sym, head)
	} else {
		for i := range block {
			block[i] = int32(i)
		}
	}
	// Number the blocks by their first state, so the start state's block
	// is 0, and keep the edges of each block's first state, in place.
	order := make([]int32, nMin)
	for i := range order {
		order[i] = -1
	}
	next := int32(0)
	isRep := make([]bool, len(lfinal))
	for i, b := range block {
		if order[b] < 0 {
			order[b], isRep[i] = next, true
			next++
		}
	}
	live = 0
	for e := range tail {
		if isRep[tail[e]] {
			tail[live], sym[live], head[live] = order[block[tail[e]]], sym[e], order[block[head[e]]]
			live++
		}
	}
	et, es, eh := tail[:live], sym[:live], head[:live]
	d := &ClassDFA{Explored: n, Minimal: nMin, FineClasses: k}
	d.coarsen(r, m, k, et, es, eh)
	states := max(nMin, 1)
	d.Pow = make([]int, m)
	d.Width = 1
	for i, n := range d.Classes {
		if d.Width > maxCells/(n+2) {
			return nil
		}
		d.Pow[i] = d.Width
		d.Width *= n + 2
	}
	if states > maxCells/d.Width {
		return nil
	}
	flat := make([]int32, states*d.Width)
	for i := range flat {
		flat[i] = -1
	}
	for e := range et {
		idx := 0
		for i, c := range r.SymRunes(int(es[e])) {
			idx += int(d.ClassMap[i][c]) * d.Pow[i]
		}
		flat[int(et[e])*d.Width+idx] = eh[e] + 1
	}
	d.rows = make([][]int32, states)
	d.accept = make([]bool, states)
	for q := range d.rows {
		d.rows[q] = flat[q*d.Width : (q+1)*d.Width : (q+1)*d.Width]
	}
	for i, b := range block {
		d.accept[order[b]] = lfinal[i]
	}
	d.fillLive()
	return d
}

// explore steps r from each state it reaches by every class tuple in the
// product of the state's live sets (⊥ where admitted, every class 1…k+1
// on a tape no atom reads), registering each tuple with r once. It
// returns the steps r did not reject, tail → head by symbol sym, in the
// order it took them, or ok=false once it passes BuildClassDFA's bounds.
func explore(r *JointRunner, k, maxCells int) (tail, sym, head []int32, ok bool) {
	m := r.J.M
	syms := intern.NewTable(0)
	key := make([]int, m)
	cand := make([][]rune, m)
	all := make([]rune, k+1)
	for c := range all {
		all[c] = rune(c + 1)
	}
	pick := make([]int, m)
	tup := make([]rune, m)
	cells, scans := 0, 0
	for q := 0; q < r.NumStates(); q++ {
		live := r.Live(q)
		size := 1
		for i, ls := range live {
			cand[i] = cand[i][:0]
			if ls.Bot {
				cand[i] = append(cand[i], Bot)
			}
			if ls.All {
				cand[i] = append(cand[i], all...)
			} else {
				cand[i] = append(cand[i], ls.Labels...)
			}
			size = min(size*len(cand[i]), maxCells+1)
		}
		cells += size
		if scans += size * r.subsetSize(q); cells > maxCells || scans > scanPerCell*maxCells {
			return nil, nil, nil, false
		}
		if size == 0 {
			continue
		}
		clear(pick)
		for {
			allBot := true
			for i, p := range pick {
				tup[i] = cand[i][p]
				key[i] = int(tup[i])
				allBot = allBot && tup[i] == Bot
			}
			if !allBot {
				id, added := syms.Intern(key)
				if added {
					r.AddSym(tup)
				}
				if next, ok := r.Step(q, id); ok {
					tail, sym, head = append(tail, int32(q)), append(sym, int32(id)), append(head, int32(next))
				}
			}
			i := 0
			for ; i < m; i++ {
				if pick[i]++; pick[i] < len(cand[i]) {
					break
				}
				pick[i] = 0
			}
			if i == m {
				break
			}
		}
	}
	return tail, sym, head, true
}

// scanPerCell bounds the NFA states BuildClassDFA's steps scan, on
// average per stepped tuple.
const scanPerCell = 8

// subsetSize returns the NFA states a step from joint state q scans: the
// members of its atoms' subsets.
func (r *JointRunner) subsetSize(q int) int {
	tup := r.states.At(q)
	n := 0
	for ai := range r.J.Atoms {
		n += len(r.subsets[ai].At(tup[1+ai]))
	}
	return n
}

// coReachable marks the states from which some final state is reachable
// along the edges tail[e] → head[e].
func coReachable(n int, final []bool, tail, head []int32) []bool {
	in := make([]int32, n+1) // in[q] … in[q+1]: the edges into q, in byHead
	for _, h := range head {
		in[h+1]++
	}
	for q := 0; q < n; q++ {
		in[q+1] += in[q]
	}
	byHead := make([]int32, len(head))
	fill := slices.Clone(in[:n])
	for e, h := range head {
		byHead[fill[h]] = int32(e)
		fill[h]++
	}
	co := slices.Clone(final)
	var stack []int32
	for q, f := range final {
		if f {
			stack = append(stack, int32(q))
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range byHead[in[q]:in[q+1]] {
			if p := tail[e]; !co[p] {
				co[p] = true
				stack = append(stack, p)
			}
		}
	}
	return co
}

// coarsen fills ClassMap and Classes from the table's edges (tail et,
// fine tuple symbol es of r, head eh, in table states). Two non-⊥ classes
// of tape i share a coarse class iff their columns agree: for every state
// and every choice of classes on the other tapes they lead to the same
// state. A class with no live edge is the tape's dead class.
func (d *ClassDFA) coarsen(r *JointRunner, m, k int, et, es, eh []int32) {
	d.ClassMap = make([][]rune, m)
	d.Classes = make([]int, m)
	type entry struct{ class, from, ctx, to int32 }
	entries := make([]entry, 0, len(et))
	ctxKey := make([]int, m)
	var sig []int
	for i := range d.ClassMap {
		ctxs, sigs := intern.NewTable(0), intern.NewTable(0)
		entries = entries[:0]
		for e := range et {
			t := r.SymRunes(int(es[e]))
			if t[i] == Bot {
				continue
			}
			for p, c := range t {
				ctxKey[p] = int(c)
			}
			ctxKey[i] = -1
			ctx, _ := ctxs.Intern(ctxKey)
			entries = append(entries, entry{int32(t[i]), et[e], int32(ctx), eh[e]})
		}
		slices.SortFunc(entries, func(a, b entry) int {
			return cmp.Or(cmp.Compare(a.class, b.class), cmp.Compare(a.from, b.from),
				cmp.Compare(a.ctx, b.ctx), cmp.Compare(a.to, b.to))
		})
		cm := make([]rune, k+2)
		for c := range cm {
			cm[c] = -1
		}
		cm[Bot] = Bot
		for lo := 0; lo < len(entries); {
			hi := lo
			sig = sig[:0]
			for ; hi < len(entries) && entries[hi].class == entries[lo].class; hi++ {
				sig = append(sig, int(entries[hi].from), int(entries[hi].ctx), int(entries[hi].to))
			}
			id, _ := sigs.Intern(sig)
			cm[entries[lo].class] = rune(id + 1)
			lo = hi
		}
		n := sigs.Len()
		for c := range cm {
			if cm[c] < 0 {
				cm[c] = rune(n + 1)
			}
		}
		d.ClassMap[i], d.Classes[i] = cm, n
	}
}

// fillLive derives each state's live sets from its row.
func (d *ClassDFA) fillLive() {
	m := len(d.Pow)
	d.live = make([][]LiveSet, len(d.rows))
	seen := make([][]bool, m)
	for i, n := range d.Classes {
		seen[i] = make([]bool, n+2)
	}
	for q, row := range d.rows {
		for i := range seen {
			clear(seen[i])
		}
		for idx, v := range row {
			if v <= 0 {
				continue
			}
			for i := range seen {
				seen[i][idx/d.Pow[i]%(d.Classes[i]+2)] = true
			}
		}
		ls := make([]LiveSet, m)
		for i, s := range seen {
			ls[i].Bot = s[Bot]
			for c := 1; c < len(s); c++ {
				if s[c] {
					ls[i].Labels = append(ls[i].Labels, rune(c))
				}
			}
		}
		d.live[q] = ls
	}
}

// minimize partitions the states of a trimmed DFA (every state reachable
// and co-reachable; a missing transition goes to the implicit dead state)
// into Nerode classes: tail[e] → head[e] by label[e], final marking the
// accepting states. It returns each state's block and the block count.
// This is the O(m log n) partition refinement of Valmari and Lehtinen
// (2008) for partial transition functions: a partition of the states and
// one of the transitions, refined against each other.
func minimize(final []bool, tail, label, head []int32) ([]int32, int) {
	n, m := len(final), len(tail)
	blocks := newRefinable(n)
	for q, f := range final {
		if f {
			blocks.mark(int32(q))
		}
	}
	blocks.split()

	// Cords: the transitions grouped by label.
	cords := newRefinable(m)
	slices.SortFunc(cords.elems, func(a, b int32) int { return cmp.Compare(label[a], label[b]) })
	cords.first, cords.past, cords.marked = cords.first[:0], cords.past[:0], cords.marked[:0]
	for i, t := range cords.elems {
		if i == 0 || label[t] != label[cords.elems[i-1]] {
			if i > 0 {
				cords.past = append(cords.past, int32(i))
			}
			cords.first, cords.marked = append(cords.first, int32(i)), append(cords.marked, 0)
		}
		cords.set[t], cords.loc[t] = int32(len(cords.first)-1), int32(i)
	}
	if m > 0 {
		cords.past = append(cords.past, int32(m))
	}

	in := make([]int32, n+1) // in[q] … in[q+1]: the transitions into q, in byHead
	for _, h := range head {
		in[h+1]++
	}
	for q := 0; q < n; q++ {
		in[q+1] += in[q]
	}
	byHead := make([]int32, m)
	fill := slices.Clone(in[:n])
	for t, h := range head {
		byHead[fill[h]] = int32(t)
		fill[h]++
	}

	for b, c := 1, 0; c < len(cords.first); {
		for _, t := range cords.elems[cords.first[c]:cords.past[c]] {
			blocks.mark(tail[t])
		}
		blocks.split()
		c++
		for ; b < len(blocks.first); b++ {
			for _, q := range blocks.elems[blocks.first[b]:blocks.past[b]] {
				for _, t := range byHead[in[q]:in[q+1]] {
					cords.mark(t)
				}
			}
			cords.split()
		}
	}
	return blocks.set, len(blocks.first)
}

// refinable is a refinable partition of 0…n−1: elems lists the elements
// set by set, set s spanning elems[first[s]:past[s]] with its marked
// elements first (marked[s] of them); loc[e] is e's place in elems and
// set[e] its set. touched lists the sets with marked elements.
type refinable struct {
	elems, loc, set              []int32
	first, past, marked, touched []int32
}

func newRefinable(n int) *refinable {
	p := &refinable{elems: make([]int32, n), loc: make([]int32, n), set: make([]int32, n)}
	for i := range p.elems {
		p.elems[i], p.loc[i] = int32(i), int32(i)
	}
	if n > 0 {
		p.first, p.past, p.marked = []int32{0}, []int32{int32(n)}, []int32{0}
	}
	return p
}

// mark marks e, which must not be marked yet, moving it to the marked
// front of its set.
func (p *refinable) mark(e int32) {
	s := p.set[e]
	i, j := p.loc[e], p.first[s]+p.marked[s]
	p.elems[i] = p.elems[j]
	p.loc[p.elems[i]] = i
	p.elems[j], p.loc[e] = e, j
	if p.marked[s] == 0 {
		p.touched = append(p.touched, s)
	}
	p.marked[s]++
}

// split separates the marked elements of every touched set from the
// unmarked ones: the smaller part becomes a new set, the larger keeps
// the set's index, and every mark is cleared.
func (p *refinable) split() {
	for len(p.touched) > 0 {
		s := p.touched[len(p.touched)-1]
		p.touched = p.touched[:len(p.touched)-1]
		j := p.first[s] + p.marked[s]
		p.marked[s] = 0
		if j == p.past[s] {
			continue
		}
		z := int32(len(p.first))
		if j-p.first[s] <= p.past[s]-j {
			p.first, p.past = append(p.first, p.first[s]), append(p.past, j)
			p.first[s] = j
		} else {
			p.first, p.past = append(p.first, j), append(p.past, p.past[s])
			p.past[s] = j
		}
		p.marked = append(p.marked, 0)
		for _, e := range p.elems[p.first[z]:p.past[z]] {
			p.set[e] = z
		}
	}
}
