package relations

import "repro/internal/intern"

// JointRunner is the dense-integer execution engine for a Joint. The
// plain Joint.Step API re-serializes subset-states into string keys and
// re-runs NFA subset stepping on every call; on the product-BFS hot path
// the same (state, symbol) pairs recur constantly — once per product
// node that shares the joint coordinate. The runner interns:
//
//   - joint states to dense ids (per-atom subset sets interned first, so
//     a state is a tiny int tuple: done-mask plus one set id per atom),
//   - m-tuple symbols to dense ids, with the padding mask and each
//     atom's column for the symbol's projection fixed at registration
//     time, so a subset step runs on integers (step.go),
//   - (stateID, symID) → stateID transitions in a memo table, so
//     repeated symbols never re-run subset stepping at all.
//
// A JointRunner is not safe for concurrent use.
type JointRunner struct {
	J *Joint

	steps   []atomStep      // per atom: the integer subset step
	subsets []*intern.Table // per atom: interned sorted NFA subset sets
	states  *intern.Table   // joint states: (done, setID per atom)
	accept  []int8          // memoized acceptance: 0 unknown, 1 yes, 2 no
	trans   [][]int32       // trans[state][sym]: 0 unknown, -1 dead, else next+1

	symRunes [][]rune
	symInfo  []symInfo

	// live holds the per-atom co-reachability and live-label analysis;
	// liveTab memoizes Live per joint state (see live.go).
	live    []atomLiveInfo
	liveTab [][]LiveSet

	startID int
	tupBuf  []int
}

type symInfo struct {
	botMask uint64  // bit i set: component i is ⊥
	cols    []int32 // per atom: the column of the projection onto its tapes
}

// NewJointRunner returns a runner for j with the start state interned as
// id 0.
func NewJointRunner(j *Joint) *JointRunner {
	r := &JointRunner{
		J:       j,
		steps:   make([]atomStep, len(j.Atoms)),
		subsets: make([]*intern.Table, len(j.Atoms)),
		states:  intern.NewTable(0),
		live:    make([]atomLiveInfo, len(j.Atoms)),
	}
	tup := make([]int, 0, 1+len(j.Atoms))
	tup = append(tup, 0) // done mask
	for i, at := range j.Atoms {
		r.subsets[i] = intern.NewTable(0)
		r.live[i] = newAtomLiveInfo(at.Rel.A, len(at.Pos), at.part)
		r.steps[i] = newAtomStep(at.Rel.A, r.live[i].coReach)
		id, _ := r.subsets[i].Intern(at.Rel.A.EpsClosure(at.Rel.A.Start()))
		tup = append(tup, id)
	}
	r.startID, _ = r.states.Intern(tup)
	r.trans = append(r.trans, nil)
	r.accept = append(r.accept, 0)
	r.liveTab = append(r.liveTab, nil)
	r.tupBuf = make([]int, 0, 1+len(j.Atoms))
	return r
}

// StartID returns the dense id of the initial joint state.
func (r *JointRunner) StartID() int { return r.startID }

// NumStates returns the number of interned joint states.
func (r *JointRunner) NumStates() int { return r.states.Len() }

// NumSyms returns the number of registered symbols.
func (r *JointRunner) NumSyms() int { return len(r.symRunes) }

// AddSym registers the m-tuple symbol given by its component runes and
// returns its dense id. The caller is responsible for registering each
// distinct symbol once (typically behind its own interning table); the
// runes are copied. The padding mask and each atom's column for the
// symbol's projection are fixed here, so Step never touches runes again;
// an atom that keeps its automaton on raw labels (Atom.part) projects
// each class onto a representative label of its cell.
func (r *JointRunner) AddSym(labels []rune) int {
	if len(labels) != r.J.M {
		panic("relations: AddSym arity mismatch")
	}
	id := len(r.symRunes)
	cp := append([]rune(nil), labels...)
	r.symRunes = append(r.symRunes, cp)
	info := symInfo{cols: make([]int32, len(r.J.Atoms))}
	for i, c := range cp {
		if c == Bot {
			info.botMask |= 1 << i
		}
	}
	proj := make([]rune, 0, 8)
	for ai, at := range r.J.Atoms {
		proj = proj[:0]
		allBot := true
		for _, p := range at.Pos {
			c := cp[p]
			if c != Bot {
				allBot = false
				if at.part != nil {
					c = at.part.Label(c)
				}
			}
			proj = append(proj, c)
		}
		info.cols[ai] = colAllBot
		if !allBot {
			info.cols[ai] = r.steps[ai].column(proj)
		}
	}
	r.symInfo = append(r.symInfo, info)
	return id
}

// SymRunes returns the component runes of symbol id (shared; do not
// modify).
func (r *JointRunner) SymRunes(id int) []rune { return r.symRunes[id] }

// Step advances joint state by symbol, both as dense ids. ok = false
// means the symbol leads to a dead state. Results are memoized: the
// subset stepping behind a (state, sym) pair runs at most once for the
// lifetime of the runner. A state's memo row spans the registered
// symbols; its capacity grows geometrically, so a run that registers
// symbols as it goes reallocates each row O(log NumSyms) times, not once
// per symbol. Entries past a row's length are zero: only entries below it
// are ever written.
func (r *JointRunner) Step(state, sym int) (int, bool) {
	row := r.trans[state]
	if sym < len(row) {
		if v := row[sym]; v != 0 {
			if v < 0 {
				return 0, false
			}
			return int(v - 1), true
		}
	} else {
		n := len(r.symRunes)
		if n <= cap(row) {
			row = row[:n]
		} else {
			grown := make([]int32, n, max(2*cap(row), n))
			copy(grown, row)
			row = grown
		}
		r.trans[state] = row
	}
	next, ok := r.step(state, sym)
	if !ok {
		row[sym] = -1
		return 0, false
	}
	row[sym] = int32(next + 1)
	return next, true
}

func (r *JointRunner) step(state, sym int) (int, bool) {
	// r.states.At aliases table storage, but nothing is appended to the
	// state table until the final Intern below, so reading tup throughout
	// the loop is safe.
	tup := r.states.At(state)
	done := uint64(tup[0])
	info := &r.symInfo[sym]
	nonBot := ^info.botMask
	if r.J.M < 64 {
		nonBot &= (1 << r.J.M) - 1
	}
	if nonBot == 0 {
		return 0, false // all-⊥ symbol
	}
	if done&nonBot != 0 {
		return 0, false // non-⊥ after padding started
	}
	newTup := r.tupBuf[:0]
	newTup = append(newTup, int(done|info.botMask))
	for ai := range r.J.Atoms {
		setID := tup[1+ai]
		col := info.cols[ai]
		switch col {
		case colAllBot:
			// The atom's tapes have all finished; its automaton does not
			// consume the all-⊥ projection (its convolution has ended).
			newTup = append(newTup, setID)
			continue
		case colDead:
			return 0, false
		}
		stepped, ok := r.steps[ai].step(r.subsets[ai].At(setID), col)
		if !ok {
			// Empty, or dead-state elimination: no member of the stepped
			// subset can reach acceptance, so the whole joint state is
			// stillborn.
			return 0, false
		}
		nid, _ := r.subsets[ai].Intern(stepped)
		newTup = append(newTup, nid)
	}
	r.tupBuf = newTup
	next, added := r.states.Intern(newTup)
	if added {
		r.trans = append(r.trans, nil)
		r.accept = append(r.accept, 0)
		r.liveTab = append(r.liveTab, nil)
	}
	return next, true
}

// Accepting reports whether joint state id is accepting, memoized.
func (r *JointRunner) Accepting(state int) bool {
	if v := r.accept[state]; v != 0 {
		return v == 1
	}
	tup := r.states.At(state)
	for ai, at := range r.J.Atoms {
		ok := false
		for _, q := range r.subsets[ai].At(tup[1+ai]) {
			if at.Rel.A.IsFinal(q) {
				ok = true
				break
			}
		}
		if !ok {
			r.accept[state] = 2
			return false
		}
	}
	r.accept[state] = 1
	return true
}
