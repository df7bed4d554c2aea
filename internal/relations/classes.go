package relations

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/regex"
)

// This file compiles the relation atoms of one query component against
// a shared label-space partition, so the joint runner transitions and
// memoizes on dense class IDs instead of raw labels. Class IDs are
// runes 1..K (⊥ keeps 0), which makes class-space relations ordinary
// Relations over TupleSym and leaves Joint/JointRunner untouched.

// HasClassAtoms reports whether any atom's language AST contains a
// character class — the trigger for class-based compilation. Components
// without class atoms compile exactly as before.
func HasClassAtoms(atoms []Atom) bool {
	for _, at := range atoms {
		if at.Rel.Lang != nil && regex.HasClass(at.Rel.Lang) {
			return true
		}
	}
	return false
}

// CompileClassAtoms builds the label-space partition of a component and
// recompiles every atom over class runes:
//
//   - every literal label of a class-bearing AST and every rune in a
//     non-class relation's alphabet becomes a singleton cell, so those
//     transitions keep distinguishing exactly their own label;
//   - every class range splits the space at its boundaries (nex's
//     insertLimits), so each class expression is an exact union of
//     cells; a negated class or wildcard adds the wild bucket.
//
// Class-bearing atoms are recompiled from their AST (literal → its
// cell's class, class expr → alternation over its covered classes);
// automaton-backed atoms are remapped rune-wise, which is exact because
// all their runes sit in singleton cells. The returned atoms drive the
// joint runner; live-set pruning and move planning translate class IDs
// back to label ranges via the partition.
func CompileClassAtoms(atoms []Atom) (*regex.Partition, []Atom, error) {
	var b regex.PartitionBuilder
	for _, at := range atoms {
		if at.Rel.Lang != nil && regex.HasClass(at.Rel.Lang) {
			b.AddNode(at.Rel.Lang)
			continue
		}
		if at.Rel.A == nil {
			return nil, nil, fmt.Errorf("relations: atom %s has neither automaton nor language AST", at.Rel.Name)
		}
		at.Rel.A.EachSymbol(func(sym TupleSym) {
			for _, r := range sym {
				b.AddLabel(r)
			}
		})
	}
	part := b.Build()
	out := make([]Atom, len(atoms))
	for i, at := range atoms {
		if at.Rel.Lang != nil && regex.HasClass(at.Rel.Lang) {
			lifted, err := liftClassRegex(at.Rel.Lang, part)
			if err != nil {
				return nil, nil, fmt.Errorf("relations: atom %s: %w", at.Rel.Name, err)
			}
			out[i] = Atom{Rel: &Relation{
				Name:       at.Rel.Name,
				Arity:      1,
				A:          automata.FromRegex(lifted),
				Lang:       at.Rel.Lang,
				classSpace: true,
			}, Pos: at.Pos}
			continue
		}
		out[i] = Atom{Rel: &Relation{
			Name:       at.Rel.Name,
			Arity:      at.Rel.Arity,
			A:          remapToClasses(at.Rel.A, part),
			Lang:       at.Rel.Lang,
			classSpace: true,
		}, Pos: at.Pos}
	}
	return part, out, nil
}

// liftClassRegex converts a rune AST with classes to a 1-tuple-symbol
// regex over class runes.
func liftClassRegex(n *regex.Node[rune], part *regex.Partition) (*regex.Node[TupleSym], error) {
	switch n.Op {
	case regex.OpEmpty:
		return regex.None[TupleSym](), nil
	case regex.OpEps:
		return regex.Eps[TupleSym](), nil
	case regex.OpSym:
		if n.Sym == Bot {
			return regex.Lit(TupleSym(string(Bot))), nil
		}
		return regex.Lit(TupleSym(string(part.ClassOf(n.Sym)))), nil
	case regex.OpClass:
		classes := part.ClassesOf(n.Class)
		parts := make([]*regex.Node[TupleSym], len(classes))
		for i, c := range classes {
			parts[i] = regex.Lit(TupleSym(string(c)))
		}
		return regex.Or(parts...), nil
	case regex.OpConcat:
		l, err := liftClassRegex(n.Left, part)
		if err != nil {
			return nil, err
		}
		r, err := liftClassRegex(n.Right, part)
		if err != nil {
			return nil, err
		}
		return regex.Seq(l, r), nil
	case regex.OpAlt:
		l, err := liftClassRegex(n.Left, part)
		if err != nil {
			return nil, err
		}
		r, err := liftClassRegex(n.Right, part)
		if err != nil {
			return nil, err
		}
		return regex.Or(l, r), nil
	case regex.OpStar:
		l, err := liftClassRegex(n.Left, part)
		if err != nil {
			return nil, err
		}
		return regex.Kleene(l), nil
	default:
		return nil, fmt.Errorf("unsupported regex op %d", n.Op)
	}
}

// remapToClasses rewrites a tuple automaton rune-wise into class space:
// every non-⊥ rune of every transition symbol maps to its class. Exact
// because all these runes were added as singles, so each occupies its
// own singleton cell.
func remapToClasses(a *automata.NFA[TupleSym], part *regex.Partition) *automata.NFA[TupleSym] {
	out := automata.NewNFA[TupleSym]()
	out.AddStates(a.NumStates())
	buf := make([]rune, 0, 8)
	a.EachTransition(func(from int, sym TupleSym, to int) {
		buf = buf[:0]
		for _, r := range sym {
			if r == Bot {
				buf = append(buf, Bot)
			} else {
				buf = append(buf, part.ClassOf(r))
			}
		}
		out.AddTransition(from, string(buf), to)
	})
	for q := 0; q < a.NumStates(); q++ {
		for _, to := range a.EpsSuccessors(q) {
			out.AddEps(q, to)
		}
		if a.IsFinal(q) {
			out.SetFinal(q, true)
		}
	}
	for _, s := range a.Start() {
		out.SetStart(s)
	}
	return out
}
