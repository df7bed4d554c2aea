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
// Relations over TupleSym.

// CompileClassAtoms builds the label-space partition of a component and
// compiles every atom against it, so that the component's joint runner
// takes class runes as symbols and its live sets name classes. Every
// component compiles this way; one without character classes gets the
// singleton cells of its own alphabet, and labels outside it fall into
// the dead class. The partition's cells are built from
//
//   - every literal label of a class-bearing AST and every rune in a
//     non-class relation's alphabet, each a singleton cell, so those
//     transitions keep distinguishing exactly their own label;
//   - every class range, split at its boundaries (nex's insertLimits),
//     so each class expression is an exact union of cells; a negated
//     class or wildcard adds the wild bucket. A relation in class form
//     (el, lt, le, nonempty2) adds its classes — Σ as one class, not |Σ|
//     labels.
//
// Class-bearing atoms are recompiled from their AST (literal → its
// cell's class, class expr → alternation over its covered classes), and
// atoms in class form from their class automaton (each class rune → each
// of its covered classes: for el over a partition of k cells, k²
// transitions). Automaton-backed atoms keep their automaton on raw
// labels: the runner decodes a class to a representative label of its
// cell when it registers a symbol (AddSym), and encodes the automaton's
// live labels as classes, which is exact because all their runes sit in
// singleton cells.
//
// The relations in refine add their distinctions to the partition and
// nothing else: a caller that runs the joint against another query's
// relations (containment's canonical databases) refines by them, so
// that a class's members behave alike in both queries.
func CompileClassAtoms(atoms []Atom, refine ...*Relation) (*regex.Partition, []Atom, error) {
	var b regex.PartitionBuilder
	for i := range len(atoms) + len(refine) {
		var rel *Relation
		if i < len(atoms) {
			rel = atoms[i].Rel
		} else {
			rel = refine[i-len(atoms)]
		}
		switch {
		case rel.cls != nil:
			for _, c := range rel.cls.classes {
				b.AddClass(c)
			}
		case rel.Lang != nil && regex.HasClass(rel.Lang):
			b.AddNode(rel.Lang)
		case rel.A == nil:
			return nil, nil, fmt.Errorf("relations: atom %s has neither automaton nor language AST", rel.Name)
		default:
			rel.A.EachSymbol(func(sym TupleSym) {
				for _, r := range sym {
					b.AddLabel(r)
				}
			})
		}
	}
	part := b.Build()
	out := make([]Atom, len(atoms))
	for i, at := range atoms {
		switch {
		case at.Rel.cls != nil:
			out[i] = Atom{Rel: &Relation{
				Name:       at.Rel.Name,
				Arity:      at.Rel.Arity,
				A:          at.Rel.cls.compile(part),
				cls:        at.Rel.cls,
				classSpace: true,
			}, Pos: at.Pos}
		case at.Rel.Lang == nil || !regex.HasClass(at.Rel.Lang):
			out[i] = Atom{Rel: at.Rel, Pos: at.Pos, part: part}
		default:
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
		}
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
