package relations

import (
	"repro/internal/automata"
	"repro/internal/regex"
)

// This file is the class-level form of the relations that read their
// labels only through a class: el, lt and le compare path lengths and
// never tell two labels of Σ apart. Spelled over labels, el is one
// transition per label pair, |Σ|² of them, and every label of Σ becomes
// a singleton cell of the component's partition. In class form it is one
// transition per class tuple — (Σ, Σ) for el — and the class compile
// (CompileClassAtoms) hands Σ to the partition as one class, whose cells
// the class tuples lift to. Code that reads labels off the automaton
// expands the form (Expand); the evaluator never does.

// classForm is a synchronous automaton whose tuple-symbol components are
// class runes or ⊥: rune i stands for every label of classes[i-1]. The
// classes are positive (no negation), so each names a finite label set.
type classForm struct {
	classes []*regex.ClassExpr
	a       *automata.NFA[TupleSym]
}

// sigmaSym is the class rune of Σ in the length relations' forms, whose
// only class is Σ.
const sigmaSym rune = 1

// lengthForm returns the class form of a length relation over sigma: its
// only class is Σ, and its automaton has the given number of states,
// state 0 the start. Runs of consecutive labels join into one range as
// they come, so a sorted alphabet costs a few ranges, not one per label.
func lengthForm(sigma []rune, states int) *classForm {
	var rs []regex.Range
	for _, a := range sigma {
		if n := len(rs); n > 0 && rs[n-1].Hi+1 == a {
			rs[n-1].Hi = a
		} else if a != Bot {
			rs = append(rs, regex.Range{Lo: a, Hi: a})
		}
	}
	n := automata.NewNFA[TupleSym]()
	n.AddStates(states)
	n.SetStart(0)
	return &classForm{classes: []*regex.ClassExpr{{Ranges: regex.NormalizeRanges(rs)}}, a: n}
}

// lift returns the automaton with every class rune of a symbol replaced,
// in turn, by each rune of choice[class rune] (choice[0] is ⊥'s): one
// transition per tuple of choices. States, ε-edges, start and accepting
// states are kept as they are.
func (f *classForm) lift(choice [][]rune) *automata.NFA[TupleSym] {
	out := automata.NewNFA[TupleSym]()
	out.AddStates(f.a.NumStates())
	for _, s := range f.a.Start() {
		out.SetStart(s)
	}
	var cs, buf []rune
	var idx []int
	for q := 0; q < f.a.NumStates(); q++ {
		out.SetFinal(q, f.a.IsFinal(q))
		for _, r := range f.a.EpsSuccessors(q) {
			out.AddEps(q, r)
		}
		f.a.TransitionsFrom(q, func(sym TupleSym, to int) {
			cs = append(cs[:0], []rune(sym)...)
			buf = append(buf[:0], cs...)
			idx = idx[:0]
			for _, c := range cs {
				if len(choice[c]) == 0 {
					return
				}
				idx = append(idx, 0)
			}
			for {
				for i, c := range cs {
					buf[i] = choice[c][idx[i]]
				}
				out.AddTransition(q, string(buf), to)
				i := len(cs) - 1
				for ; i >= 0; i-- {
					if idx[i]++; idx[i] < len(choice[cs[i]]) {
						break
					}
					idx[i] = 0
				}
				if i < 0 {
					return
				}
			}
		})
	}
	return out
}

// expand is the label-level automaton of the form: each class rune
// replaced by every label of its class.
func (f *classForm) expand() *automata.NFA[TupleSym] {
	choice := make([][]rune, len(f.classes)+1)
	choice[0] = []rune{Bot}
	for i, c := range f.classes {
		for _, rg := range c.Ranges {
			for a := rg.Lo; a <= rg.Hi; a++ {
				choice[i+1] = append(choice[i+1], a)
			}
		}
	}
	return f.lift(choice)
}

// compile is the automaton of the form over the classes of part, which
// refines every class of the form (CompileClassAtoms added them).
func (f *classForm) compile(part *regex.Partition) *automata.NFA[TupleSym] {
	choice := make([][]rune, len(f.classes)+1)
	choice[0] = []rune{Bot}
	for i, c := range f.classes {
		choice[i+1] = part.ClassesOf(c)
	}
	return f.lift(choice)
}

// accepts runs the form on a convolution word: a transition on a class
// tuple reads every label tuple whose components its classes contain,
// ⊥ reading ⊥ only.
func (f *classForm) accepts(word []TupleSym) bool {
	cur := f.a.EpsClosure(f.a.Start())
	var next []int
	for _, sym := range word {
		next = next[:0]
		for _, q := range cur {
			f.a.TransitionsFrom(q, func(cs TupleSym, to int) {
				if f.reads(cs, sym) {
					next = append(next, to)
				}
			})
		}
		if len(next) == 0 {
			return false
		}
		cur = f.a.EpsClosure(next)
	}
	for _, q := range cur {
		if f.a.IsFinal(q) {
			return true
		}
	}
	return false
}

// reads reports whether the class tuple cs reads the label tuple sym.
func (f *classForm) reads(cs, sym TupleSym) bool {
	labels := []rune(sym)
	i := 0
	for _, c := range cs {
		if i == len(labels) {
			return false
		}
		a := labels[i]
		i++
		if c == Bot {
			if a != Bot {
				return false
			}
		} else if !f.classes[c-1].Contains(a) {
			return false
		}
	}
	return i == len(labels)
}

// labelRanges returns the labels coordinate i of the form reads, as
// normalized ranges with ⊥ included when the coordinate pads.
func (f *classForm) labelRanges(i int) []regex.Range {
	var rs []regex.Range
	f.a.EachSymbol(func(sym TupleSym) {
		c := []rune(sym)[i]
		if c == Bot {
			rs = append(rs, regex.Range{Lo: Bot, Hi: Bot})
		} else {
			rs = append(rs, f.classes[c-1].Ranges...)
		}
	})
	return regex.NormalizeRanges(rs)
}

// Expand returns r with its label-level automaton in A: r itself, unless
// r is in class form (EqualLength, ShorterLen, ShorterEqLen), whose
// expansion has one transition per tuple of labels its class tuples read
// — for el, one per pair of labels of Σ. The expansions of el and lt are
// the automata they were built as before they had a class form; le's is
// the same language in two states, where it was the union of lt's and
// el's. NewJoint, the boolean combinators and the length abstraction
// read labels off A and expand; the evaluator's class compile never
// does.
func (r *Relation) Expand() *Relation {
	if r.cls == nil {
		return r
	}
	return &Relation{Name: r.Name, Arity: r.Arity, A: r.cls.expand()}
}

// LabelRanges over-approximates the labels coordinate i of r can read,
// as normalized ranges. A relation in class form reads its classes' ranges;
// a language with character classes the labels and ranges of its AST;
// any other relation the labels of its automaton, ⊥ included when the
// coordinate pads. universal=true means a negated class or wildcard:
// the set is cofinite, and the coordinate is not constrained.
func (r *Relation) LabelRanges(i int) (rs []regex.Range, universal bool) {
	switch {
	case r.cls != nil:
		return r.cls.labelRanges(i), false
	case r.A == nil:
		return regex.LabelRanges(r.Lang)
	}
	var labels regex.RuneSet
	r.A.EachSymbol(func(sym TupleSym) {
		k := 0
		for _, a := range sym {
			if k == i {
				labels.Add(a)
				break
			}
			k++
		}
	})
	for _, a := range labels.Sorted() {
		if n := len(rs); n > 0 && rs[n-1].Hi+1 == a {
			rs[n-1].Hi = a
		} else {
			rs = append(rs, regex.Range{Lo: a, Hi: a})
		}
	}
	return rs, false
}
