package ecrpq

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/graph"
)

// This file is the forward start-domain propagation pass. The product
// BFS of a component runs once per assignment of the component's start
// variables, and an unbound start variable used to sweep every node of
// the graph — even when a bound variable upstream already confines it.
// For a path atom (x,π,y) whose start x is confined to a node set D, any
// answer maps y into
//
//	post[L](D) = { v : some u ∈ D reaches v along a path labelled in L }
//
// where L is π's own language: the intersection of the relation atoms
// over π alone, Σ* when there are none. Dropping the relations π shares
// with other tapes only enlarges the set, so it is a sound superset of
// the values y takes in any answer; a start assignment outside it can
// produce only rows that join with nothing. One multi-source one-tape
// product BFS per atom computes it, on an engine of the workspace's own
// (one per atom, built on the atom's first firing) and in the engine half
// of the workspace's scratch set; the pass starts from Options.Bind,
// fires each atom at most once (a cycle of atoms just stops), and an
// evaluation in which no bound variable sits upstream of an unbound
// start variable runs no BFS at all. Propagation is forward only: the
// snapshot indexes out-edges, not in-edges.
//
// Options.NoPrune switches the pass off together with the label-directed
// move planning, so the NoPrune oracle stays independent of it.

// propAtom is one path atom (x,π,y) the pass can fire: y ≠ x and y
// starts some path atom, so confining it shrinks a start-assignment
// enumeration. The one-tape relaxation is compiled on the atom's first
// firing in any workspace, not at compile time.
type propAtom struct {
	atom PathAtom

	once sync.Once
	comp *component // nil when the relaxation could not be compiled: the atom never fires
}

// propagationAtoms selects, in atom order, the path atoms whose end
// variable is the start variable of some atom.
func propagationAtoms(pathAtoms []PathAtom) []*propAtom {
	starts := map[NodeVar]bool{}
	for _, a := range pathAtoms {
		starts[a.X] = true
	}
	var out []*propAtom
	for _, a := range pathAtoms {
		if a.X != a.Y && starts[a.Y] {
			out = append(out, &propAtom{atom: a})
		}
	}
	return out
}

// explain renders the atom's propagation rule, naming π's own language
// by the relation atoms over π alone ("Σ*" when there are none).
func (pa *propAtom) explain(relAtoms []RelAtom) string {
	var names []string
	for _, ra := range relAtoms {
		if !slices.ContainsFunc(ra.Args, func(v PathVar) bool { return v != pa.atom.Pi }) {
			names = append(names, ra.Rel.Name)
		}
	}
	lang := "Σ*"
	if len(names) > 0 {
		lang = strings.Join(names, "∩")
	}
	return fmt.Sprintf("%s ⊆ post[%s](%s) when %s is bound or confined", pa.atom.Y, lang, pa.atom.X, pa.atom.X)
}

// domainEngine returns the workspace's engine for prop atom i, building
// it on the atom's first firing in the workspace and compiling the
// relaxation on its first in the program; nil means the atom cannot fire.
func (ws *workspace) domainEngine(i int) *domainEngine {
	if ws.domEngines == nil {
		ws.domEngines = make([]*domainEngine, len(ws.prog.prop))
	}
	if d := ws.domEngines[i]; d != nil {
		return d
	}
	pa := ws.prog.prop[i]
	pa.once.Do(func() {
		// A relaxation that fails to compile (it cannot, once the program
		// itself compiled) costs the pruning, never the evaluation.
		pa.comp, _ = newComponent([]PathAtom{pa.atom}, ws.prog.relAtoms, []PathVar{pa.atom.Pi})
	})
	if pa.comp == nil {
		return nil
	}
	ws.domEngines[i] = newDomainEngine(pa.comp)
	return ws.domEngines[i]
}

// domainEngine is the one-tape product BFS of the pass: the shared
// product core over a single-tape component. A run keeps its state queue
// and state set in a scratch set it is lent (post), as a componentEngine
// does: state i sits at curs[i] in joint state joints[i].
type domainEngine struct {
	prodCore
	*scratch // the workspace's set, from post to release

	ends []graph.Node // accepting nodes of the current run, unsorted

	// The run in progress, read by emitMove: the budget it charges and how
	// many states it has charged so far.
	bud     *stateBudget
	charged int
}

func newDomainEngine(c *component) *domainEngine {
	d := &domainEngine{prodCore: newProdCore(nil, c)}
	d.emit = d
	d.bindJoint(true) // the pass runs only when pruning
	return d
}

// release ends a run: the kernel unpins its snapshot (prodCore's release,
// which the embedded set's would shadow), the engine lets go of the set
// and the budget, and drops its ends past the pooled-scratch budget.
func (d *domainEngine) release() {
	d.prodCore.release()
	d.scratch, d.bud = nil, nil
	d.ends = capped(d.ends)
}

// push appends the state (joint, d.next[0]) unless the run has seen it.
func (d *domainEngine) push(joint int) bool {
	if !d.visit(&d.states, joint, d.next) {
		return false
	}
	d.curs = append(d.curs, d.next[0])
	d.joints = append(d.joints, int32(joint))
	return true
}

// emitMove is the pass's emitter: it takes the move forEachMove left in
// the kernel's scratch, with its successor joint state js.
func (d *domainEngine) emitMove(js int) error {
	if !d.push(js) {
		return nil
	}
	d.charged++
	if !d.bud.spend() {
		return ErrBudget
	}
	return nil
}

// post computes post[L](src) over s on sc's state queue and set: the
// sorted distinct nodes at which the product of the snapshot with the
// tape's automaton accepts, started from every source at once. The list
// is the engine's own scratch, valid until its next run or release — the
// caller copies it first. Every discovered state is charged to bud;
// charged reports how many, whatever the outcome, so the caller can
// return them. The engine holds sc and s until release.
func (d *domainEngine) post(ctx context.Context, sc *scratch, s *graph.Snapshot, src []graph.Node, bud *stateBudget) (ends []graph.Node, charged int, err error) {
	d.scratch, d.snap, d.bud, d.charged = sc, s, bud, 0
	d.beginVisit(&d.states, d.joints, d.curs)
	d.curs, d.joints, d.ends = d.curs[:0], d.joints[:0], d.ends[:0]
	for _, v := range src {
		d.next[0] = v
		d.push(d.src.StartID())
	}
	for head := 0; head < len(d.joints); head++ {
		if head&255 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, d.charged, err
			}
			if err := faultinject.Inject(faultinject.BFSStep); err != nil {
				return nil, d.charged, err
			}
		}
		cur := d.curs[head : head+1]
		joint := int(d.joints[head])
		if d.src.Accepting(joint) {
			d.ends = append(d.ends, cur[0])
		}
		if !d.prepareMoves(joint, cur) {
			continue
		}
		// On one tape the ⊥ stay-move reaches no new node, and acceptance
		// was read above.
		d.botOK[0] = false
		if err := d.forEachMove(joint, cur); err != nil {
			return nil, d.charged, err
		}
	}
	slices.Sort(d.ends)
	d.ends = slices.Compact(d.ends)
	return d.ends, d.charged, nil
}

// domainLists is the start-domain pass's storage in a workspace: the map
// it hands out, the candidate lists in it and the pass's bookkeeping.
// Each pass reuses all of it, so the map and its lists are valid until the
// workspace's next evaluation; the memo capture copies the lists it keeps.
// buf, which belongs to no program, is the workspace's scratch set's
// while the workspace holds it (see takeWorkspace).
type domainLists struct {
	lists map[NodeVar][]graph.Node
	buf   []graph.Node
	fired []bool
	src   [1]graph.Node // the source list of an atom whose start is bound
}

// release empties the storage for an idle workspace, dropping it past the
// pooled-scratch budget.
func (dl *domainLists) release() {
	clear(dl.lists)
	dl.buf = capped(dl.buf)
}

// confine records ends (sorted, distinct) as v's candidate list, or
// intersects the list v already has with it. A list is never nil, so an
// empty domain is not mistaken for an unconfined one.
func (dl *domainLists) confine(v NodeVar, ends []graph.Node) {
	if dl.lists == nil {
		dl.lists = map[NodeVar][]graph.Node{}
	}
	list := carve(&dl.buf, len(ends))[:0]
	if old, ok := dl.lists[v]; ok {
		list = appendIntersection(list, old, ends)
	} else {
		list = append(list, ends...)
	}
	dl.lists[v] = list
}

// startDomains runs the propagation pass for one evaluation on the
// workspace's engines and scratch set, and returns the confined
// variables' sorted candidate lists, kept in ws.doms; nil when
// nothing propagates. The pass borrows from the evaluation's state
// budget: every state it discovers is charged while it runs, which bounds
// it like any other BFS, and returned before the components start — so a
// budget the unpruned evaluation fits always fits the pruned one (its BFS
// runs are a subset). A pass that would exhaust the budget is abandoned
// and the evaluation continues unpruned; pruning never turns an answer
// into a refusal. Cancellation and injected BFSStep faults fail the
// evaluation as they would inside any component.
func (ws *workspace) startDomains(ctx context.Context, s *graph.Snapshot, opts Options, bud *stateBudget) (map[NodeVar][]graph.Node, error) {
	p, dl := ws.prog, &ws.doms
	if opts.NoPrune || len(opts.Bind) == 0 || len(p.prop) == 0 {
		return nil, nil
	}
	clear(dl.lists)
	dl.buf = dl.buf[:0]
	dl.fired = zeroed(dl.fired, len(p.prop))
	confined := false
	borrowed := 0
	defer func() { bud.refund(borrowed) }()
	for progress := true; progress; {
		progress = false
		for i, pa := range p.prop {
			if _, bound := opts.Bind[pa.atom.Y]; bound || dl.fired[i] {
				continue
			}
			var src []graph.Node
			if n, ok := opts.Bind[pa.atom.X]; ok {
				dl.src[0] = n
				src = dl.src[:]
			} else if src, ok = dl.lists[pa.atom.X]; !ok {
				continue
			}
			dl.fired[i] = true
			d := ws.domainEngine(i)
			if d == nil {
				continue
			}
			ends, charged, err := d.post(ctx, ws.sc, s, src, bud)
			borrowed += charged
			if err == nil {
				dl.confine(pa.atom.Y, ends)
			}
			d.release()
			if errors.Is(err, ErrBudget) {
				return nil, nil
			}
			if err != nil {
				return nil, err
			}
			confined, progress = true, true
		}
	}
	if !confined {
		return nil, nil
	}
	return dl.lists, nil
}
