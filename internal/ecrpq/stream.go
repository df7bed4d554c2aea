package ecrpq

import (
	"context"
	"errors"
	"iter"
	"slices"

	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/qerr"
)

// StreamOptions tune the streaming executor.
type StreamOptions struct {
	Options
	// Limit stops the stream after this many answers; zero means
	// unlimited. Unlike a caller-side break, the limit also stops the
	// underlying product BFS and join enumeration, so Limit=1 returns
	// the first answer without paying for the rest of the answer set.
	Limit int
}

// Stream evaluates the program over the snapshot g yields and yields
// answers incrementally as an iterator. The whole streaming execution —
// product BFS, joins, and the enumeration driving the iterator — reads
// that one snapshot, so answers keep flowing from one consistent epoch
// while writers mutate the store underneath. Semantics relative to Eval:
//
//   - The multiset of node tuples is identical to Eval's, but answers
//     arrive in discovery order, not sorted.
//   - Each node tuple is yielded exactly once (first discovery wins);
//     witness paths are valid paths satisfying the query but are not
//     guaranteed shortest — Eval refines duplicates, a stream cannot.
//   - Cancellation of ctx is checked inside the product BFS and the
//     join enumeration; the iterator then yields a final (Answer{},
//     ctx.Err()) pair. Other failures (ErrBudget, validation) surface
//     the same way.
//   - Breaking out of the range loop, or reaching opts.Limit, tears the
//     execution down promptly; no goroutines or engines leak.
//
// For single-component queries answers are emitted straight out of the
// product BFS, so the time to first answer is proportional to how much
// of the product must be explored to find it — not to the full
// evaluation. Multi-component queries evaluate their components to
// completion (workspace.evalComponents, which runs them concurrently only
// when the cost model says it pays) and then stream the final join
// enumeration.
func (p *Program) Stream(ctx context.Context, g graph.Snapshotter, opts StreamOptions) iter.Seq2[Answer, error] {
	s := g.Snapshot()
	return func(yield func(Answer, error) bool) {
		err := p.stream(ctx, s, opts, func(a Answer) bool { return yield(a, nil) })
		if err != nil {
			yield(Answer{}, err)
		}
	}
}

// stream drives one streaming execution, calling emit for every
// answer. It returns nil on normal completion and on early stop
// (consumer break, limit); real failures are returned for the iterator
// to surface. A head without node variables needs no rule here: the
// engine's stop rule ends a single component at its first row, and the
// join enumeration ends itself when it keeps no column. The execution
// holds one workspace until the stream's last row has been read.
func (p *Program) stream(ctx context.Context, s *graph.Snapshot, opts StreamOptions, emit func(Answer) bool) error {
	ws := p.takeWorkspace()
	defer p.putWorkspace(ws)
	sink := newAnswerSink(p.headNodes, p.headPaths, opts.Limit, emit)
	var err error
	if len(p.comps) == 1 {
		err = ws.streamSingle(ctx, s, opts, sink)
	} else {
		err = ws.streamJoin(ctx, s, opts, sink)
	}
	if errors.Is(err, errStopStream) {
		return nil
	}
	return qerr.Classify(err)
}

// answerSink deduplicates head projections and applies the limit,
// turning join/BFS rows into yielded Answers. It reports errStopStream
// when the stream should end early.
type answerSink struct {
	headNodes []NodeVar
	headPaths []PathVar
	headPos   []int // positions of headNodes in the source columns
	pathPos   []int // positions of headPaths in the source witness columns
	seen      *intern.Table
	keyBuf    []int
	limit     int
	emitted   int
	emit      func(Answer) bool
}

func newAnswerSink(headNodes []NodeVar, headPaths []PathVar, limit int, emit func(Answer) bool) *answerSink {
	return &answerSink{
		headNodes: headNodes,
		headPaths: headPaths,
		seen:      intern.NewTable(0),
		keyBuf:    make([]int, len(headNodes)),
		limit:     limit,
		emit:      emit,
	}
}

// bindCols resolves the head-variable positions against the node and
// witness columns of the rows the sink will receive.
func (s *answerSink) bindCols(cols []NodeVar, pcols []PathVar) {
	s.headPos = positions(make([]int, len(s.headNodes)), s.headNodes, cols)
	s.pathPos = make([]int, len(s.headPaths))
	for i, chi := range s.headPaths {
		s.pathPos[i] = slices.Index(pcols, chi)
	}
}

// row projects, deduplicates and emits one source row. Both slices are
// transient (indexed by the bound columns); the paths themselves may be
// retained.
func (s *answerSink) row(nodes []graph.Node, paths []graph.Path) error {
	for i, pos := range s.headPos {
		s.keyBuf[i] = int(nodes[pos])
	}
	if _, added := s.seen.Intern(s.keyBuf); !added {
		return nil
	}
	ans := Answer{}
	for _, pos := range s.headPos {
		ans.Nodes = append(ans.Nodes, nodes[pos])
	}
	for _, pos := range s.pathPos {
		ans.Paths = append(ans.Paths, paths[pos])
	}
	if !s.emit(ans) {
		return errStopStream
	}
	s.emitted++
	if s.limit > 0 && s.emitted >= s.limit {
		return errStopStream
	}
	return nil
}

// streamSingle streams a single-component program: the engine's sink
// hook emits answers straight out of the product BFS.
func (ws *workspace) streamSingle(ctx context.Context, s *graph.Snapshot, opts StreamOptions, sink *answerSink) error {
	doms, err := ws.begin(ctx, s, opts.Options)
	if err != nil {
		return err
	}
	e := ws.engines[0]
	e.reset(s, opts.Options, doms)
	sink.bindCols(e.c.allVars, e.keptVars)
	e.sink = sink.row
	_, err = evalComponent(ctx, e, &ws.bud)
	return err
}

// streamJoin streams a multi-component program: components evaluate to
// completion, then the final join enumeration yields answers
// incrementally.
func (ws *workspace) streamJoin(ctx context.Context, s *graph.Snapshot, opts StreamOptions, sink *answerSink) error {
	rels, _, err := ws.evalComponents(ctx, s, opts.Options, false)
	if err != nil {
		return err
	}
	p := ws.prog
	final, _, err := ws.join.reduceJoin(ctx, rels, p.jp, p.headNodes)
	if err != nil {
		return err
	}
	je := ws.join.newJoinEnum(final, p.headNodes)
	sink.bindCols(je.keepCols, je.pathCols)
	var sinkErr error
	err = je.run(ctx, func(nodes []graph.Node, paths []graph.Path) bool {
		if err := sink.row(nodes, paths); err != nil {
			sinkErr = err
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return sinkErr
}
