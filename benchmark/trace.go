package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names. Library operations nest op → ecrpq.parse → plan.compile →
// graph.snapshot → plan.eval; serve operations nest op → http.roundtrip
// → server.handler → plan.eval (the last synthesized from the
// response's elapsed_ns). Spans are recorded only from this package,
// around the calls into each layer.
const (
	spanOp        = "op"
	spanParse     = "ecrpq.parse"
	spanCompile   = "plan.compile"
	spanSnapshot  = "graph.snapshot"
	spanEval      = "plan.eval"
	spanRoundtrip = "http.roundtrip"
	spanHandler   = "server.handler"
)

var spanNames = []string{spanOp, spanParse, spanCompile, spanSnapshot, spanEval, spanRoundtrip, spanHandler}

// span is one timed interval. Spans of one operation share Op; Parent
// is the id of the span that caused this one (-1 for the root).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Op      int64  `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced window pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, StartNs: now, ID: id, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// add records a span whose interval is already known — the synthetic
// plan.eval child built from a response's elapsed_ns, which the caller
// places at the start of its parent: only its length matters.
func (t *tracer) add(name string, parent int32, op, startNs, endNs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: startNs, EndNs: endNs, ID: int32(len(t.spans)), Parent: parent, Op: op})
	t.mu.Unlock()
}

// startOf returns when a span began.
func (t *tracer) startOf(id int32) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].StartNs
}

// selfShares returns, per span name, the share of all operation time
// that is that name's self time: a span's duration minus the part of it
// its child spans cover.
func (t *tracer) selfShares() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total float64
	for _, s := range t.spans {
		if s.EndNs < s.StartNs {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, upto := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, upto), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self := float64(s.EndNs - s.StartNs - covered)
		out[s.Name] += self
		total += self
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
