package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Times are host nanoseconds since
// the tracer's epoch; parent is the index of the enclosing span, -1 at the
// root; op is the workload op the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory for the whole run. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setOp tags the spans that follow with op id i.
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = i
	}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// drop discards span id, which must be the last one begun and still open.
func (t *tracer) drop(id int) {
	if t == nil {
		return
	}
	t.spans = t.spans[:id]
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span name, the self time of every span of that
// name: its duration minus the durations of its direct children. Spans of
// one goroutine nest without overlap, so this is the time the layer
// itself was busy.
func selfTimes(spans []span) map[string][]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]time.Duration{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-child[i]))
	}
	return out
}

// totalTimes returns, per span name, the full duration of every span.
func totalTimes(spans []span) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
	}
	return out
}

// writeSpans writes the spans as JSON lines to path, once, at the end of
// the run.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
