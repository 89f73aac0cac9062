package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a module's public API.
// Spans of one operation (a pass, a job, a probe) share Op; Parent links a
// span to the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// N is the work the call did, in the unit its layer counts
	// (instructions, branches, accesses, bytes, ...); 0 when not counted.
	N int64 `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so timed code calls it
// unconditionally and pays one nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	ops   int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// op returns a fresh operation id.
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// active is an open span; end closes it.
type active struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

// begin opens a span of operation op, caused by parent (nil for a root).
func (t *tracer) begin(name string, op int64, parent *active) *active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	a := &active{t: t, id: id, op: op, name: name, start: time.Now()}
	if parent != nil {
		a.parent = parent.id
	}
	return a
}

// end closes the span, recording n units of work.
func (a *active) end(n int64) {
	if a == nil {
		return
	}
	now := time.Now()
	s := span{
		ID: a.id, Parent: a.parent, Op: a.op, Name: a.name,
		Start: int64(a.start.Sub(a.t.epoch)), End: int64(now.Sub(a.t.epoch)), N: n,
	}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
}

// named returns every recorded span called name, in completion order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations and work counts of the spans called name.
func (t *tracer) total(name string) (time.Duration, int64) {
	var d time.Duration
	var n int64
	for _, s := range t.named(name) {
		d += s.dur()
		n += s.N
	}
	return d, n
}

// durationsMs returns each span's duration in milliseconds.
func durationsMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

// write stores every span as one JSON line in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
