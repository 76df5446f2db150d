package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// The traced run records a span around every call the harness makes
// into a layer, from the harness's own files: spans inside the program
// are a later change. Spans stay in memory until the run ends.

// span is one timed call: who caused it (Parent, 0 for none), which
// operation it belongs to (Op, shared by a request and its children),
// and when it ran, in ns since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

const rootSpan = 0

// tracer is safe for concurrent use; a nil *tracer records nothing, so
// untraced windows run the same code with no spans taken.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span that may parent others and returns its id.
func (t *tracer) open(name string, parent int) (id int, end func()) {
	if t == nil {
		return rootSpan, func() {}
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id = len(t.spans) + 1
	op := id
	if parent != rootSpan {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: start})
	t.mu.Unlock()
	return id, func() {
		stop := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNS = stop
		t.mu.Unlock()
	}
}

// begin starts a leaf span.
func (t *tracer) begin(name string, parent int) (end func()) {
	_, end = t.open(name, parent)
	return end
}

// traceFile is what a traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfMS is, per span name, the summed duration minus the part the
	// span's children cover: the time the layer itself held the call.
	SelfMS map[string]float64 `json:"self_ms"`
	Count  map[string]int     `json:"count"`
	Spans  []span             `json:"spans"`
}

// write derives self times and writes the spans out. Children of one
// span run one after another in this harness, so the covered part is
// the sum of their durations.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, Spans: t.spans,
		SelfMS: make(map[string]float64), Count: make(map[string]int)}
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.EndNS - s.StartNS
	}
	for _, s := range t.spans {
		tf.SelfMS[s.Name] += float64(s.EndNS-s.StartNS-covered[s.ID]) / 1e6
		tf.Count[s.Name]++
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
