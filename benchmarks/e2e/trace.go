package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark itself (the program under test carries no tracing of its
// own). Times are nanoseconds since the tracer was created. Derived marks
// spans the benchmark could not time directly: phases inside
// core.Model.CheckGoal, laid out back to back from the public
// core.Result durations.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into the span list, -1 for a root
	Query   int    `json:"query"`  // spans of one query share it; -1 outside any query
	Derived bool   `json:"derived,omitempty"`
}

// tracer collects spans in memory; a nil *tracer records nothing, so the
// untraced run executes the same calls without the bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, query int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Query: query})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// derive lays phases out back to back under parent, starting at the
// parent's start: the order CheckGoal runs them in.
func (t *tracer) derive(parent, query int, phases []phase) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[parent].Start
	for _, p := range phases {
		if p.d <= 0 {
			continue
		}
		t.spans = append(t.spans, span{Name: p.name, Start: at, End: at + p.d.Nanoseconds(),
			Parent: parent, Query: query, Derived: true})
		at += p.d.Nanoseconds()
	}
}

type phase struct {
	name string
	d    time.Duration
}

// layerOf is the package a span belongs to: the part of its name before
// the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// traceFile is what a -trace run leaves behind for a workload.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	VerdictS float64            `json:"verdict_s"`
	SelfS    map[string]float64 `json:"self_s_by_layer"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, verdict time.Duration) error {
	tf := traceFile{Workload: workload, Seed: seed, VerdictS: verdict.Seconds(),
		SelfS: map[string]float64{}, Spans: t.spans}
	for layer, d := range t.selfTimes() {
		tf.SelfS[layer] = d.Seconds()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
