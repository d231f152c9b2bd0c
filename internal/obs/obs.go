// Package obs is a zero-dependency tracing and metrics layer for the
// verification pipeline. It provides hierarchical spans (wall-clock timed,
// with typed attributes) that the encoder, the SMT layer and the SAT
// solver hang their phase measurements on, plus a small metrics registry
// (counters, gauges, histograms) for formula-health numbers such as term
// counts, CNF sizes and the learned-clause LBD distribution.
//
// All Span methods are safe to call on a nil receiver, so instrumented
// code can thread spans unconditionally and pay nothing when tracing is
// off. Trace and Span are safe for concurrent use: the solver progress
// hook may update metrics from the solving goroutine while another
// goroutine renders a snapshot.
//
// Three exporters cover the intended consumers: WriteTree renders a
// human-readable profile for the -v flag, WriteChrome emits the span tree
// with its attributes, gauges and counters as one Chrome trace_event
// document for Perfetto and machine diffing, and WritePrometheus dumps the
// metrics, histograms included, in Prometheus text exposition format.
package obs

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// AttrKind discriminates the typed attribute values carried by spans.
type AttrKind uint8

// Attribute kinds.
const (
	AttrInt AttrKind = iota
	AttrStr
)

// Attr is one typed key/value attribute attached to a span.
type Attr struct {
	Key  string
	Kind AttrKind
	Int  int64
	Str  string
}

// Value returns the attribute's value boxed for generic rendering.
func (a Attr) Value() any {
	if a.Kind == AttrStr {
		return a.Str
	}
	return a.Int
}

// Span is one timed node of the trace tree. Spans are created with
// Trace.Root().Start (or the free StartSpan for tests) and closed with
// End. A nil *Span is a valid no-op sink.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// StartSpan begins a standalone root span (used by tests and one-off
// measurements that do not need a full Trace).
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Start begins a child span. Safe on nil (returns nil).
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := StartSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span now. Ending an already-ended span keeps the first
// end time; ending a nil span is a no-op.
func (s *Span) End() {
	if s != nil {
		s.EndAt(time.Now())
	}
}

// EndAt closes the span at t, a clock reading the caller made, as End
// does at time.Now().
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = t
	}
	s.mu.Unlock()
}

// Ended reports whether End has been called.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.end.IsZero()
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// StartTime returns when the span started (zero time for nil), for
// exporters that need absolute timestamps (the Chrome trace writer).
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start
}

// Duration returns the span's wall time: end−start once ended, time since
// start while still open, 0 for nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

func (s *Span) setAttr(a Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == a.Key {
			s.attrs[i] = a
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, a)
	s.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) { s.setAttr(Attr{Key: key, Kind: AttrInt, Int: v}) }

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) { s.setAttr(Attr{Key: key, Kind: AttrStr, Str: v}) }

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Attr returns the attribute with the given key and whether it exists.
func (s *Span) Attr(key string) (Attr, bool) {
	if s == nil {
		return Attr{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Children returns a copy of the span's direct children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at s (including s itself), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name() == name {
		return s
	}
	for _, c := range s.Children() {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Walk visits the subtree depth-first, passing each span and its depth.
func (s *Span) Walk(fn func(sp *Span, depth int)) {
	if s == nil {
		return
	}
	var rec func(sp *Span, d int)
	rec = func(sp *Span, d int) {
		fn(sp, d)
		for _, c := range sp.Children() {
			rec(c, d+1)
		}
	}
	rec(s, 0)
}

// DefaultHistBounds are the upper bucket bounds used by Trace.Observe;
// they suit small integer distributions such as learned-clause LBD.
var DefaultHistBounds = []float64{1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 50}

// LatencyMsBounds are upper bucket bounds for millisecond latency
// distributions (job run time, solve time), spanning sub-millisecond
// checks to the two-minute default job deadline. Used with ObserveBounds.
var LatencyMsBounds = []float64{
	0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 30000, 60000, 120000,
}

// Hist is a fixed-bucket histogram. Counts[i] counts observations
// ≤ Bounds[i]; observations above the last bound land in the implicit
// overflow bucket counted only by N and Sum.
type Hist struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	N      int64
}

func (h *Hist) observe(v float64) {
	h.N++
	h.Sum += v
	for i, b := range h.Bounds {
		if v <= b {
			h.Counts[i]++
			return
		}
	}
}

// Trace owns a span tree and a metrics registry for one run.
type Trace struct {
	root *Span

	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Hist
}

// New starts a trace whose root span has the given name.
func New(name string) *Trace {
	return &Trace{
		root:     StartSpan(name),
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]*Hist{},
	}
}

// Root returns the root span (nil for a nil trace, so instrumented code
// can do trace.Root().Start(...) unconditionally).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Add increments a counter. Nil-safe.
func (t *Trace) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// Gauge sets a gauge to v. Nil-safe.
func (t *Trace) Gauge(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.gauges[name] = v
	t.mu.Unlock()
}

// GaugeMax raises a gauge to v if v exceeds its current value (used for
// peak measurements such as heap high-water marks). Nil-safe.
func (t *Trace) GaugeMax(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if cur, ok := t.gauges[name]; !ok || v > cur {
		t.gauges[name] = v
	}
	t.mu.Unlock()
}

// Observe records v into the named histogram (DefaultHistBounds buckets).
// Nil-safe.
func (t *Trace) Observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	h, ok := t.hists[name]
	if !ok {
		h = &Hist{Bounds: DefaultHistBounds, Counts: make([]int64, len(DefaultHistBounds))}
		t.hists[name] = h
	}
	h.observe(v)
	t.mu.Unlock()
}

// ObserveBounds records v into the named histogram, creating it with the
// given upper bucket bounds on first use (later calls ignore bounds: a
// histogram's buckets are fixed at birth). Use it for distributions the
// DefaultHistBounds buckets cannot resolve, e.g. millisecond latencies
// with LatencyMsBounds. Nil-safe.
func (t *Trace) ObserveBounds(name string, v float64, bounds []float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	h, ok := t.hists[name]
	if !ok {
		h = &Hist{Bounds: append([]float64(nil), bounds...), Counts: make([]int64, len(bounds))}
		t.hists[name] = h
	}
	h.observe(v)
	t.mu.Unlock()
}

// Quantile estimates the q-quantile (0 < q < 1) of the recorded
// distribution by linear interpolation within the bucket holding the
// target rank, the same estimate Prometheus's histogram_quantile
// computes server-side. Observations beyond the last bound (the overflow
// bucket) clamp to the last bound, and an empty histogram returns 0.
func (h *Hist) Quantile(q float64) float64 {
	if h == nil || h.N == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.N)
	var cum int64
	for i, b := range h.Bounds {
		prev := float64(cum)
		cum += h.Counts[i]
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if h.Counts[i] == 0 {
				return b
			}
			return lo + (b-lo)*(rank-prev)/float64(h.Counts[i])
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// HistSnapshot returns a copy of the named histogram and whether it
// exists, for callers computing quantiles outside the exporter.
func (t *Trace) HistSnapshot(name string) (Hist, bool) {
	if t == nil {
		return Hist{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hists[name]
	if !ok {
		return Hist{}, false
	}
	return Hist{
		Bounds: append([]float64(nil), h.Bounds...),
		Counts: append([]int64(nil), h.Counts...),
		Sum:    h.Sum,
		N:      h.N,
	}, true
}

// SetHist installs a precomputed histogram (e.g. the SAT solver's LBD
// distribution, tallied outside obs for speed). bounds and counts must
// have equal length; sum and n describe the full distribution including
// any overflow beyond the last bound. Nil-safe.
func (t *Trace) SetHist(name string, bounds []float64, counts []int64, sum float64, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.hists[name] = &Hist{
		Bounds: append([]float64(nil), bounds...),
		Counts: append([]int64(nil), counts...),
		Sum:    sum,
		N:      n,
	}
	t.mu.Unlock()
}

// Counter returns the current value of a counter.
func (t *Trace) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// GaugeValue returns the current value of a gauge and whether it was set.
func (t *Trace) GaugeValue(name string) (float64, bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.gauges[name]
	return v, ok
}

// SampleMem records the current runtime.MemStats heap numbers as gauges,
// maintaining mem.heap_peak_bytes as the high-water mark across samples.
// Call it at phase boundaries to approximate peak memory. Nil-safe.
func (t *Trace) SampleMem() {
	if t == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Gauge("mem.heap_alloc_bytes", float64(ms.HeapAlloc))
	t.Gauge("mem.sys_bytes", float64(ms.Sys))
	t.Gauge("mem.num_gc", float64(ms.NumGC))
	t.GaugeMax("mem.heap_peak_bytes", float64(ms.HeapAlloc))
}

// --- exporters ---

// WriteTree renders the span tree and metrics as indented human-readable
// text (the -v profile).
func (t *Trace) WriteTree(w io.Writer) {
	if t == nil {
		return
	}
	t.root.Walk(func(sp *Span, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(w, "%s%-*s %9.2fms", indent, 28-2*depth, sp.Name(), ms(sp.Duration()))
		for _, a := range sp.Attrs() {
			fmt.Fprintf(w, "  %s=%v", a.Key, a.Value())
		}
		fmt.Fprintln(w)
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range sortedKeys(t.counters) {
		fmt.Fprintf(w, "counter %s = %d\n", k, t.counters[k])
	}
	for _, k := range sortedKeys(t.gauges) {
		fmt.Fprintf(w, "gauge   %s = %g\n", k, t.gauges[k])
	}
	for _, k := range sortedKeys(t.hists) {
		h := t.hists[k]
		fmt.Fprintf(w, "hist    %s: n=%d sum=%g buckets=", k, h.N, h.Sum)
		for i, b := range h.Bounds {
			if h.Counts[i] > 0 {
				fmt.Fprintf(w, " ≤%g:%d", b, h.Counts[i])
			}
		}
		fmt.Fprintln(w)
	}
}

// WritePrometheus dumps spans and metrics in Prometheus text exposition
// format. Span durations become minesweeper_span_duration_seconds samples
// labelled with the slash-joined span path; counters, gauges and
// histograms map to their natural Prometheus types.
func (t *Trace) WritePrometheus(w io.Writer) {
	if t == nil {
		return
	}
	fmt.Fprintln(w, "# TYPE minesweeper_span_duration_seconds gauge")
	var walk func(s *Span, path string)
	walk = func(s *Span, path string) {
		if path == "" {
			path = s.Name()
		} else {
			path = path + "/" + s.Name()
		}
		fmt.Fprintf(w, "minesweeper_span_duration_seconds{span=%q} %g\n", path, s.Duration().Seconds())
		for _, c := range s.Children() {
			walk(c, path)
		}
	}
	walk(t.root, "")
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range sortedKeys(t.counters) {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE minesweeper_%s counter\n", n)
		fmt.Fprintf(w, "minesweeper_%s %d\n", n, t.counters[k])
	}
	for _, k := range sortedKeys(t.gauges) {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE minesweeper_%s gauge\n", n)
		fmt.Fprintf(w, "minesweeper_%s %g\n", n, t.gauges[k])
	}
	for _, k := range sortedKeys(t.hists) {
		h := t.hists[k]
		n := promName(k)
		fmt.Fprintf(w, "# TYPE minesweeper_%s histogram\n", n)
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(w, "minesweeper_%s_bucket{le=%q} %d\n", n, fmt.Sprintf("%g", b), cum)
		}
		fmt.Fprintf(w, "minesweeper_%s_bucket{le=\"+Inf\"} %d\n", n, h.N)
		fmt.Fprintf(w, "minesweeper_%s_sum %g\n", n, h.Sum)
		fmt.Fprintf(w, "minesweeper_%s_count %d\n", n, h.N)
		if h.N > 0 {
			fmt.Fprintf(w, "# TYPE minesweeper_%s_quantile gauge\n", n)
			for _, q := range ExportQuantiles {
				fmt.Fprintf(w, "minesweeper_%s_quantile{quantile=%q} %g\n", n, fmt.Sprintf("%g", q), h.Quantile(q))
			}
		}
	}
}

// ExportQuantiles are the quantiles WritePrometheus precomputes per
// histogram (as _quantile gauges next to the raw buckets), so dashboards
// get p50/p90/p99 without server-side histogram_quantile.
var ExportQuantiles = []float64{0.5, 0.9, 0.99}

// promName sanitizes a metric name into the Prometheus charset.
func promName(s string) string {
	var b strings.Builder
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
