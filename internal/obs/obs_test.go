package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNestingAndClose(t *testing.T) {
	tr := New("root")
	root := tr.Root()
	a := root.Start("a")
	b := a.Start("b")
	time.Sleep(time.Millisecond)
	b.End()
	a.End()
	root.End()

	if !root.Ended() || !a.Ended() || !b.Ended() {
		t.Fatal("spans not closed")
	}
	if root.Duration() < a.Duration() || a.Duration() < b.Duration() {
		t.Fatalf("durations not nested: root=%v a=%v b=%v",
			root.Duration(), a.Duration(), b.Duration())
	}
	if b.Duration() <= 0 {
		t.Fatalf("leaf duration %v not positive", b.Duration())
	}
	kids := root.Children()
	if len(kids) != 1 || kids[0] != a {
		t.Fatal("root children wrong")
	}
	if root.Find("b") != b {
		t.Fatal("Find failed to locate grandchild")
	}
	if root.Find("missing") != nil {
		t.Fatal("Find invented a span")
	}
}

func TestEndIdempotent(t *testing.T) {
	s := StartSpan("x")
	s.End()
	d := s.Duration()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if s.Duration() != d {
		t.Fatal("second End moved the end time")
	}
}

func TestNilSpanIsNoop(t *testing.T) {
	var s *Span
	c := s.Start("child")
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	// None of these may panic.
	s.End()
	s.SetInt("k", 1)
	s.SetStr("k", "v")
	if s.Duration() != 0 || s.Name() != "" || s.Find("x") != nil {
		t.Fatal("nil span not inert")
	}
	var tr *Trace
	tr.Add("c", 1)
	tr.Gauge("g", 1)
	tr.Observe("h", 1)
	tr.SampleMem()
	if tr.Root() != nil {
		t.Fatal("nil trace has a root")
	}
}

func TestTypedAttrs(t *testing.T) {
	s := StartSpan("x")
	s.SetInt("i", 42)
	s.SetStr("s", "hi")
	s.SetInt("i", 43) // overwrite
	s.End()
	if a, ok := s.Attr("i"); !ok || a.Int != 43 || a.Kind != AttrInt || a.Value() != int64(43) {
		t.Fatalf("int attr wrong: %+v", a)
	}
	if a, ok := s.Attr("s"); !ok || a.Str != "hi" || a.Kind != AttrStr || a.Value() != "hi" {
		t.Fatalf("str attr wrong: %+v", a)
	}
	if len(s.Attrs()) != 2 {
		t.Fatalf("want 2 attrs, got %d", len(s.Attrs()))
	}
}

func TestPrometheusExport(t *testing.T) {
	tr := New("verify")
	tr.Root().Start("solve").End()
	tr.Add("sat.conflicts", 5)
	tr.Gauge("mem.heap_alloc_bytes", 1024)
	tr.Observe("sat.lbd", 2)
	tr.Root().End()

	var buf bytes.Buffer
	tr.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`minesweeper_span_duration_seconds{span="verify"}`,
		`minesweeper_span_duration_seconds{span="verify/solve"}`,
		"minesweeper_sat_conflicts 5",
		"minesweeper_mem_heap_alloc_bytes 1024",
		`minesweeper_sat_lbd_bucket{le="+Inf"} 1`,
		"minesweeper_sat_lbd_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus dump missing %q:\n%s", want, out)
		}
	}
}

func TestTreeExport(t *testing.T) {
	tr := New("verify")
	c := tr.Root().Start("check")
	c.SetInt("sat_vars", 9)
	c.End()
	tr.Root().End()
	var buf bytes.Buffer
	tr.WriteTree(&buf)
	out := buf.String()
	if !strings.Contains(out, "verify") || !strings.Contains(out, "check") ||
		!strings.Contains(out, "sat_vars=9") {
		t.Fatalf("tree dump incomplete:\n%s", out)
	}
}

// TestConcurrentUse exercises the progress-hook pattern: one goroutine
// (the solver) updates metrics and span attributes while another renders
// snapshots. Run under -race.
func TestConcurrentUse(t *testing.T) {
	tr := New("run")
	sp := tr.Root().Start("solve")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Add("conflicts", 1)
				tr.GaugeMax("peak", float64(i))
				tr.Observe("lbd", float64(i%7))
				sp.SetInt("progress", int64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			tr.WriteTree(&buf)
			if err := tr.WriteChrome(&buf); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	<-done
	sp.End()
	tr.Root().End()
	if got := tr.Counter("conflicts"); got != 4000 {
		t.Fatalf("counter lost updates: %d", got)
	}
}

func TestSampleMemPeak(t *testing.T) {
	tr := New("m")
	tr.SampleMem()
	v, ok := tr.GaugeValue("mem.heap_peak_bytes")
	if !ok || v <= 0 {
		t.Fatalf("heap peak not sampled: %v %v", v, ok)
	}
	// Peak must be monotone even if the current heap shrinks.
	tr.Gauge("mem.heap_peak_bytes", v) // reset to current
	tr.GaugeMax("mem.heap_peak_bytes", v-1)
	if got, _ := tr.GaugeValue("mem.heap_peak_bytes"); got != v {
		t.Fatalf("peak regressed: %v -> %v", v, got)
	}
}
