package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestQuantileInterpolation pins the bucket-interpolation estimate: a
// uniform distribution over one bucket lands its median mid-bucket, and
// the overflow region clamps to the last bound.
func TestQuantileInterpolation(t *testing.T) {
	h := &Hist{Bounds: []float64{10, 20, 30}, Counts: []int64{0, 100, 0}, N: 100}
	// All mass in (10,20]: p50 interpolates to the middle of the bucket.
	if got := h.Quantile(0.5); math.Abs(got-15) > 1e-9 {
		t.Fatalf("p50 = %g, want 15", got)
	}
	if got := h.Quantile(0.99); math.Abs(got-19.9) > 1e-9 {
		t.Fatalf("p99 = %g, want 19.9", got)
	}
	// Everything beyond the last bound clamps there.
	over := &Hist{Bounds: []float64{10}, Counts: []int64{1}, N: 10}
	if got := over.Quantile(0.9); got != 10 {
		t.Fatalf("overflow p90 = %g, want clamp to 10", got)
	}
	var nilH *Hist
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil hist quantile not 0")
	}
}

// TestObserveBoundsAndQuantileExport: custom-bound histograms land in the
// Prometheus exposition with bucket lines and precomputed _quantile
// gauges.
func TestObserveBoundsAndQuantileExport(t *testing.T) {
	tr := New("t")
	for i := 0; i < 100; i++ {
		tr.ObserveBounds("job.run_ms", float64(i), LatencyMsBounds)
	}
	tr.Root().End()

	h, ok := tr.HistSnapshot("job.run_ms")
	if !ok || h.N != 100 {
		t.Fatalf("snapshot missing or wrong: ok=%v n=%d", ok, h.N)
	}
	p50 := h.Quantile(0.5)
	if p50 < 25 || p50 > 100 {
		t.Fatalf("p50 = %g, outside the plausible [25,100] band", p50)
	}

	var buf bytes.Buffer
	tr.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		`minesweeper_job_run_ms_bucket{le="100"}`,
		"minesweeper_job_run_ms_count 100",
		"# TYPE minesweeper_job_run_ms_quantile gauge",
		`minesweeper_job_run_ms_quantile{quantile="0.5"}`,
		`minesweeper_job_run_ms_quantile{quantile="0.99"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestWriteChrome exports a small span tree and checks the trace_event
// document: slices with microsecond timestamps nested by containment,
// attrs as args, gauges as counter samples, counters under otherData.
func TestWriteChrome(t *testing.T) {
	tr := New("verify")
	child := tr.Root().Start("solve")
	child.SetInt("conflicts", 42)
	time.Sleep(2 * time.Millisecond)
	child.End()
	tr.Gauge("formula.sat_vars", 123)
	tr.Add("asserts", 7)
	tr.Root().End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	byName := map[string]int{}
	for i, ev := range doc.TraceEvents {
		byName[ev.Name] = i
	}
	rootIdx, ok := byName["verify"]
	if !ok {
		t.Fatalf("no root slice in %s", buf.String())
	}
	solveIdx, ok := byName["solve"]
	if !ok {
		t.Fatalf("no solve slice in %s", buf.String())
	}
	root, solve := doc.TraceEvents[rootIdx], doc.TraceEvents[solveIdx]
	if root.Ph != "X" || solve.Ph != "X" {
		t.Fatalf("slices are not complete events: %q %q", root.Ph, solve.Ph)
	}
	// Containment: the child's [ts, ts+dur) window sits inside the root's.
	if solve.Ts < root.Ts || solve.Ts+solve.Dur > root.Ts+root.Dur+1 {
		t.Fatalf("solve [%g,%g] escapes root [%g,%g]",
			solve.Ts, solve.Ts+solve.Dur, root.Ts, root.Ts+root.Dur)
	}
	if solve.Dur < 1000 {
		t.Fatalf("solve dur %gus, want >= 1000 (slept 2ms)", solve.Dur)
	}
	if v, ok := solve.Args["conflicts"]; !ok || v.(float64) != 42 {
		t.Fatalf("solve args missing conflicts=42: %v", solve.Args)
	}
	gaugeIdx, ok := byName["formula.sat_vars"]
	if !ok || doc.TraceEvents[gaugeIdx].Ph != "C" {
		t.Fatalf("gauge counter sample missing: %s", buf.String())
	}
	if doc.OtherData.Counters["asserts"] != 7 {
		t.Fatalf("counter lost: %s", buf.String())
	}

	// Nil trace writes nothing and does not error.
	var nilTr *Trace
	if err := nilTr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
}
