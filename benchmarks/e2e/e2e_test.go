package main

import (
	"math"
	"testing"
)

// TestSmoke runs every workload in-process at the smoke sizes, untraced
// and traced, and holds the program to its declaration: every metric
// BENCHMARK.json names is reported exactly once with its unit, every
// verdict matches its known answer, and the counts that must repeat do.
func TestSmoke(t *testing.T) {
	decl, err := readDeclaration("../../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			// Zero seconds still runs the two passes a run needs.
			rep, tr, err := measure(w, defaultSeed, 0, traced, smokeScale)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.correct() {
				t.Errorf("%s traced=%v: failed=%d %v %s", w.name, traced, rep.failed, rep.failures, rep.repeatErr)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			got := rep.result().Metrics
			if len(got) != len(want) || len(rep.defs) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported (%d defined), %d declared", w.name, traced, len(got), len(rep.defs), len(want))
			}
			for _, m := range want {
				v, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s is declared but not reported", w.name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s reported in %q, declared in %q", w.name, m.Name, v.Unit, m.Unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, v.Value)
				}
			}
			if !traced {
				continue
			}
			if tr == nil {
				t.Fatalf("%s: traced run returned no spans", w.name)
			}
			// Self times partition the root spans, so they add up to what
			// the senders spent: the pass, or the clients' overlapping loops.
			var self, roots float64
			for _, d := range tr.selfTimes() {
				self += d.Seconds()
			}
			for _, s := range tr.spans {
				if s.Parent < 0 {
					roots += float64(s.End-s.Start) / 1e9
				}
			}
			if math.Abs(self-roots) > 0.05*roots {
				t.Errorf("%s: self times sum to %.4fs, root spans to %.4fs", w.name, self, roots)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4)
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
