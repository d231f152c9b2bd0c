package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the declaration at the checkout root the runs are
// judged by: which way each metric is better and how far it may worsen.
const benchmarkFile = "BENCHMARK.json"

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declaration struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclaration(path string) (*declaration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(xs, n=4) does, so that a spread
// computed here is the spread the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// runOnce measures one workload in a subprocess of this binary, so that
// its peak memory is its own.
func runOnce(workload string, seed int64, seconds float64, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	if !res.Correct {
		os.Stdout.Write(out) // the run's own account of what failed
	}
	return &res, nil
}

// set is one round over every workload: the values of every metric, one
// per repeat, keyed by workload then metric.
type set struct {
	values map[string]map[string][]float64
	failed int
}

// runSet runs every workload repeats times untraced and as often traced.
// Repeat i uses seed+i, the way the driver spreads its runs over seeds.
func runSet(seed int64, seconds float64, repeats int) (*set, error) {
	s := &set{values: map[string]map[string][]float64{}}
	for _, w := range workloads {
		s.values[w.name] = map[string][]float64{}
		for i := 0; i < repeats; i++ {
			for trace := 0; trace <= 1; trace++ {
				res, err := runOnce(w.name, seed+int64(i), seconds, trace)
				if err != nil {
					return nil, err
				}
				s.failed += res.Failed
				if !res.Correct && res.Failed == 0 {
					s.failed++ // counts that must repeat did not
				}
				for name, v := range res.Metrics {
					s.values[w.name][name] = append(s.values[w.name][name], v.Value)
				}
			}
		}
	}
	return s, nil
}

func (s *set) print(defs []metricDef) {
	for _, w := range workloads {
		fmt.Printf("%s\n", w.name)
		for _, d := range defs {
			q1, q2, q3 := quartiles(s.values[w.name][d.name])
			fmt.Printf("  %-28s %14.6g %-6s  quartiles %.6g .. %.6g\n", d.name, q2, d.unit, q1, q3)
		}
	}
}

// exactMetrics are the per-layer counts that must be identical in any two
// runs of one batch workload at one seed.
var exactMetrics = []string{"sat.work_units", "smt.sat_clauses", "passes.terms_after", "drat.proof_bytes"}

// compare judges set b against set a by the benchmark's own bounds: a
// metric whose quartile spread in a exceeds its bound cannot tell a
// change from noise and is unresolved, not unchanged.
func compare(decl *declaration, a, b *set) (changed int) {
	fmt.Printf("\n%-18s %-16s %12s %12s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "B vs A", "spread", "verdict")
	for _, w := range workloads {
		for _, m := range decl.EndToEnd {
			q1, medA, q3 := quartiles(a.values[w.name][m.Name])
			_, medB, _ := quartiles(b.values[w.name][m.Name])
			worse := ratio(medB-medA, medA)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := ratio(q3-q1, medA)
			verdict := "unchanged"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "CHANGED"
				changed++
			}
			fmt.Printf("%-18s %-16s %12.6g %12.6g %+7.1f%% %7.1f%%  %s\n", w.name, m.Name, medA, medB, 100*worse, 100*spread, verdict)
		}
		if !w.exactRepeat {
			continue
		}
		for _, name := range exactMetrics {
			xs, ys := a.values[w.name][name], b.values[w.name][name]
			for i := range xs {
				if i < len(ys) && xs[i] != ys[i] {
					fmt.Printf("%-18s %-16s seed +%d counted %v then %v  NOT REPEATABLE\n", w.name, name, i, xs[i], ys[i])
					changed++
				}
			}
		}
	}
	return changed
}

func runSuite(seed int64, seconds float64, repeats int, aa bool) error {
	fmt.Printf("seed %d (+0..+%d), %g s per run, %d runs per workload and mode\n", seed, repeats-1, seconds, repeats)
	a, err := runSet(seed, seconds, repeats)
	if err != nil {
		return err
	}
	a.print(append(append([]metricDef(nil), endToEnd...), perLayer...))
	failed := a.failed
	if aa {
		decl, err := readDeclaration(benchmarkFile)
		if err != nil {
			return fmt.Errorf("run from the checkout root: %w", err)
		}
		b, err := runSet(seed, seconds, repeats)
		if err != nil {
			return err
		}
		failed += b.failed
		if n := compare(decl, a, b); n > 0 {
			return fmt.Errorf("%d comparisons of the same code against itself disagree", n)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d queries failed", failed)
	}
	return nil
}
