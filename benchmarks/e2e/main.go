// Command e2e is the repository benchmark: four workloads that go from
// configuration text to verdicts, each checked against answers known
// from how the input was built, reporting end-to-end metrics in one run
// and per-layer metrics in a separate traced run. See ../README.md.
//
// With -workload it measures that workload once and prints, as the last
// line of standard output, one JSON object with the run's metrics.
// Without it, it runs every workload in its own subprocess, untraced and
// traced, -repeats times each, and prints the medians and quartiles;
// -aa does that twice over and compares the two sets.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// scale sizes the workloads. The full sizes are the benchmark; the smoke
// sizes only keep every code path of it under test.
type scale struct {
	monoPods    int   // fabric-mono fat-tree pods
	scalePods   int   // fabric-scale fat-tree pods
	auditSizes  []int // enterprise-audit: routers per network
	daemonSizes []int // daemon-mixed: routers per netgen network
	requests    int   // daemon-mixed script length
}

var (
	fullScale = scale{monoPods: 4, scalePods: 24,
		auditSizes:  []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}, // the paper's 2–25
		daemonSizes: []int{3, 4, 5, 6, 7, 8}, requests: 300}
	smokeScale = scale{monoPods: 2, scalePods: 4,
		auditSizes: []int{3, 5, 6, 7}, daemonSizes: []int{3, 4}, requests: 200}
)

// workload is one set of inputs and the path it drives through the
// program. setup builds the inputs from the seed; pass goes once from the
// first configuration byte to the last verdict.
type workload struct {
	name  string
	setup func(seed int64, sc scale) (any, error)
	pass  func(in any, tr *tracer) *passResult
	// exactRepeat says two passes over the same inputs must agree bit for
	// bit on the deterministic work counts.
	exactRepeat bool
}

var workloads = []workload{
	{"fabric-mono", monoSetup, monoPass, true},
	{"enterprise-audit", auditSetup, auditPass, true},
	{"fabric-scale", fabricSetup, fabricPass, true},
	{"daemon-mixed", daemonSetup, daemonPass, false},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// traceDir is where a traced run leaves its span file, relative to the
// checkout root the benchmark is started from.
const traceDir = "benchmarks/out"

func main() {
	name := flag.String("workload", "", "workload to measure once; empty runs every workload in subprocesses")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("seed the inputs are drawn from (held out for checking a finished change: %d)", heldOutSeed))
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run instead of the end-to-end ones")
	repeats := flag.Int("repeats", 3, "runs per workload and mode when running every workload")
	aa := flag.Bool("aa", false, "run the whole set twice on this binary and compare the medians")
	flag.Parse()

	if *name == "" {
		if err := runSuite(*seed, *seconds, *repeats, *aa); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, tr, err := measure(w, *seed, *seconds, *trace == 1, fullScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	if tr != nil {
		path := filepath.Join(traceDir, "trace-"+w.name+".json")
		if err := tr.write(path, w.name, *seed, rep.tracedVerdict); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
	}
	rep.print(os.Stdout)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.correct() {
		os.Exit(1)
	}
}
