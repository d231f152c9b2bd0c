package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// defaultSeed draws the inputs unless -seed says otherwise; heldOutSeed
// is never used while a change is being written and shows whether a
// result was fitted to the default inputs. BENCHMARK.json's workload
// notes name both.
const (
	defaultSeed = 1
	heldOutSeed = 20170821
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the verifier sees; every run
// without -trace reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"verdict_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cold_p50_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"throughput_qps", "1/s"},
}

// perLayer are the metrics of single packages; every -trace run reports
// all of them, zero where the workload does not execute the layer.
var perLayer = []metricDef{
	{"config.parse_s", "s"}, {"config.parse_mb_per_s", "MB/s"}, {"config.topology_s", "s"},
	{"protograph.build_s", "s"}, {"protograph.sessions", "count"},
	{"tiered.analysis_s", "s"}, {"tiered.decide_s", "s"}, {"tiered.hit_share", "ratio"},
	{"modular.partition_s", "s"}, {"modular.plan_s", "s"}, {"modular.run_s", "s"},
	{"modular.alias_hit_share", "ratio"}, {"modular.checks", "count"}, {"modular.residue_share", "ratio"},
	{"core.encode_s", "s"}, {"core.terms", "count"}, {"core.check_s", "s"}, {"core.decode_s", "s"},
	{"core.session_setup_s", "s"}, {"core.session_check_s", "s"},
	{"passes.compile_s", "s"}, {"passes.coi_s", "s"}, {"passes.terms_before", "count"},
	{"passes.terms_after", "count"}, {"passes.shrink_ratio", "ratio"},
	{"smt.blast_s", "s"}, {"smt.simplify_s", "s"}, {"smt.sat_vars", "count"}, {"smt.sat_clauses", "count"},
	{"sat.solve_s", "s"}, {"sat.work_units", "count"}, {"sat.conflicts", "count"},
	{"sat.propagations_per_s", "1/s"}, {"sat.conflicts_per_s", "1/s"}, {"sat.clause_db_bytes", "B"},
	{"drat.check_s", "s"}, {"drat.proof_bytes", "B"}, {"drat.lemmas", "count"},
	{"drat.lits_per_s", "1/s"}, {"drat.check_over_solve", "ratio"},
	{"service.http_s", "s"}, {"service.queue_wait_ms", "ms"}, {"service.cache_hit_share", "ratio"},
	{"service.session_reuse_share", "ratio"}, {"service.compile_reuse_share", "ratio"},
	{"service.fastpath_hit_share", "ratio"}, {"service.networks", "count"},
	{"service.query_p99_ms", "ms"}, {"service.query_samples", "count"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead", "ratio"}, {"trace.unattributed_share", "ratio"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is everything one run measured.
type report struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	failures  []string
	// repeatErr is set when two passes over the same inputs disagreed on
	// a count that must repeat exactly.
	repeatErr     string
	defs          []metricDef
	values        map[string]float64
	tracedVerdict time.Duration
	passWalls     []float64 // seconds, in the order run
}

func (r *report) correct() bool { return r.failed == 0 && r.repeatErr == "" }

func (r *report) result() result {
	out := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range r.defs {
		out.Metrics[d.name] = value{r.values[d.name], d.unit}
	}
	return out
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d passes %d queries %d failed %d\n",
		r.workload, r.seed, len(r.passWalls), r.attempted, r.failed)
	fmt.Fprintf(w, "  pass seconds %.3f\n", r.passWalls)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if r.repeatErr != "" {
		fmt.Fprintf(w, "  NOT REPEATABLE %s\n", r.repeatErr)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, r.values[d.name], d.unit)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, m, _ := quartiles(xs)
	return m
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSnap reads the allocator and GC CPU counters around a pass.
type runtimeSnap struct{ allocBytes, gcCPU, totalCPU float64 }

func takeRuntimeSnap() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// The inputs are rebuilt to time set-up at least minSetups times, then
// more until setupShare of the run's seconds is spent: a set-up of a
// millisecond needs many samples for a median that holds still.
const (
	minSetups  = 5
	maxSetups  = 200
	setupShare = 0.05
)

// measure runs one workload for about the given number of seconds and
// returns its report and, for a traced run, the spans of the last traced
// pass. An untraced run times plain passes. A traced run alternates
// plain and traced passes, so that the ratio of the two medians is the
// tracing overhead of this very run.
func measure(w workload, seed int64, seconds float64, traced bool, sc scale) (*report, *tracer, error) {
	var in any
	var setups []float64
	for begin := time.Now(); len(setups) < minSetups ||
		(time.Since(begin).Seconds() < setupShare*seconds && len(setups) < maxSetups); {
		start := time.Now()
		var err error
		if in, err = w.setup(seed, sc); err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	rep := &report{workload: w.name, seed: seed, defs: endToEnd, values: map[string]float64{}}
	if traced {
		rep.defs = perLayer
	}
	var plain, withTrace []float64
	var first *passResult
	var lastTrace *tracer
	byClass := map[string][]float64{}
	var all []float64
	sums := map[string][]float64{}
	queries := 0
	begin := time.Now()
	for time.Since(begin).Seconds() < seconds || len(rep.passWalls) < 2 {
		var tr *tracer
		if traced && len(rep.passWalls)%2 == 1 {
			tr = newTracer()
		}
		runtime.GC()
		before := takeRuntimeSnap()
		p := w.pass(in, tr)
		after := takeRuntimeSnap()
		p.c["runtime.alloc_bytes"] = after.allocBytes - before.allocBytes
		p.c["runtime.gc_cpu_s"] = after.gcCPU - before.gcCPU
		p.c["runtime.cpu_s"] = after.totalCPU - before.totalCPU
		rep.passWalls = append(rep.passWalls, p.wall.Seconds())
		if tr != nil {
			withTrace = append(withTrace, p.wall.Seconds())
			lastTrace, rep.tracedVerdict = tr, p.wall
		} else {
			plain = append(plain, p.wall.Seconds())
		}
		queries = p.attempted
		rep.attempted += p.attempted
		rep.failed += p.failed
		rep.failures = append(rep.failures, p.failures...)
		for _, s := range p.samples {
			ms := float64(s.d.Nanoseconds()) / 1e6
			byClass[s.class] = append(byClass[s.class], ms)
			all = append(all, ms)
		}
		// A traced run takes its per-layer sums from the traced passes only:
		// some (what the daemon says of a job) are gathered only there.
		if !traced || tr != nil {
			for k, v := range p.c {
				sums[k] = append(sums[k], v)
			}
		}
		if first == nil {
			first = p
		} else if w.exactRepeat && p.exact != first.exact && rep.repeatErr == "" {
			rep.repeatErr = fmt.Sprintf("pass %d counted %+v, pass 1 counted %+v", len(rep.passWalls), p.exact, first.exact)
		}
	}
	if rep.attempted == 0 {
		return nil, nil, fmt.Errorf("%s: no query was attempted", w.name)
	}
	if len(rep.failures) > maxFailuresShown {
		rep.failures = rep.failures[:maxFailuresShown]
	}

	v := rep.values
	if !traced {
		verdict := median(plain)
		v["setup_s"] = median(setups)
		v["verdict_s"] = verdict
		v["peak_rss_mb"] = peakRSSMB()
		v["cold_p50_ms"] = median(byClass[classCold])
		// The batch workloads have no cache in front of them: a repeated
		// or a follow-up query costs what the first one did, so their hit
		// and warm latencies are the cold latency.
		v["hit_p50_ms"], v["warm_p50_ms"] = v["cold_p50_ms"], v["cold_p50_ms"]
		if xs := byClass[classHit]; len(xs) > 0 {
			v["hit_p50_ms"] = median(xs)
		}
		if xs := byClass[classWarm]; len(xs) > 0 {
			v["warm_p50_ms"] = median(xs)
		}
		v["throughput_qps"] = ratio(float64(queries), verdict)
		return rep, nil, nil
	}

	c := counters{}
	for k, xs := range sums {
		c[k] = median(xs)
	}
	for _, d := range perLayer {
		v[d.name] = c[d.name] // the additive ones; the derived ones follow
	}
	v["config.parse_mb_per_s"] = ratio(c["config.parse_bytes"]/1e6, c["config.parse_s"])
	v["tiered.hit_share"] = ratio(c["tiered.hits"], c["tiered.goals"])
	v["modular.alias_hit_share"] = ratio(c["modular.alias_hits"], c["modular.components"])
	v["modular.residue_share"] = ratio(c["modular.residue"], c["modular.goals"])
	v["passes.shrink_ratio"] = ratio(c["passes.terms_after"], c["passes.terms_before"])
	v["sat.propagations_per_s"] = ratio(c["sat.propagations"], c["sat.solve_s"])
	v["sat.conflicts_per_s"] = ratio(c["sat.conflicts"], c["sat.solve_s"])
	v["drat.lits_per_s"] = ratio(c["drat.lits"], c["drat.check_s"])
	v["drat.check_over_solve"] = ratio(c["drat.check_s"], c["sat.solve_s"])
	v["service.http_s"] = c["service.request_s"] - c["service.queued_s"] - c["service.run_s"]
	v["service.queue_wait_ms"] = ratio(c["service.queued_s"]*1e3, c["service.requests"])
	v["service.cache_hit_share"] = ratio(c["service.cache_hits"], c["service.requests"])
	v["service.session_reuse_share"] = ratio(c["service.session_reuse"], c["service.requests"])
	v["service.compile_reuse_share"] = ratio(c["service.compile_reuse"], c["service.compiles"])
	v["service.fastpath_hit_share"] = ratio(c["service.fastpath_hits"], c["service.fastpath_hits"]+c["service.fastpath_residue"])
	// The tail is taken over every query of the run; with fewer than a
	// thousand samples a 99th percentile has under ten values beyond it.
	v["service.query_p99_ms"] = quantile(all, 0.99)
	v["service.query_samples"] = float64(len(all))
	v["runtime.alloc_mb"] = c["runtime.alloc_bytes"] / (1 << 20)
	v["runtime.gc_cpu_share"] = ratio(c["runtime.gc_cpu_s"], c["runtime.cpu_s"])
	v["trace.overhead"] = ratio(median(withTrace), median(plain))
	self := lastTrace.selfTimes()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	v["trace.unattributed_share"] = ratio(self["bench"].Seconds(), total.Seconds())
	return rep, lastTrace, nil
}
