// Command bench regenerates the paper's evaluation tables and figures
// (§8): the per-network verification-time series of Figure 7 with the
// four-property violation counts over an operational population (§8.1),
// the data-center property sweep of Figure 8, and the §8.3 optimization
// ablation. Output is tab-separated rows, one series per block, matching
// the rows/series the paper reports.
//
// Usage:
//
//	bench -experiment fig7       [-count 152] [-seed 1] [-json-out BENCH_fig7.json]
//	bench -experiment fig8       [-pods 2,4,6] [-props all] [-json-out BENCH_fig8.json] [-certify]
//	bench -experiment fig8       -profile-origins [-profile-out BENCH_origins.folded]
//	bench -experiment fig8       -tiers graph,sat   (answer rows through the graph fast path)
//	bench -experiment tiered     [-pods 2,4] [-json-out BENCH_tiered.json]
//	bench -experiment modular    [-pods 2,4,16,32] [-mono-max 4] [-workers N] [-json-out BENCH_modular.json]
//	bench -experiment ablation   [-pods 4] [-json-out BENCH_ablation.json]
//	bench -experiment fuzz       [-iters 2] [-seed 1]
//
// The modular experiment runs the assume/guarantee pipeline
// (internal/modular) on every Figure 8 property per fabric size: cut at
// the eBGP interfaces, verify one representative per isomorphism class
// of components, compose the blamed verdicts. Fabrics with pods <=
// -mono-max are also answered monolithically and the verdicts must
// agree (a disagreement exits nonzero); larger fabrics — where the
// monolithic encoding is infeasible — report the modular side alone.
//
// The tiered experiment answers every Figure 8 row twice — once on the
// sound graph fast path (internal/tiered), once on the SAT pipeline —
// reports the fast path's hit rate and per-row speedup, and exits
// nonzero if any definitive graph verdict disagrees with the solver. The
// whole-network properties also get a row scoped to the destination
// subnet (property@subnet).
// Plain fig8 runs stay untiered unless -tiers graph,sat is passed, so
// the committed BENCH_fig8.json baseline keeps measuring the solver.
//
// With -certify, fig8 records a DRAT proof trace per query and replays it
// through the independent checker; a row's proof block reports the
// certificate size and overhead.
//
// Every experiment but fuzz writes its rows as a JSON artifact too. Each
// row is the verdict's pipeline.Report — the object minesweeper -json
// prints and the daemon serves — keyed by the fabric (pods) or audit
// network it was asked of, plus the few columns only a comparison of two
// answers has: the tiered sweep's graph side, the modular sweep's
// monolithic reference, fig8's origin-tracking overhead, the ablation's
// model size and speedup over the naive encoding.
//
// The fuzz experiment is a deterministic smoke run of the differential
// fuzzing subsystem (internal/fuzz): every scenario family is generated
// -iters times and pushed through all oracles — simulator differential,
// pass-pipeline/renaming/execution-path metamorphic parity, and DRAT
// certification of every UNSAT verdict.
//
// With -profile-origins, fig8 answers every query twice — once plain,
// once with solver origin attribution — reports the attribution overhead
// on solve time per row (origin_overhead_pct in the JSON artifact), and
// writes the merged per-origin hot-constraint profile as a
// flamegraph-compatible collapsed-stack file (-profile-out).
//
// Observability: -trace-chrome FILE writes the span tree of a
// fig8/ablation run as Chrome trace_event JSON, and -progress N prints
// solver progress to stderr every N conflicts. -cpuprofile/-memprofile
// write runtime/pprof profiles of the bench process itself.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/sat"
	"repro/internal/tiered"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "fig7 | fig8 | tiered | modular | ablation | fuzz")
		count      = flag.Int("count", 152, "population size for fig7")
		seed       = flag.Int64("seed", 1, "population base seed")
		podsFlag   = flag.String("pods", "2,4,6", "comma-separated pod counts for fig8/ablation")
		propsFlag  = flag.String("props", "all", "comma-separated figure-8 properties, or 'all'")
		jsonOut    = flag.String("json-out", "BENCH_<experiment>.json", "JSON artifact path of every experiment but fuzz ('' to skip)")
		traceOut   = flag.String("trace-chrome", "", "write the fig8/ablation span tree as Chrome trace_event JSON to this file")
		progress   = flag.String("progress", "", "print solver progress to stderr every N conflicts")
		passesFlag = flag.String("passes", "", "optimization passes: comma list of "+strings.Join(core.PassNames(), ",")+", or all/none (default: all; ablation pins its own)")
		tiersFlag  = flag.String("tiers", "none", "fig8: verification tiers (graph,sat enables the fast path; the default measures the solver)")
		certify    = flag.Bool("certify", false, "fig8: record DRAT proofs and check verified verdicts, adding the proof columns")
		monoMax    = flag.Int("mono-max", 4, "modular: largest pod count also verified monolithically for the reference comparison")
		workers    = flag.Int("workers", runtime.NumCPU(), "modular: class checks run at once")
		iters      = flag.Int("iters", 2, "fuzz: iterations per scenario family")
		profOrig   = flag.Bool("profile-origins", false, "fig8: run every query twice to measure origin-attribution overhead and collect the per-origin hot-constraint profile")
		profOut    = flag.String("profile-out", "BENCH_origins.folded", "collapsed-stack output path for -profile-origins ('' to skip)")
		cpuProf    = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a runtime/pprof heap profile at exit to this file")
	)
	flag.Parse()
	if err := core.ValidatePasses(*passesFlag); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if err := tiered.ValidateTiers(*tiersFlag); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}()
	}

	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.New("bench:" + *experiment)
	}
	every := int64(0)
	if *progress != "" {
		n, err := strconv.ParseInt(*progress, 10, 64)
		if err != nil || n <= 0 {
			fmt.Fprintln(os.Stderr, "bench: -progress wants a positive integer")
			os.Exit(2)
		}
		every = n
	}

	out := strings.Replace(*jsonOut, "<experiment>", *experiment, 1)
	var err error
	switch *experiment {
	case "fig7":
		err = runFig7(*count, *seed, out)
	case "fig8":
		var opts pipeline.Options
		opts.Core = core.Options{Passes: *passesFlag, Tiers: *tiersFlag, Certify: *certify}
		err = runFig8(parseInts(*podsFlag), parseProps(*propsFlag), out, tr, every, opts, *profOrig, *profOut)
	case "tiered":
		err = runTiered(parseInts(*podsFlag), parseProps(*propsFlag), out, *passesFlag)
	case "modular":
		err = runModular(parseInts(*podsFlag), parseProps(*propsFlag), out, *passesFlag, *monoMax, *workers)
	case "ablation":
		ks := parseInts(*podsFlag)
		if len(ks) == 0 {
			ks = []int{4}
		}
		err = runAblation(ks[0], out, tr, every)
	case "fuzz":
		err = runFuzz(*iters, *seed)
	default:
		fmt.Fprintln(os.Stderr, "usage: bench -experiment fig7|fig8|tiered|modular|ablation|fuzz")
		os.Exit(2)
	}
	if err == nil && tr != nil {
		tr.Root().End()
		tr.SampleMem()
		err = writeTrace(tr, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func writeTrace(tr *obs.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON writes an experiment's rows as its indented JSON artifact; an
// empty path skips it.
func writeJSON(path string, rows []row) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d rows)\n", path, len(rows))
	return nil
}

// withProgress returns opts whose solvers print progress to stderr every
// n conflicts when n > 0.
func withProgress(opts core.Options, every int64, label string) core.Options {
	if every > 0 {
		opts.ProgressEvery = every
		opts.OnProgress = func(p sat.Progress) {
			fmt.Fprintf(os.Stderr, "progress %s: conflicts=%d decisions=%d propagations=%d learned=%d restarts=%d\n",
				label, p.Conflicts, p.Decisions, p.Propagations, p.Learned, p.Restarts)
		}
	}
	return opts
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err == nil {
			out = append(out, n)
		}
	}
	return out
}

func parseProps(s string) []string {
	if s == "all" {
		return harness.AllFig8Props()
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// fig7Rows asks the four §8.1 checks of one population network as its
// rows, in paper order.
func fig7Rows(n *netgen.Network) ([]row, error) {
	props := harness.AllSection81Props()
	vs, err := harness.CheckNetwork(n, props)
	if err != nil {
		return nil, err
	}
	rows := make([]row, len(props))
	for i, prop := range props {
		rows[i] = newRow(prop, vs[i])
		rows[i].Network, rows[i].Routers, rows[i].Lines = n.Name, len(n.Routers), n.Lines
	}
	return rows, nil
}

// runFig7 reproduces the four timing panels of Figure 7 — verification
// time per network, sorted by total lines of configuration — and the §8.1
// violation counts in its footer. The encode_ms and solve_ms columns
// total the phase split across the four properties.
func runFig7(count int, seed int64, jsonOut string) error {
	pop, err := netgen.Population(count, seed, netgen.DefaultParams())
	if err != nil {
		return err
	}
	var art []row
	for _, n := range pop {
		rows, err := fig7Rows(n)
		if err != nil {
			return err
		}
		art = append(art, rows...)
	}
	// Stable, so a network's rows stay together and in paper order.
	sort.SliceStable(art, func(i, j int) bool { return art[i].Lines < art[j].Lines })
	props := harness.AllSection81Props()
	violations := map[string]int{}
	fmt.Println("# Figure 7: per-network verification time (ms), sorted by config lines")
	fmt.Println("network\trouters\tlines\tmgmt_ms\tequiv_ms\tblackhole_ms\tfaultinv_ms\tencode_ms\tsolve_ms")
	for i := 0; i < len(art); i += len(props) {
		line := fmt.Sprintf("%s\t%d\t%d", art[i].Network, art[i].Routers, art[i].Lines)
		var enc, solve float64
		for _, r := range art[i : i+len(props)] {
			line += fmt.Sprintf("\t%.2f", r.ElapsedMs)
			enc += r.EncodeMs
			solve += r.SolveMs
			if !r.Verified {
				violations[r.Check]++
			}
		}
		fmt.Printf("%s\t%.2f\t%.2f\n", line, enc, solve)
	}
	fmt.Printf("# violations: mgmt=%d equiv=%d blackholes=%d fault-invariance=%d of %d (paper: 67, 29, 24, 0 of 152)\n",
		violations[harness.PropMgmtReach], violations[harness.PropLocalEquiv],
		violations[harness.PropBlackholes], violations[harness.PropFaultInvar], len(pop))
	return writeJSON(jsonOut, art)
}

func toMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// row is one row of every JSON artifact bench writes: the verdict as
// pipeline.Report renders it for minesweeper -json and the daemon, keyed
// by the instance it answers, plus the columns only a comparison of two
// answers has. A verdict is read once, by pipeline.NewReport.
type row struct {
	// Pods keys a fabric's row, Network (and its configuration Lines) an
	// audit network's; Subnet is set on the scoped row of a whole-network
	// property, Passes on an ablation row.
	Pods    int    `json:"pods,omitempty"`
	Network string `json:"network,omitempty"`
	Routers int    `json:"routers"`
	Lines   int    `json:"lines,omitempty"`
	// Check shadows the Report's (the same name), so that a row without
	// a verdict still names its question.
	Check  string `json:"check"`
	Subnet string `json:"subnet,omitempty"`
	Passes string `json:"passes,omitempty"`
	*pipeline.Report
	// Residue is why a modular row has no verdict (and no Report): beyond
	// -mono-max the modular step's residue is final.
	Residue string `json:"residue,omitempty"`

	// The tiered sweep's graph side: the rule that decided the row, or
	// the reason the tier could not, and the time it took.
	Rule    string  `json:"rule,omitempty"`
	Reason  string  `json:"reason,omitempty"`
	GraphMs float64 `json:"graph_ms,omitempty"`

	// The modular sweep: the run's wall clock (ElapsedMs sums its phases
	// over the workers), and its blame count in place of the Report's
	// origin strings (the pods-32 rows would each carry tens of
	// thousands). Then the monolithic reference, run when pods <=
	// -mono-max.
	ModularMs   float64 `json:"modular_ms,omitempty"`
	Blame       int     `json:"blame,omitempty"`
	MonoRan     bool    `json:"mono_ran,omitempty"`
	MonoMs      float64 `json:"mono_ms,omitempty"`
	MonoSATVars int     `json:"mono_sat_vars,omitempty"`
	// The ablation: the symbolic model's build time (the Report's
	// encode_ms is the CNF's) and its record variables.
	ModelEncodeMs float64 `json:"model_encode_ms,omitempty"`
	RecordVars    int     `json:"record_vars,omitempty"`

	// Speedup is the other answer's time over this one's (the ablation's:
	// the naive encoding's); Agree is set when a second pipeline answered
	// the row and reached its verdict.
	Speedup float64 `json:"speedup,omitempty"`
	Agree   bool    `json:"agree,omitempty"`

	// With -profile-origins: the solve time of fig8's origin-tracked
	// rerun and its overhead over the plain solve, in percent.
	TrackedSolveMs    float64 `json:"tracked_solve_ms,omitempty"`
	OriginOverheadPct float64 `json:"origin_overhead_pct,omitempty"`
}

// newRow is the row of a check; a verdict without a Result (or none at
// all) leaves its Report nil.
func newRow(check string, v *pipeline.Verdict) row {
	r := row{Check: check}
	if v != nil && v.Result != nil {
		r.Report = pipeline.NewReport(check, v)
	}
	return r
}

// fig8Row answers one Figure 8 property on a fabric under opts as its row.
func fig8Row(f *harness.Fabric, prop string, opts pipeline.Options) (row, error) {
	v, err := harness.RunFig8Property(f, prop, opts)
	if err != nil {
		return row{}, err
	}
	r := newRow(prop, v)
	r.Pods, r.Routers = f.FT.K, len(f.FT.Routers)
	return r, nil
}

// runFig8 reproduces Figure 8: verification time per property per fabric
// size, every row answered under opts.
func runFig8(pods []int, props []string, jsonOut string, tr *obs.Trace, every int64, opts pipeline.Options, profOrig bool, profOut string) error {
	fmt.Println("# Figure 8: verification time (ms) per property and fabric size")
	fmt.Println("pods\trouters\tproperty\ttier\tms\tencode_ms\tsimplify_ms\tsolve_ms\tfastpath_ms\tverified\tsat_vars\tsat_clauses\tconflicts\tdecisions\tpropagations\tdb_bytes\tproof_bytes\tproof_steps\tproof_lemmas\tproof_fallbacks\tproof_check_ms")
	var art []row
	var profiles []*provenance.Profile
	var baseSolve, trackedSolve float64
	for _, k := range pods {
		f, err := harness.BuildFabric(k)
		if err != nil {
			return err
		}
		podSp := tr.Root().Start(fmt.Sprintf("pods:%d", k))
		label := fmt.Sprintf("pods=%d", k)
		podOpts := opts
		podOpts.Core.Span = podSp
		podOpts.Core = withProgress(podOpts.Core, every, label)
		for _, prop := range props {
			r, err := fig8Row(f, prop, podOpts)
			if err != nil {
				return err
			}
			var st pipeline.SolverStats
			if r.Solver != nil {
				st = *r.Solver
			}
			var pf pipeline.ProofInfo
			if r.Proof != nil {
				pf = *r.Proof
			}
			w := r.Cost.Total()
			fmt.Printf("%d\t%d\t%s\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\n",
				r.Pods, r.Routers, r.Check, r.Tier,
				r.ElapsedMs, r.EncodeMs, r.SimplifyMs, r.SolveMs, r.FastPathMs,
				r.Verified, r.SATVars, r.SATClauses, st.Conflicts,
				st.Decisions, st.Propagations, w.ClauseDBBytes, w.ProofBytes,
				pf.Steps, pf.Lemmas, pf.Fallbacks, pf.CheckMs)
			if profOrig && prop != harness.Fig8LocalConsist {
				// Rerun with attribution on: the delta on solve time is the
				// cost of origin tracking; the profile is the payoff.
				tracked := podOpts
				tracked.Core.ProfileOrigins = true
				tv, err := harness.RunFig8Property(f, prop, tracked)
				if err != nil {
					return err
				}
				tres := tv.Result
				profiles = append(profiles, tres.OriginProfile)
				r.TrackedSolveMs = toMs(tres.SolveElapsed)
				baseSolve += r.SolveMs
				trackedSolve += r.TrackedSolveMs
				if r.SolveMs > 0 {
					r.OriginOverheadPct = 100 * (r.TrackedSolveMs/r.SolveMs - 1)
				}
				if tr != nil && tres.OriginProfile != nil {
					for _, o := range tres.OriginProfile.Rows {
						tr.Observe("origin.conflicts", float64(o.Conflicts))
						tr.Observe("origin.propagations", float64(o.Propagations))
					}
				}
			}
			art = append(art, r)
		}
		podSp.End()
	}
	if profOrig {
		overall := 0.0
		if baseSolve > 0 {
			overall = 100 * (trackedSolve/baseSolve - 1)
		}
		fmt.Printf("# origin tracking overhead: %.1f%% on aggregate solve time (%.1fms plain, %.1fms tracked)\n",
			overall, baseSolve, trackedSolve)
		if profOut != "" {
			merged := provenance.MergeProfiles(profiles...)
			pf, err := os.Create(profOut)
			if err != nil {
				return err
			}
			if err := merged.WriteCollapsed(pf); err != nil {
				pf.Close()
				return err
			}
			if err := pf.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "bench: wrote %s (%d origins)\n", profOut, len(merged.Rows))
		}
	}
	return writeJSON(jsonOut, art)
}

// tieredRow asks a goal twice — of the sound graph fast path, timed here,
// and of the SAT pipeline under satOpts (tiers off) — as the tiered
// sweep's row. With satAlways false the solver answers only the rows the
// tier decided. A definitive graph verdict the solver contradicts is a
// soundness bug: the row comes back with an error.
func tieredRow(net *pipeline.Network, check string, goal tiered.Goal, satOpts pipeline.Options, satAlways bool) (row, error) {
	start := time.Now()
	out := net.Analysis().Decide(goal)
	graphMs := toMs(time.Since(start))
	var v *pipeline.Verdict
	if out.Decided || satAlways {
		var err error
		if v, err = pipeline.Run(context.Background(), net, goal, satOpts); err != nil {
			return row{}, err
		}
	}
	r := newRow(check, v)
	r.Rule, r.Reason, r.GraphMs = out.Rule(), out.Reason, graphMs
	if !out.Decided {
		return r, nil
	}
	if r.Agree = out.Verified == r.Verified; !r.Agree {
		return r, fmt.Errorf("graph says verified=%v, sat says verified=%v", out.Verified, r.Verified)
	}
	if graphMs > 0 {
		r.Speedup = r.ElapsedMs / graphMs
	}
	return r, nil
}

// tierOf names the tier that decided a tiered-sweep row.
func tierOf(r row) string {
	if r.Rule != "" {
		return tiered.TierGraph
	}
	return tiered.TierSAT
}

// runTiered answers every Figure 8 row twice — once on the sound graph
// fast path, once on the untiered SAT pipeline — and reports hit rate,
// per-row speedup, and verdict agreement. The whole-network properties
// get a second, subnet-scoped row (Fig8ModularGoal's form). Then it asks
// the audit population (runTieredAudit). Any definitive graph verdict
// that disagrees with the solver is a soundness bug: the sweep fails.
func runTiered(pods []int, props []string, jsonOut, passes string) error {
	fmt.Println("# tiered sweep: graph fast path vs SAT pipeline per Figure 8 row")
	fmt.Println("pods\trouters\tproperty\ttier\treason\tgraph_ms\tsat_ms\tspeedup\tverified\tagree")
	// The SAT side runs with the graph tier off; the fast path is timed
	// separately here.
	var satOpts pipeline.Options
	satOpts.Core = core.Options{Passes: passes, Tiers: "none"}
	var art []row
	hits, covered := 0, 0
	var graphTotal, satTotal float64
	for _, k := range pods {
		f, err := harness.BuildFabric(k)
		if err != nil {
			return err
		}
		for _, prop := range props {
			goal, ok := harness.Fig8Goal(f, prop)
			if !ok {
				// No graph-tier translation for this property class
				// (local-consistency); skip rather than report a row
				// the fast path never sees.
				continue
			}
			goals := []tiered.Goal{goal}
			if !goal.HasSubnet {
				scoped, _ := harness.Fig8ModularGoal(f, prop)
				goals = append(goals, scoped)
			}
			for i, g := range goals {
				r, err := tieredRow(f.Net, prop, g, satOpts, true)
				r.Pods, r.Routers = k, len(f.FT.Routers)
				name := prop
				if i > 0 {
					r.Subnet = g.Subnet.String()
					name += "@" + r.Subnet
				}
				if err != nil {
					return fmt.Errorf("tiered pods=%d %s: %w", k, name, err)
				}
				covered++
				if r.Rule != "" {
					hits++
					graphTotal += r.GraphMs
					satTotal += r.ElapsedMs
				}
				fmt.Printf("%d\t%d\t%s\t%s\t%s\t%.2f\t%.1f\t%.1f\t%v\t%v\n",
					r.Pods, r.Routers, name, tierOf(r), r.Reason,
					r.GraphMs, r.ElapsedMs, r.Speedup, r.Verified, r.Rule == "" || r.Agree)
				art = append(art, r)
			}
		}
	}
	if covered > 0 {
		fmt.Printf("# fast-path hit rate: %d/%d rows (%.0f%%)\n",
			hits, covered, 100*float64(hits)/float64(covered))
	}
	if hits > 0 && graphTotal > 0 {
		fmt.Printf("# aggregate speedup on hit rows: %.0fx (%.2fms graph vs %.1fms sat)\n",
			satTotal/graphTotal, graphTotal, satTotal)
	}
	rows, err := runTieredAudit(satOpts)
	if err != nil {
		return err
	}
	return writeJSON(jsonOut, append(art, rows...))
}

// auditChecks are the checks runTieredAudit asks of each audit network,
// in report order.
var auditChecks = []string{"reachability", "isolation", "waypoint", "bounded-length",
	"blackholes", "loops", "multipath-consistency", "mgmt-reachability"}

// runTieredAudit asks the 24 netgen.Audit networks the enterprise-audit
// benchmark draws — inside the deterministic path's layered fragment,
// every one, and the hijackable half residue external-influence there —
// the per-source checks from the first border to the first access subnet
// (waypoint through the first core, bounded-length at one hop), the
// whole-network checks scoped to that subnet, and management
// reachability. Only the rows the graph tier decides are answered on the
// SAT pipeline too (the others have no Report), and a disagreement fails
// the sweep. It prints, per check, the share of rows each rule decided.
func runTieredAudit(satOpts pipeline.Options) ([]row, error) {
	fmt.Println("# audit population: graph tier vs SAT pipeline (the solver answers decided rows only)")
	fmt.Println("network\trouters\tproperty\ttier\treason\tgraph_ms\tsat_ms\tverified\tagree")
	rules := []string{"stable-state", "may-graph", "simulated", "vacuity"}
	decided := map[string]map[string]int{}
	asked := map[string]int{}
	var art []row
	for size := 2; size <= 25; size++ {
		n, err := netgen.Audit(size)
		if err != nil {
			return nil, err
		}
		if len(n.Access) == 0 {
			continue
		}
		net, err := pipeline.Build(n.Routers)
		if err != nil {
			return nil, err
		}
		subnet := network.MustParsePrefix("10.10.0.0/24")
		via := n.Borders[0]
		if len(n.Cores) > 0 {
			via = n.Cores[0]
		}
		for _, check := range auditChecks {
			goal := tiered.Goal{Check: check, Src: n.Borders[0], Via: via, Hops: 1, Subnet: subnet, HasSubnet: true}
			if check == "mgmt-reachability" {
				goal = tiered.Goal{Check: check}
			}
			r, err := tieredRow(net, check, goal, satOpts, false)
			if err != nil {
				return nil, fmt.Errorf("tiered %s %s: %w", n.Name, check, err)
			}
			r.Network, r.Routers = n.Name, len(n.Routers)
			asked[check]++
			sat := "-\t-\t-"
			if r.Rule != "" {
				if decided[check] == nil {
					decided[check] = map[string]int{}
				}
				decided[check][r.Rule]++
				sat = fmt.Sprintf("%.1f\t%v\t%v", r.ElapsedMs, r.Verified, r.Agree)
			}
			fmt.Printf("%s\t%d\t%s\t%s\t%s\t%.2f\t%s\n",
				r.Network, r.Routers, r.Check, tierOf(r), r.Reason, r.GraphMs, sat)
			art = append(art, r)
		}
	}
	fmt.Println("# audit decided share by rule")
	fmt.Println("property\trows\t" + strings.Join(rules, "\t") + "\tresidue")
	for _, check := range auditChecks {
		line, left := fmt.Sprintf("%s\t%d", check, asked[check]), asked[check]
		for _, r := range rules {
			k := decided[check][r]
			left -= k
			line += fmt.Sprintf("\t%.2f", float64(k)/float64(asked[check]))
		}
		fmt.Printf("%s\t%.2f\n", line, float64(left)/float64(asked[check]))
	}
	return art, nil
}

// modularRow answers a Figure 8 property on a fabric through the
// assume/guarantee pipeline — the graph tier off, blame on, workers class
// checks at once — and, when the fabric has at most monoMax pods,
// monolithically too, as the modular sweep's row (ok=false for
// local-consistency, a pairwise-equivalence sweep the modular and tiered
// vocabulary do not model). A verdict the monolithic reference
// contradicts is a soundness bug: an error.
func modularRow(f *harness.Fabric, prop, passes string, workers, monoMax int) (r row, ok bool, err error) {
	goal, ok := harness.Fig8ModularGoal(f, prop)
	if !ok {
		return row{}, false, nil
	}
	opts := pipeline.Options{Modular: true}
	opts.Workers = workers
	opts.Core.Tiers, opts.Core.Blame, opts.Core.Passes = "none", true, passes
	// Beyond monoMax the whole-network encoding is off the table, so a
	// surprise residue must surface as an undecided row rather than
	// quietly starting an infeasible monolithic solve.
	opts.NoFallback = f.FT.K > monoMax
	ctx := context.Background()
	start := time.Now()
	v, err := pipeline.Run(ctx, f.Net, goal, opts)
	if err != nil {
		return row{}, true, fmt.Errorf("modular pods=%d %s: %w", f.FT.K, prop, err)
	}
	r = newRow(prop, v)
	r.Pods, r.Routers, r.ModularMs = f.FT.K, len(f.FT.Routers), toMs(time.Since(start))
	if v.Result == nil {
		r.Residue = strings.Join(v.Residue, ",")
	} else {
		r.Blame = len(v.Result.Blame)
	}
	if opts.NoFallback {
		return r, true, nil
	}
	// The same goal, answered on the whole network: the composition
	// against the solve it replaces.
	opts.Modular = false
	start = time.Now()
	mv, err := pipeline.Run(ctx, f.Net, goal, opts)
	if err != nil {
		return row{}, true, fmt.Errorf("monolithic pods=%d %s: %w", f.FT.K, prop, err)
	}
	r.MonoRan, r.MonoMs, r.MonoSATVars = true, toMs(time.Since(start)), mv.Result.SATVars
	if r.ModularMs > 0 {
		r.Speedup = r.MonoMs / r.ModularMs
	}
	if r.Agree = mv.Result.Verified == r.Verified; !r.Agree {
		return r, true, fmt.Errorf("modular disagreement on pods=%d %s: modular says verified=%v (mode %s), monolithic disagrees",
			f.FT.K, prop, r.Verified, r.Mode)
	}
	return r, true, nil
}

// runModular reproduces the modular-verification scaling comparison:
// each Figure 8 property per fabric size through the assume/guarantee
// pipeline, against the monolithic encoding wherever the latter is
// still feasible (pods <= monoMax). Verdict parity on the shared rows
// is enforced — any disagreement is a soundness bug and exits nonzero.
func runModular(pods []int, props []string, jsonOut, passes string, monoMax, workers int) error {
	fmt.Println("# modular assume/guarantee vs monolithic per Figure 8 row")
	fmt.Println("pods\trouters\tproperty\tmode\tmodular_ms\tcomps\tclasses\talias\tchecks\tpeak_terms\tsat_vars\tblame\tunits\tdb_bytes\tmono_ms\tspeedup\tverified\tagree")
	var art []row
	var modTotal, monoTotal float64
	shared := 0
	for _, k := range pods {
		f, err := harness.BuildFabric(k)
		if err != nil {
			return err
		}
		for _, prop := range props {
			r, ok, err := modularRow(f, prop, passes, workers, monoMax)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			// An undecided row has no Report: its mode reads "residue".
			rep := pipeline.Report{Mode: "residue"}
			if r.Report != nil {
				rep = *r.Report
			}
			w := rep.Cost.Total()
			monoCol, speedCol, agreeCol := "-", "-", "-"
			if r.MonoRan {
				shared++
				modTotal += r.ModularMs
				monoTotal += r.MonoMs
				monoCol = fmt.Sprintf("%.1f", r.MonoMs)
				speedCol = fmt.Sprintf("%.1fx", r.Speedup)
				agreeCol = fmt.Sprintf("%v", r.Agree)
			}
			fmt.Printf("%d\t%d\t%s\t%s\t%.1f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%v\t%s\n",
				r.Pods, r.Routers, r.Check, rep.Mode, r.ModularMs,
				rep.Components, rep.ComponentClasses, rep.AliasHits, rep.ComponentChecks,
				rep.PeakTerms, rep.SATVars, r.Blame, w.Units(),
				w.ClauseDBBytes, monoCol, speedCol,
				rep.Verified, agreeCol)
			art = append(art, r)
		}
	}
	if shared > 0 && modTotal > 0 {
		fmt.Printf("# shared rows (pods<=%d): %d, aggregate speedup %.1fx (%.1fms modular vs %.1fms monolithic)\n",
			monoMax, shared, monoTotal/modTotal, modTotal, monoTotal)
	}
	return writeJSON(jsonOut, art)
}

// runFuzz is the deterministic smoke run of the fuzzing subsystem: every
// scenario family from internal/fuzz is generated -iters times and pushed
// through all oracles (simulator differential where sim-safe, metamorphic
// parity, DRAT certification of every UNSAT verdict). Any disagreement
// aborts the run with the reproducing seed bytes.
func runFuzz(iters int, seed int64) error {
	fmt.Printf("# fuzz smoke: %d iteration(s) over %d scenario families (seed %d)\n",
		iters, fuzz.Families(), seed)
	fmt.Println("family\tscenario\tsimsafe\toracles_ms")
	total := 0
	for it := 0; it < iters; it++ {
		for fam := 0; fam < fuzz.Families(); fam++ {
			data := []byte{byte(fam), byte(seed), byte(seed >> 8), byte(it)}
			s, rng, err := fuzz.FromSeed(data)
			if err != nil {
				return fmt.Errorf("fuzz family %d iter %d: %w", fam, it, err)
			}
			start := time.Now()
			if err := s.CheckAll(rng, 2); err != nil {
				return fmt.Errorf("fuzz %s (seed % x): %w", s.Name, data, err)
			}
			fmt.Printf("%d\t%s\t%v\t%.1f\n", fam, s.Name, s.SimSafe,
				float64(time.Since(start).Microseconds())/1000)
			total++
		}
	}
	fmt.Printf("# %d scenarios checked, all oracles agree\n", total)
	return nil
}

// ablationRow answers the §8.3 query on a fabric under opts as its row,
// timing the symbolic model's build in the monolithic step's Live hook.
func ablationRow(f *harness.Fabric, opts pipeline.Options) (row, error) {
	var encode time.Duration
	opts.Live = func() (*core.Model, *core.Session, error) {
		start := time.Now()
		m, err := core.Encode(f.Net.Graph, opts.Core)
		encode = time.Since(start)
		return m, nil, err
	}
	v, err := harness.RunAblation(f, opts)
	if err != nil {
		return row{}, err
	}
	r := newRow(harness.Fig8ReachSingle, v)
	r.Pods, r.Routers, r.Passes = f.FT.K, len(f.FT.Routers), opts.Core.Passes
	r.ModelEncodeMs, r.RecordVars = toMs(encode), v.Model.NumRecordVars
	return r, nil
}

// runAblation reproduces the §8.3 optimization-effectiveness measurement:
// one row per pass configuration, its speedup over the naive encoding's.
func runAblation(k int, jsonOut string, tr *obs.Trace, every int64) error {
	f, err := harness.BuildFabric(k)
	if err != nil {
		return err
	}
	fmt.Printf("# §8.3 ablation: single-source reachability on a %d-pod fabric (%d routers)\n",
		k, len(f.FT.Routers))
	fmt.Println("config\tencode_ms\tcheck_ms\tcnf_ms\tsimplify_ms\tsolve_ms\trecord_vars\tsat_vars\tsat_clauses\tconflicts\tspeedup")
	var art []row
	for _, passes := range harness.AblationPasses() {
		var opts pipeline.Options
		opts.Core = withProgress(core.Options{Passes: passes, Span: tr.Root()}, every, fmt.Sprintf("pods=%d", k))
		r, err := ablationRow(f, opts)
		if err != nil {
			return err
		}
		r.Speedup = 1
		if len(art) > 0 {
			r.Speedup = art[0].ElapsedMs / r.ElapsedMs
		}
		fmt.Printf("%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\t%d\t%d\t%.1fx\n",
			r.Passes, r.ModelEncodeMs, r.ElapsedMs, r.EncodeMs, r.SimplifyMs, r.SolveMs,
			r.RecordVars, r.SATVars, r.SATClauses, r.Solver.Conflicts, r.Speedup)
		art = append(art, r)
	}
	return writeJSON(jsonOut, art)
}
