// Command bench regenerates the paper's evaluation tables and figures
// (§8): the four-property violation counts over an operational population
// (§8.1), the per-network verification-time series of Figure 7, the
// data-center property sweep of Figure 8, and the §8.3 optimization
// ablation. Output is tab-separated rows, one series per block, matching
// the rows/series the paper reports.
//
// Usage:
//
//	bench -experiment violations [-count 152] [-seed 1]
//	bench -experiment fig7       [-count 152] [-seed 1]
//	bench -experiment fig8       [-pods 2,4,6] [-props all] [-json-out BENCH_fig8.json] [-certify]
//	bench -experiment fig8       -profile-origins [-profile-out BENCH_origins.folded]
//	bench -experiment fig8       -tiers graph,sat   (answer rows through the graph fast path)
//	bench -experiment tiered     [-pods 2,4] [-json-out BENCH_tiered.json]
//	bench -experiment modular    [-pods 2,4,16,32] [-mono-max 4] [-workers N] [-json-out BENCH_modular.json]
//	bench -experiment ablation   [-pods 4]
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
// through the independent checker; the proof_steps/proof_lemmas/
// proof_check_ms columns report the certificate size and overhead.
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
		experiment = flag.String("experiment", "", "violations | fig7 | fig8 | tiered | modular | ablation | fuzz")
		count      = flag.Int("count", 152, "population size for violations/fig7")
		seed       = flag.Int64("seed", 1, "population base seed")
		podsFlag   = flag.String("pods", "2,4,6", "comma-separated pod counts for fig8/ablation")
		propsFlag  = flag.String("props", "all", "comma-separated figure-8 properties, or 'all'")
		jsonOut    = flag.String("json-out", "BENCH_<experiment>.json", "fig8/tiered/modular: JSON artifact path ('' to skip)")
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
	case "violations":
		err = runViolations(*count, *seed)
	case "fig7":
		err = runFig7(*count, *seed)
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
		err = runAblation(ks[0], tr, every)
	case "fuzz":
		err = runFuzz(*iters, *seed)
	default:
		fmt.Fprintln(os.Stderr, "usage: bench -experiment violations|fig7|fig8|tiered|modular|ablation|fuzz")
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
func writeJSON[T any](path string, rows []T) error {
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

// runViolations reproduces the §8.1 violation counts.
func runViolations(count int, seed int64) error {
	pop, err := netgen.Population(count, seed, netgen.DefaultParams())
	if err != nil {
		return err
	}
	sum, err := harness.RunSection81(pop, harness.AllSection81Props())
	if err != nil {
		return err
	}
	fmt.Printf("# §8.1 violations over %d networks (paper: 67, 29, 24, 0 of 152)\n", sum.Total)
	fmt.Println("property\tviolations")
	for _, prop := range harness.AllSection81Props() {
		fmt.Printf("%s\t%d\n", prop, sum.Violations[prop])
	}
	fmt.Printf("total\t%d\n", sum.Violations[harness.PropMgmtReach]+
		sum.Violations[harness.PropLocalEquiv]+
		sum.Violations[harness.PropBlackholes]+
		sum.Violations[harness.PropFaultInvar])
	return nil
}

// runFig7 reproduces the four timing panels of Figure 7: verification time
// per network, sorted by total lines of configuration. The encode_ms and
// solve_ms columns total the phase split across the four properties.
func runFig7(count int, seed int64) error {
	pop, err := netgen.Population(count, seed, netgen.DefaultParams())
	if err != nil {
		return err
	}
	sum, err := harness.RunSection81(pop, harness.AllSection81Props())
	if err != nil {
		return err
	}
	sort.Slice(sum.PerNet, func(i, j int) bool { return sum.PerNet[i].Lines < sum.PerNet[j].Lines })
	fmt.Println("# Figure 7: per-network verification time (ms), sorted by config lines")
	fmt.Println("network\trouters\tlines\tmgmt_ms\tequiv_ms\tblackhole_ms\tfaultinv_ms\tencode_ms\tsolve_ms")
	for _, nc := range sum.PerNet {
		var enc, solve time.Duration
		for _, pr := range nc.Results {
			enc += pr.Result.EncodeElapsed
			solve += pr.Result.SolveElapsed
		}
		fmt.Printf("%s\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			nc.Name, nc.Routers, nc.Lines,
			toMs(nc.Results[harness.PropMgmtReach].Elapsed), toMs(nc.Results[harness.PropLocalEquiv].Elapsed),
			toMs(nc.Results[harness.PropBlackholes].Elapsed), toMs(nc.Results[harness.PropFaultInvar].Elapsed),
			toMs(enc), toMs(solve))
	}
	fmt.Printf("# violations: mgmt=%d equiv=%d blackholes=%d fault-invariance=%d of %d\n",
		sum.Violations[harness.PropMgmtReach], sum.Violations[harness.PropLocalEquiv],
		sum.Violations[harness.PropBlackholes], sum.Violations[harness.PropFaultInvar], sum.Total)
	return nil
}

func toMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// fig8JSON is one row of the BENCH_fig8.json artifact: the machine-
// diffable form of the Figure 8 table, so performance can be compared
// across revisions without parsing the text output.
type fig8JSON struct {
	Pods       int     `json:"pods"`
	Routers    int     `json:"routers"`
	Property   string  `json:"property"`
	Ms         float64 `json:"ms"`
	EncodeMs   float64 `json:"encode_ms"`
	SimplifyMs float64 `json:"simplify_ms"`
	SolveMs    float64 `json:"solve_ms"`
	Verified   bool    `json:"verified"`
	SATVars    int     `json:"sat_vars"`
	SATClauses int     `json:"sat_clauses"`
	Conflicts  int64   `json:"conflicts"`
	// Deterministic work columns: the search's counters plus the ledger's
	// clause-db/proof byte estimates. Unlike the ms columns these are
	// machine-independent, so CI's cost-gate holds them to the committed
	// baseline exactly.
	Decisions     int64 `json:"decisions,omitempty"`
	Propagations  int64 `json:"propagations,omitempty"`
	ClauseDBBytes int64 `json:"clause_db_bytes,omitempty"`
	ProofBytes    int64 `json:"proof_bytes,omitempty"`
	ProofSteps    int   `json:"proof_steps,omitempty"`
	ProofLemmas   int   `json:"proof_lemmas,omitempty"`
	// ProofHinted + ProofFallbacks are the lemmas the checker had to
	// propagate for; the CI certify job holds ProofFallbacks at zero.
	ProofHinted    int     `json:"proof_hinted,omitempty"`
	ProofFallbacks int     `json:"proof_fallbacks,omitempty"`
	ProofCheckMs   float64 `json:"proof_check_ms,omitempty"`
	// With -profile-origins: the solve time of the origin-tracked rerun
	// and its overhead relative to the plain solve, in percent.
	TrackedSolveMs    float64 `json:"tracked_solve_ms,omitempty"`
	OriginOverheadPct float64 `json:"origin_overhead_pct,omitempty"`
	// Tier names which verification tier answered the row: "sat" (the
	// solver — always the case without -tiers) or "graph" (the sound
	// fast path decided it and no SAT model was built). FastPathMs is
	// the graph attempt's cost, present only on tiered runs.
	Tier       string  `json:"tier,omitempty"`
	FastPathMs float64 `json:"fastpath_ms,omitempty"`
}

// newFig8JSON is the one reading of a Figure 8 verdict into its row.
// Untiered runs never consult the fast path, but the solver still
// answered the row: the tier is named either way, so the artifact is
// self-describing.
func newFig8JSON(f *harness.Fabric, prop string, res *core.Result) fig8JSON {
	row := fig8JSON{
		Pods: f.FT.K, Routers: len(f.FT.Routers), Property: prop,
		Ms: toMs(res.Elapsed), EncodeMs: toMs(res.EncodeElapsed),
		SimplifyMs: toMs(res.SimplifyElapsed), SolveMs: toMs(res.SolveElapsed),
		Verified: res.Verified, SATVars: res.SATVars,
		SATClauses: res.SATClauses, Conflicts: res.Stats.Conflicts,
		Decisions: res.Stats.Decisions, Propagations: res.Stats.Propagations,
		Tier: res.Tier, FastPathMs: toMs(res.FastPathElapsed),
	}
	if row.Tier == "" {
		row.Tier = tiered.TierSAT
	}
	if res.Cost != nil {
		t := res.Cost.Total()
		row.ClauseDBBytes, row.ProofBytes = t.ClauseDBBytes, t.ProofBytes
	}
	if cert := res.Certificate; cert != nil {
		row.ProofSteps, row.ProofLemmas = cert.Steps, cert.Lemmas
		row.ProofHinted, row.ProofFallbacks = cert.Hinted, cert.Fallbacks
		row.ProofCheckMs = toMs(res.CertifyElapsed)
	}
	return row
}

// runFig8 reproduces Figure 8: verification time per property per fabric
// size, every row answered under opts.
func runFig8(pods []int, props []string, jsonOut string, tr *obs.Trace, every int64, opts pipeline.Options, profOrig bool, profOut string) error {
	fmt.Println("# Figure 8: verification time (ms) per property and fabric size")
	fmt.Println("pods\trouters\tproperty\ttier\tms\tencode_ms\tsimplify_ms\tsolve_ms\tfastpath_ms\tverified\tsat_vars\tsat_clauses\tconflicts\tdecisions\tpropagations\tdb_bytes\tproof_bytes\tproof_steps\tproof_lemmas\tproof_fallbacks\tproof_check_ms")
	var art []fig8JSON
	var profiles []*provenance.Profile
	var baseSolve, trackedSolve time.Duration
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
			res, err := harness.RunFig8Property(f, prop, podOpts)
			if err != nil {
				return err
			}
			row := newFig8JSON(f, prop, res)
			fmt.Printf("%d\t%d\t%s\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\n",
				row.Pods, row.Routers, row.Property, row.Tier,
				row.Ms, row.EncodeMs, row.SimplifyMs, row.SolveMs, row.FastPathMs,
				row.Verified, row.SATVars, row.SATClauses, row.Conflicts,
				row.Decisions, row.Propagations, row.ClauseDBBytes, row.ProofBytes,
				row.ProofSteps, row.ProofLemmas, row.ProofFallbacks, row.ProofCheckMs)
			if profOrig && prop != harness.Fig8LocalConsist {
				// Rerun with attribution on: the delta on solve time is the
				// cost of origin tracking; the profile is the payoff.
				tracked := podOpts
				tracked.Core.ProfileOrigins = true
				tres, err := harness.RunFig8Property(f, prop, tracked)
				if err != nil {
					return err
				}
				profiles = append(profiles, tres.OriginProfile)
				baseSolve += res.SolveElapsed
				trackedSolve += tres.SolveElapsed
				row.TrackedSolveMs = toMs(tres.SolveElapsed)
				if res.SolveElapsed > 0 {
					row.OriginOverheadPct = 100 * (float64(tres.SolveElapsed)/float64(res.SolveElapsed) - 1)
				}
				if tr != nil && tres.OriginProfile != nil {
					for _, r := range tres.OriginProfile.Rows {
						tr.Observe("origin.conflicts", float64(r.Conflicts))
						tr.Observe("origin.propagations", float64(r.Propagations))
					}
				}
			}
			art = append(art, row)
		}
		podSp.End()
	}
	if profOrig {
		overall := 0.0
		if baseSolve > 0 {
			overall = 100 * (float64(trackedSolve)/float64(baseSolve) - 1)
		}
		fmt.Printf("# origin tracking overhead: %.1f%% on aggregate solve time (%.1fms plain, %.1fms tracked)\n",
			overall, toMs(baseSolve), toMs(trackedSolve))
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

// tieredJSON is one row of the BENCH_tiered.json artifact: the graph
// fast path and the SAT pipeline answering the same query — a Figure 8
// row of a fabric (Pods set) or a check of an audit network (Network
// set).
type tieredJSON struct {
	Pods     int    `json:"pods,omitempty"`
	Network  string `json:"network,omitempty"`
	Routers  int    `json:"routers"`
	Property string `json:"property"`
	// Subnet is set on the scoped row of a whole-network property: the
	// same check asked of the destination subnet only.
	Subnet string `json:"subnet,omitempty"`
	// Tier is "graph" when the fast path decided the row, "sat" when it
	// returned residue and the solver answered.
	Tier   string `json:"tier"`
	Reason string `json:"reason,omitempty"`
	// Rule names the graph-tier rule that decided the row (Outcome.Rule). An
	// audit row the tier leaves is not answered on the SAT pipeline: its
	// sat_ms and verified stay zero.
	Rule     string  `json:"rule,omitempty"`
	GraphMs  float64 `json:"graph_ms"`
	SatMs    float64 `json:"sat_ms"`
	Speedup  float64 `json:"speedup,omitempty"`
	Verified bool    `json:"verified"`
	Agree    bool    `json:"agree"`
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
	var art []tieredJSON
	hits, covered := 0, 0
	var graphTotal, satTotal float64
	for _, k := range pods {
		f, err := harness.BuildFabric(k)
		if err != nil {
			return err
		}
		type row struct {
			prop, subnet string // subnet: set on a scoped row
			goal         tiered.Goal
		}
		var rows []row
		for _, prop := range props {
			goal, ok := harness.Fig8Goal(f, prop)
			if !ok {
				// No graph-tier translation for this property class
				// (local-consistency); skip rather than report a row
				// the fast path never sees.
				continue
			}
			rows = append(rows, row{prop: prop, goal: goal})
			if !goal.HasSubnet {
				scoped, _ := harness.Fig8ModularGoal(f, prop)
				rows = append(rows, row{prop, scoped.Subnet.String(), scoped})
			}
		}
		for _, r := range rows {
			name := r.prop
			if r.subnet != "" {
				name += "@" + r.subnet
			}
			start := time.Now()
			out := f.Net.Analysis().Decide(r.goal)
			graphMs := toMs(time.Since(start))
			v, err := pipeline.Run(context.Background(), f.Net, r.goal, satOpts)
			if err != nil {
				return err
			}
			satRes := v.Result
			satMs := toMs(satRes.Elapsed)
			jrow := tieredJSON{
				Pods: k, Routers: len(f.FT.Routers), Property: r.prop, Subnet: r.subnet,
				Tier: tiered.TierSAT, Reason: out.Reason,
				GraphMs: graphMs, SatMs: satMs,
				Verified: satRes.Verified, Agree: true,
			}
			covered++
			if out.Decided {
				hits++
				jrow.Tier, jrow.Rule = tiered.TierGraph, out.Rule()
				jrow.Agree = out.Verified == satRes.Verified
				if graphMs > 0 {
					jrow.Speedup = satMs / graphMs
				}
				graphTotal += graphMs
				satTotal += satMs
			}
			fmt.Printf("%d\t%d\t%s\t%s\t%s\t%.2f\t%.1f\t%.1f\t%v\t%v\n",
				jrow.Pods, jrow.Routers, name, jrow.Tier, jrow.Reason,
				jrow.GraphMs, jrow.SatMs, jrow.Speedup, jrow.Verified, jrow.Agree)
			if !jrow.Agree {
				return fmt.Errorf("tier disagreement on pods=%d %s: graph says verified=%v, sat says verified=%v",
					k, name, out.Verified, satRes.Verified)
			}
			art = append(art, jrow)
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
// SAT pipeline too, and a disagreement fails the sweep. It prints, per
// check, the share of rows each rule decided.
func runTieredAudit(satOpts pipeline.Options) ([]tieredJSON, error) {
	fmt.Println("# audit population: graph tier vs SAT pipeline (the solver answers decided rows only)")
	fmt.Println("network\trouters\tproperty\ttier\treason\tgraph_ms\tsat_ms\tverified\tagree")
	rules := []string{"stable-state", "may-graph", "simulated", "vacuity"}
	decided := map[string]map[string]int{}
	asked := map[string]int{}
	var art []tieredJSON
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
			start := time.Now()
			out := net.Analysis().Decide(goal)
			row := tieredJSON{
				Network: n.Name, Routers: len(n.Routers), Property: check,
				Tier: tiered.TierSAT, Reason: out.Reason, GraphMs: toMs(time.Since(start)), Agree: true,
			}
			asked[check]++
			if out.Decided {
				v, err := pipeline.Run(context.Background(), net, goal, satOpts)
				if err != nil {
					return nil, err
				}
				row.Tier, row.Rule = tiered.TierGraph, out.Rule()
				row.SatMs, row.Verified = toMs(v.Result.Elapsed), v.Result.Verified
				row.Agree = out.Verified == v.Result.Verified
				if decided[check] == nil {
					decided[check] = map[string]int{}
				}
				decided[check][row.Rule]++
			}
			sat := "-\t-"
			if out.Decided {
				sat = fmt.Sprintf("%.1f\t%v", row.SatMs, row.Verified)
			}
			fmt.Printf("%s\t%d\t%s\t%s\t%s\t%.2f\t%s\t%v\n",
				row.Network, row.Routers, row.Property, row.Tier, row.Reason, row.GraphMs, sat, row.Agree)
			if !row.Agree {
				return nil, fmt.Errorf("tier disagreement on %s %s: graph says verified=%v, sat says verified=%v",
					n.Name, check, out.Verified, row.Verified)
			}
			art = append(art, row)
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

// modularJSON is one row of the BENCH_modular.json artifact: the
// assume/guarantee pipeline on one Figure 8 property, with the
// monolithic reference columns filled only when pods <= -mono-max.
type modularJSON struct {
	Pods     int    `json:"pods"`
	Routers  int    `json:"routers"`
	Property string `json:"property"`
	// Mode is "modular" when the composed verdict stands; anything else
	// ("fallback" with the residue that forced it) means the row was
	// answered monolithically and the comparison is void.
	Mode       string  `json:"mode"`
	Residue    string  `json:"residue,omitempty"`
	Verified   bool    `json:"verified"`
	ModularMs  float64 `json:"modular_ms"`
	Components int     `json:"components"`
	Classes    int     `json:"classes"`
	AliasHits  int     `json:"alias_hits"`
	Checks     int     `json:"checks"`
	// PeakTerms / SATVars are per-component peaks — the modular answer
	// to the monolithic model-size question.
	PeakTerms int `json:"peak_terms"`
	SATVars   int `json:"sat_vars"`
	Blame     int `json:"blame"`
	// Units / ClauseDBBytes total the per-class cost ledger: the
	// deterministic work the composition actually paid (one
	// representative check per isomorphism class, amortized over
	// aliases).
	Units         int64 `json:"work_units,omitempty"`
	ClauseDBBytes int64 `json:"clause_db_bytes,omitempty"`
	// Monolithic reference (mono_ran=false beyond -mono-max, where the
	// whole-network encoding is off the table).
	MonoRan     bool    `json:"mono_ran"`
	MonoMs      float64 `json:"mono_ms,omitempty"`
	MonoSATVars int     `json:"mono_sat_vars,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
	Agree       bool    `json:"agree,omitempty"`
}

// runModular reproduces the modular-verification scaling comparison:
// each Figure 8 property per fabric size through the assume/guarantee
// pipeline, against the monolithic encoding wherever the latter is
// still feasible (pods <= monoMax). Verdict parity on the shared rows
// is enforced — any disagreement is a soundness bug and exits nonzero.
func runModular(pods []int, props []string, jsonOut, passes string, monoMax, workers int) error {
	toMs := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	fmt.Println("# modular assume/guarantee vs monolithic per Figure 8 row")
	fmt.Println("pods\trouters\tproperty\tmode\tmodular_ms\tcomps\tclasses\talias\tchecks\tpeak_terms\tsat_vars\tblame\tunits\tdb_bytes\tmono_ms\tspeedup\tverified\tagree")
	// The graph tier stays off on both sides: the sweep compares the
	// composition with the whole-network solve, goal for goal.
	opts := pipeline.Options{Modular: true}
	opts.Workers = workers
	opts.Core.Tiers = "none"
	opts.Core.Blame = true
	opts.Core.Passes = passes
	mono := opts
	mono.Modular = false
	var art []modularJSON
	ctx := context.Background()
	for _, k := range pods {
		f, err := harness.BuildFabric(k)
		if err != nil {
			return err
		}
		// Beyond -mono-max the whole-network encoding is off the table, so
		// a surprise residue must surface as an undecided row rather than
		// quietly starting an infeasible monolithic solve.
		kOpts := opts
		kOpts.NoFallback = k > monoMax
		for _, prop := range props {
			goal, ok := harness.Fig8ModularGoal(f, prop)
			if !ok {
				// local-consistency is a pairwise-equivalence sweep, not a
				// goal the modular (or tiered) vocabulary models.
				continue
			}
			start := time.Now()
			v, err := pipeline.Run(ctx, f.Net, goal, kOpts)
			if err != nil {
				return fmt.Errorf("modular pods=%d %s: %w", k, prop, err)
			}
			row := modularJSON{
				Pods: k, Routers: len(f.FT.Routers), Property: prop,
				Mode: v.Mode, Residue: strings.Join(v.Residue, ","),
				ModularMs: toMs(time.Since(start)),
			}
			if v.Result == nil {
				// Residue under NoFallback: the row is undecided, not a
				// verdict — label it so downstream tooling can't read
				// verified=false as a falsification.
				row.Mode = "fallback-skipped"
			} else {
				row.Verified = v.Result.Verified
				row.SATVars = v.Result.SATVars
				row.Blame = len(v.Result.Blame)
				t := v.Result.Cost.Total()
				row.Units, row.ClauseDBBytes = t.Units(), t.ClauseDBBytes
			}
			if rep := v.Modular; rep != nil {
				row.Components = rep.Components
				row.Classes = rep.Classes
				row.AliasHits = rep.AliasHits
				row.Checks = rep.Checks
				row.PeakTerms = rep.PeakTerms
			}
			monoCol, speedCol, agreeCol := "-", "-", "-"
			if k <= monoMax {
				start = time.Now()
				mv, err := pipeline.Run(ctx, f.Net, goal, mono)
				if err != nil {
					return fmt.Errorf("monolithic pods=%d %s: %w", k, prop, err)
				}
				row.MonoRan = true
				row.MonoMs = toMs(time.Since(start))
				row.MonoSATVars = mv.Result.SATVars
				row.Agree = mv.Result.Verified == row.Verified
				if row.ModularMs > 0 {
					row.Speedup = row.MonoMs / row.ModularMs
				}
				monoCol = fmt.Sprintf("%.1f", row.MonoMs)
				speedCol = fmt.Sprintf("%.1fx", row.Speedup)
				agreeCol = fmt.Sprintf("%v", row.Agree)
			}
			fmt.Printf("%d\t%d\t%s\t%s\t%.1f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%v\t%s\n",
				row.Pods, row.Routers, row.Property, row.Mode, row.ModularMs,
				row.Components, row.Classes, row.AliasHits, row.Checks,
				row.PeakTerms, row.SATVars, row.Blame, row.Units,
				row.ClauseDBBytes, monoCol, speedCol,
				row.Verified, agreeCol)
			if row.MonoRan && !row.Agree {
				return fmt.Errorf("modular disagreement on pods=%d %s: modular says verified=%v (mode %s), monolithic disagrees",
					k, prop, row.Verified, row.Mode)
			}
			art = append(art, row)
		}
	}
	var modTotal, monoTotal float64
	shared := 0
	for _, r := range art {
		if r.MonoRan {
			shared++
			modTotal += r.ModularMs
			monoTotal += r.MonoMs
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

// runAblation reproduces the §8.3 optimization-effectiveness measurement.
func runAblation(k int, tr *obs.Trace, every int64) error {
	f, err := harness.BuildFabric(k)
	if err != nil {
		return err
	}
	fmt.Printf("# §8.3 ablation: single-source reachability on a %d-pod fabric (%d routers)\n",
		k, len(f.FT.Routers))
	fmt.Println("config\tencode_ms\tcheck_ms\tcnf_ms\tsimplify_ms\tsolve_ms\trecord_vars\tsat_vars\tsat_clauses\tconflicts\tspeedup")
	var baseline float64
	for _, passes := range harness.AblationPasses() {
		var opts pipeline.Options
		opts.Core = withProgress(core.Options{Passes: passes, Span: tr.Root()}, every, fmt.Sprintf("pods=%d", k))
		// encode_ms times the symbolic model build, the monolithic step's
		// encode.
		var encode time.Duration
		opts.Live = func() (*core.Model, *core.Session, error) {
			start := time.Now()
			m, err := core.Encode(f.Net.Graph, opts.Core)
			encode = time.Since(start)
			return m, nil, err
		}
		v, err := harness.RunAblation(f, opts)
		if err != nil {
			return err
		}
		res := v.Result
		checkMs := toMs(res.Elapsed)
		if passes == "none" {
			baseline = checkMs
		}
		fmt.Printf("%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\t%d\t%d\t%.1fx\n",
			passes, toMs(encode), checkMs, toMs(res.EncodeElapsed),
			toMs(res.SimplifyElapsed), toMs(res.SolveElapsed),
			v.Model.NumRecordVars, res.SATVars, res.SATClauses, res.Stats.Conflicts, baseline/checkMs)
	}
	return nil
}
