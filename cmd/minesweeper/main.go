// Command minesweeper verifies router configurations: it loads a
// directory of config files, builds the symbolic control-plane model and
// checks the requested property over all packets and all environments,
// printing either "verified" or a concrete counterexample (environment,
// packet and forwarding state).
//
// Usage:
//
//	minesweeper -configs DIR -check reachability -src R1 -subnet 10.0.0.0/24
//	minesweeper -configs DIR -check mgmt-reachability
//	minesweeper -configs DIR -check blackholes [-max-failures 1]
//	minesweeper -configs DIR -check multipath-consistency
//	minesweeper -configs DIR -check loops
//	minesweeper -configs DIR -check bounded-length -src R1 -subnet P -hops 4
//	minesweeper -configs DIR -check isolation -src R1 -subnet P
//	minesweeper -configs DIR -check waypoint -src R1 -via FW1 -subnet P
//	minesweeper -configs DIR -check equivalence -pair routerA,routerB
//	minesweeper -configs DIR -check no-leak -maxlen 24
//	minesweeper -configs DIR -check fault-invariance [-max-failures 1]
//
// Observability:
//
//	-v                  also prints the phase span tree to stderr
//	-json               prints the verdict as one JSON object on stdout
//	-trace-json FILE    writes the span tree + metrics as JSON
//	-trace-chrome FILE  writes the span tree as Chrome trace_event JSON,
//	                    browsable in Perfetto (ui.perfetto.dev) or
//	                    chrome://tracing
//	-prom FILE          writes the metrics in Prometheus text format
//	-progress N         prints solver progress to stderr every N conflicts
//	-cost               prints the hierarchical cost ledger — work units
//	                    (decisions+propagations+conflicts), clause-db and
//	                    proof bytes, wall/CPU time — attributed per phase
//	                    (compile, blast, solve, certify, …); with -json the
//	                    same tree rides along as the "cost" member
//
// Certification:
//
//	-certify          records a DRAT proof trace in the SAT core and replays
//	                  it through the independent checker before reporting any
//	                  "verified" verdict; the proof size and check time are
//	                  printed (and included in the -json object)
//
// Blame:
//
//	-blame            reports the configuration origins the verdict depends
//	                  on. For a verified property these are the origins of
//	                  the constraints in the UNSAT proof's core: the config
//	                  stanzas that together rule out every violation. For a
//	                  falsified property they are the origins of the
//	                  constraints fixing the counterexample's forwarding
//	                  decisions. Implies proof logging (-certify's machinery)
//	                  on verified verdicts.
//
// Tiers:
//
//	-tiers graph,sat  (default) tries the sound graph fast path before
//	                  building the SAT model: goals the conservative
//	                  over-/under-approximations can answer definitively
//	                  skip encoding and solving entirely, everything else
//	                  falls through to the solver unchanged. -tiers none
//	                  (or sat) disables the fast path. The verdict reports
//	                  which tier answered ("tier" in -json output).
//
// Modular:
//
//	-modular          cuts multi-component networks at eBGP interfaces and
//	                  verifies components in parallel against interface
//	                  contracts, composing a blamed verdict without ever
//	                  building the whole-network model. Anything outside
//	                  the soundness envelope is residue that falls back to
//	                  the monolithic pipeline; the verdict reports "mode"
//	                  (modular / monolithic / fallback) and the residue.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/modular"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/obs/cost"
	"repro/internal/properties"
	"repro/internal/protograph"
	"repro/internal/provenance"
	"repro/internal/psolve"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/tiered"
)

// cliOpts carries the parsed command line through run.
type cliOpts struct {
	dir, check, src, via, subnet, pair string
	hops, maxLen, maxFailures          int
	verbose, replay, jsonOut, certify  bool
	blame, modular, costOut            bool
	traceJSON, traceChrome, promOut    string
	passes                             string
	tiers                              string
	parallel                           string
	parallelWorkers                    int
	progressEvery                      int64
}

func main() {
	var o cliOpts
	flag.StringVar(&o.dir, "configs", "", "directory of router configuration files")
	flag.StringVar(&o.check, "check", "", "property to verify (see package comment)")
	flag.StringVar(&o.src, "src", "", "source router")
	flag.StringVar(&o.via, "via", "", "waypoint router")
	flag.StringVar(&o.subnet, "subnet", "", "destination subnet (CIDR)")
	flag.StringVar(&o.pair, "pair", "", "router pair a,b for equivalence")
	flag.IntVar(&o.hops, "hops", 4, "hop bound for bounded-length")
	flag.IntVar(&o.maxLen, "maxlen", 24, "maximum exported prefix length for no-leak")
	flag.IntVar(&o.maxFailures, "max-failures", 0, "environments may fail up to this many links")
	flag.BoolVar(&o.verbose, "v", false, "print model statistics, forwarding state and the span tree")
	flag.BoolVar(&o.replay, "replay", false, "replay counterexamples in the concrete simulator")
	flag.BoolVar(&o.jsonOut, "json", false, "print the verdict as a single JSON object")
	flag.BoolVar(&o.costOut, "cost", false, "print the hierarchical cost ledger (work units, clause-db/proof bytes, wall/CPU time) after the verdict; with -json, adds a \"cost\" tree to the object")
	flag.StringVar(&o.traceJSON, "trace-json", "", "write the span tree and metrics as JSON to this file")
	flag.StringVar(&o.traceChrome, "trace-chrome", "", "write the span tree as Chrome trace_event JSON to this file (open in Perfetto or chrome://tracing)")
	flag.StringVar(&o.promOut, "prom", "", "write the metrics in Prometheus text format to this file")
	flag.StringVar(&o.passes, "passes", "", "optimization passes: comma list of hoist,slice,fold,cse,propagate,coi, or all/none (default: all)")
	flag.StringVar(&o.tiers, "tiers", "", "verification tiers: graph,sat (default; sound graph fast path, residue to the solver), or sat/none to disable the fast path")
	flag.BoolVar(&o.certify, "certify", false, "record a DRAT proof trace and check verified verdicts with the independent checker")
	flag.BoolVar(&o.blame, "blame", false, "report the configuration origins the verdict depends on (UNSAT core origins, or the counterexample's forwarding origins)")
	flag.BoolVar(&o.modular, "modular", false, "verify multi-component networks by assume/guarantee composition (cut at eBGP interfaces, parallel per-component checks; residue falls back to the monolithic pipeline)")
	flag.StringVar(&o.parallel, "parallel", "off", "parallel solve strategy: off, portfolio (race configured solver clones), cubes (split on environment variables), or auto")
	flag.IntVar(&o.parallelWorkers, "parallel-workers", 0, "solver-level parallelism (0: one per CPU); 1 reproduces the sequential search exactly")
	flag.Int64Var(&o.progressEvery, "progress", 0, "print solver progress to stderr every N conflicts")
	flag.Parse()
	if o.dir == "" || o.check == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "minesweeper:", err)
		os.Exit(1)
	}
}

func run(o cliOpts) error {
	tr := obs.New("verify")

	sp := tr.Root().Start("parse")
	routers, err := loadConfigs(o.dir)
	if err != nil {
		return err
	}
	sp.SetInt("routers", int64(len(routers)))
	sp.SetInt("lines", int64(config.TotalLines(routers)))
	sp.End()

	sp = tr.Root().Start("graph")
	g, err := harness.BuildGraph(routers)
	if err != nil {
		return err
	}
	sp.SetInt("nodes", int64(len(g.Topo.Nodes)))
	sp.SetInt("links", int64(len(g.Topo.Links)))
	sp.SetInt("externals", int64(len(g.Topo.Externals)))
	sp.End()
	tr.SampleMem()

	if !o.jsonOut {
		fmt.Printf("loaded %d routers, %d links, %d external peers (%d config lines)\n",
			len(g.Topo.Nodes), len(g.Topo.Links), len(g.Topo.Externals), config.TotalLines(routers))
	}

	opts := core.DefaultOptions()
	opts.Passes = o.passes
	if err := core.ValidatePasses(o.passes); err != nil {
		return err
	}
	if err := tiered.ValidateTiers(o.tiers); err != nil {
		return err
	}
	opts.Tiers = o.tiers
	if !psolve.ValidMode(o.parallel) {
		return fmt.Errorf("unknown -parallel mode %q (want off, portfolio, cubes or auto)", o.parallel)
	}
	opts.Parallel = o.parallel
	opts.ParallelWorkers = o.parallelWorkers
	opts.Certify = o.certify
	opts.Blame = o.blame
	opts.Span = tr.Root()
	progress := func(p sat.Progress) {
		fmt.Fprintf(os.Stderr, "progress: conflicts=%d decisions=%d propagations=%d learned=%d restarts=%d\n",
			p.Conflicts, p.Decisions, p.Propagations, p.Learned, p.Restarts)
	}

	// Pair-based checks have their own flow.
	switch o.check {
	case "equivalence":
		parts := strings.Split(o.pair, ",")
		if len(parts) != 2 {
			return fmt.Errorf("-pair a,b required")
		}
		start := time.Now()
		res, err := core.CheckLocalEquivalence(g, parts[0], parts[1], opts)
		if err != nil {
			return err
		}
		if o.jsonOut {
			if err := emitJSON(jsonReport{
				Check:      o.check,
				Verified:   res.Equivalent,
				ElapsedMs:  durMs(time.Since(start)),
				Difference: res.Difference,
			}); err != nil {
				return err
			}
			return finish(tr, o)
		}
		if res.Equivalent {
			fmt.Printf("%s and %s are behaviourally equivalent\n", parts[0], parts[1])
		} else {
			fmt.Printf("NOT equivalent: %s\n", res.Difference)
		}
		return finish(tr, o)
	case "fault-invariance":
		k := o.maxFailures
		if k == 0 {
			k = 1
		}
		pr, prop, err := core.FaultInvariance(g, opts, k)
		if err != nil {
			return err
		}
		if o.progressEvery > 0 {
			pr.A.ProgressEvery = o.progressEvery
			pr.A.OnProgress = progress
		}
		res, err := pr.Check(prop)
		if err != nil {
			return err
		}
		core.RecordSolverMetrics(tr, res)
		if o.jsonOut {
			return emitJSONResult(o, res, pr.A, tr, modResult{})
		}
		report(o.check, res, nil, o.verbose, modResult{})
		printCost(o, costTree(res, modResult{}))
		return finish(tr, o)
	}

	// Graph fast path: goals the tier can answer definitively never build
	// the SAT model at all; residue falls through to the solver below.
	var fastElapsed time.Duration
	var fastTried bool
	if tiered.Enabled(o.tiers) {
		if goal, ok := tierGoal(o); ok {
			fastTried = true
			sp = tr.Root().Start("fastpath")
			a := tiered.NewAnalysis(g)
			start := time.Now()
			out := a.Decide(goal)
			fastElapsed = time.Since(start)
			sp.SetStr("reason", out.Reason)
			sp.End()
			if out.Decided {
				res := tiered.Synthesize(out, fastElapsed, o.blame)
				if o.jsonOut {
					return emitJSONResult(o, res, nil, tr, modResult{})
				}
				report(o.check, res, nil, o.verbose, modResult{})
				printCost(o, costTree(res, modResult{}))
				return finish(tr, o)
			}
		}
	}

	// Modular assume/guarantee path: compose per-component verdicts when
	// the network and goal are inside the soundness envelope; any residue
	// falls through to the monolithic encode below with the residue
	// reported on the verdict.
	var modRes modResult
	if o.modular {
		res, err := tryModular(o, g, opts, tr, &modRes)
		if err != nil {
			return err
		}
		if res != nil {
			if o.jsonOut {
				return emitJSONResult(o, res, nil, tr, modRes)
			}
			report(o.check, res, nil, o.verbose, modRes)
			printCost(o, costTree(res, modRes))
			return finish(tr, o)
		}
	}

	m, err := core.Encode(g, opts)
	if err != nil {
		return err
	}
	if o.progressEvery > 0 {
		m.ProgressEvery = o.progressEvery
		m.OnProgress = progress
	}
	var sub network.Prefix
	if o.subnet != "" {
		sub, err = network.ParsePrefix(o.subnet)
		if err != nil {
			return err
		}
	}
	needSubnet := func() error {
		if o.subnet == "" {
			return fmt.Errorf("-subnet required for %s", o.check)
		}
		return nil
	}
	needSrc := func() error {
		if o.src == "" || g.Topo.Node(o.src) == nil {
			return fmt.Errorf("-src must name a router for %s", o.check)
		}
		return nil
	}

	var p *smt.Term
	switch o.check {
	case "reachability":
		if err := needSrc(); err != nil {
			return err
		}
		if err := needSubnet(); err != nil {
			return err
		}
		p = properties.Reachable(m, o.src, sub)
	case "isolation":
		if err := needSrc(); err != nil {
			return err
		}
		if err := needSubnet(); err != nil {
			return err
		}
		p = properties.Isolated(m, o.src, sub)
	case "mgmt-reachability":
		p = properties.ManagementReachable(m)
	case "blackholes":
		p = properties.NoBlackholes(m)
	case "multipath-consistency":
		p = properties.MultipathConsistent(m)
	case "loops":
		p = properties.NoForwardingLoops(m, nil)
	case "bounded-length":
		if err := needSrc(); err != nil {
			return err
		}
		if err := needSubnet(); err != nil {
			return err
		}
		p = properties.BoundedLength(m, o.src, sub, o.hops)
	case "waypoint":
		if err := needSrc(); err != nil {
			return err
		}
		if err := needSubnet(); err != nil {
			return err
		}
		if o.via == "" || g.Topo.Node(o.via) == nil {
			return fmt.Errorf("-via must name a router")
		}
		p = properties.Waypointed(m, o.src, o.via, sub)
	case "no-leak":
		p = properties.NoLeak(m, nil, o.maxLen)
	default:
		return fmt.Errorf("unknown check %q", o.check)
	}

	assumptions := []*smt.Term{}
	if o.maxFailures > 0 {
		assumptions = append(assumptions, m.AtMostFailures(o.maxFailures))
	} else {
		assumptions = append(assumptions, m.NoFailures())
	}
	res, err := m.Check(p, assumptions...)
	if err != nil {
		return err
	}
	if fastTried {
		res.Tier = tiered.TierSAT
		res.FastPathElapsed = fastElapsed
	}
	core.RecordSolverMetrics(tr, res)
	if o.jsonOut {
		return emitJSONResult(o, res, m, tr, modRes)
	}
	report(o.check, res, m, o.verbose, modRes)
	printCost(o, costTree(res, modRes))
	if o.replay && res.Counterexample != nil {
		diffs, err := m.ReplayAgrees(res.Counterexample)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if len(diffs) == 0 {
			fmt.Println("replay: the concrete simulator reproduces the counterexample state")
		} else {
			fmt.Println("replay: simulator reached a different stable state (multi-stable network?):")
			for _, d := range diffs {
				fmt.Println("  " + d)
			}
		}
	}
	return finish(tr, o)
}

// modResult carries the modular outcome into the final report: how the
// verdict was produced and, for fallbacks, the residue that forced the
// monolithic pipeline.
type modResult struct {
	mode     string
	residue  []string
	violated string
	report   *modular.Report
}

// tryModular attempts the assume/guarantee composition. A non-nil result
// is the composed verdict and the caller reports it without ever
// building the monolithic model; nil means fall through (out.mode and
// out.residue record why).
func tryModular(o cliOpts, g *protograph.Graph, opts core.Options, tr *obs.Trace, out *modResult) (*core.Result, error) {
	goal, ok := tierGoal(o)
	if !ok {
		out.mode = modular.ModeMonolithic
		return nil, nil
	}
	cut := modular.Partition(g)
	if !cut.MultiComponent() {
		out.mode = modular.ModeMonolithic
		return nil, nil
	}
	mopts := modular.Options{Core: opts, Workers: runtime.NumCPU()}
	// Component checks run concurrently and the span tree is
	// single-writer: the modular span below prices the whole run.
	mopts.Core.Span = nil
	plan := modular.NewPlan(g, cut, goal)
	sp := tr.Root().Start("modular")
	sp.SetInt("components", int64(len(plan.Comps)))
	rep, err := modular.Run(context.Background(), g, plan, mopts)
	sp.End()
	if err != nil {
		return nil, err
	}
	if len(rep.Residue) > 0 {
		out.mode = modular.ModeFallback
		out.residue = rep.Residue
		out.violated = rep.Violated
		return nil, nil
	}
	out.mode = modular.ModeModular
	out.report = rep
	return rep.Result, nil
}

// tierGoal translates the CLI flags into the graph tier's goal
// vocabulary. ok=false — missing or unparsable parameters, or a check the
// tier does not model — sends the query straight to the SAT path, whose
// own validation reports the proper usage error.
func tierGoal(o cliOpts) (tiered.Goal, bool) {
	g := tiered.Goal{
		Check:       o.check,
		Src:         o.src,
		Via:         o.via,
		Hops:        o.hops,
		MaxLen:      o.maxLen,
		MaxFailures: o.maxFailures,
	}
	switch o.check {
	case "reachability", "isolation", "bounded-length":
		if o.src == "" || o.subnet == "" {
			return tiered.Goal{}, false
		}
	case "waypoint":
		if o.src == "" || o.via == "" || o.subnet == "" {
			return tiered.Goal{}, false
		}
	case "mgmt-reachability", "blackholes", "multipath-consistency", "loops", "no-leak":
	default:
		return tiered.Goal{}, false
	}
	if o.subnet != "" {
		sub, err := network.ParsePrefix(o.subnet)
		if err != nil {
			return tiered.Goal{}, false
		}
		g.Subnet = sub
		g.HasSubnet = true
	}
	return g, true
}

// finish closes the root span and writes the requested exports.
func finish(tr *obs.Trace, o cliOpts) error {
	tr.Root().End()
	tr.SampleMem()
	if o.verbose {
		tr.WriteTree(os.Stderr)
	}
	if o.traceJSON != "" {
		f, err := os.Create(o.traceJSON)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if o.traceChrome != "" {
		f, err := os.Create(o.traceChrome)
		if err != nil {
			return err
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if o.promOut != "" {
		f, err := os.Create(o.promOut)
		if err != nil {
			return err
		}
		tr.WritePrometheus(f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// jsonReport is the -json verdict object: everything the text output
// says, as one machine-readable value on stdout.
type jsonReport struct {
	Check    string `json:"check"`
	Verified bool   `json:"verified"`
	// Tier names the verification tier that answered: "graph" for the
	// fast path, "sat" for solver fall-through, absent with -tiers none.
	Tier       string  `json:"tier,omitempty"`
	FastPathMs float64 `json:"fastpath_ms,omitempty"`
	// Mode (with -modular) names how the verdict was produced: "modular"
	// (composed from component checks), "monolithic" (single component or
	// out-of-vocabulary goal) or "fallback" (modular residue, listed).
	Mode             string   `json:"mode,omitempty"`
	Components       int      `json:"components,omitempty"`
	ComponentClasses int      `json:"component_classes,omitempty"`
	AliasHits        int      `json:"alias_hits,omitempty"`
	ComponentChecks  int      `json:"component_checks,omitempty"`
	PeakTerms        int      `json:"peak_terms,omitempty"`
	ModularResidue   []string `json:"modular_residue,omitempty"`
	ViolatedContract string   `json:"violated_contract,omitempty"`

	ElapsedMs      float64    `json:"elapsed_ms"`
	EncodeMs       float64    `json:"encode_ms,omitempty"`
	SimplifyMs     float64    `json:"simplify_ms,omitempty"`
	SolveMs        float64    `json:"solve_ms,omitempty"`
	CertifyMs      float64    `json:"certify_ms,omitempty"`
	SATVars        int        `json:"sat_vars,omitempty"`
	SATClauses     int        `json:"sat_clauses,omitempty"`
	Blame          []string   `json:"blame,omitempty"`
	Solver         *jsonStats `json:"solver,omitempty"`
	Proof          *jsonProof `json:"proof,omitempty"`
	Counterexample *jsonCex   `json:"counterexample,omitempty"`
	Difference     string     `json:"difference,omitempty"`
	// Cost is the hierarchical resource ledger (-cost): per-phase work
	// units, clause-db/proof bytes and wall/CPU time, each node's work
	// equal to its self work plus its children's.
	Cost *cost.Node `json:"cost,omitempty"`
}

// jsonProof reports the checked DRAT certificate behind a verified
// verdict (-certify only).
type jsonProof struct {
	Checked   bool    `json:"checked"`
	Steps     int     `json:"steps"`
	Inputs    int     `json:"inputs"`
	Lemmas    int     `json:"lemmas"`
	Deletions int     `json:"deletions"`
	Hinted    int     `json:"hinted"`
	Fallbacks int     `json:"fallbacks"`
	CheckMs   float64 `json:"check_ms"`
}

type jsonStats struct {
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Learned      int64 `json:"learned"`
	Restarts     int64 `json:"restarts"`
}

type jsonPacket struct {
	DstIP    string `json:"dst_ip"`
	SrcIP    string `json:"src_ip"`
	Protocol int    `json:"protocol"`
	SrcPort  int    `json:"src_port"`
	DstPort  int    `json:"dst_port"`
}

type jsonAnn struct {
	Peer        string   `json:"peer"`
	Prefix      string   `json:"prefix"`
	PathLen     int      `json:"path_len"`
	MED         int      `json:"med"`
	Communities []string `json:"communities,omitempty"`
}

type jsonCex struct {
	Packet        jsonPacket `json:"packet"`
	Announcements []jsonAnn  `json:"announcements"`
	FailedLinks   []string   `json:"failed_links"`
	Forwarding    []string   `json:"forwarding,omitempty"`
	ReplayAgrees  *bool      `json:"replay_agrees,omitempty"`
	ReplayDiffs   []string   `json:"replay_diffs,omitempty"`
}

// costTree picks the ledger to report: the modular composition's
// per-class tree when there is one (it keeps the component detail the
// composed result folds away), otherwise the result's own ledger.
func costTree(res *core.Result, mod modResult) *cost.Node {
	if r := mod.report; r != nil && r.Cost != nil {
		return r.Cost
	}
	if res != nil {
		return res.Cost
	}
	return nil
}

// printCost writes the indented cost table after the text verdict
// (-cost without -json).
func printCost(o cliOpts, n *cost.Node) {
	if !o.costOut || n == nil {
		return
	}
	fmt.Println("cost:")
	n.WriteTree(os.Stdout)
}

func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// emitJSONResult renders a solver-backed result as the -json object.
func emitJSONResult(o cliOpts, res *core.Result, m *core.Model, tr *obs.Trace, mod modResult) error {
	rep := jsonReport{
		Check:      o.check,
		Verified:   res.Verified,
		Tier:       res.Tier,
		FastPathMs: durMs(res.FastPathElapsed),
		ElapsedMs:  durMs(res.Elapsed),
		EncodeMs:   durMs(res.EncodeElapsed),
		SimplifyMs: durMs(res.SimplifyElapsed),
		SolveMs:    durMs(res.SolveElapsed),
		CertifyMs:  durMs(res.CertifyElapsed),
		Blame:      provenance.Strings(res.Blame),
		SATVars:    res.SATVars,
		SATClauses: res.SATClauses,
		Solver: &jsonStats{
			Conflicts:    res.Stats.Conflicts,
			Decisions:    res.Stats.Decisions,
			Propagations: res.Stats.Propagations,
			Learned:      res.Stats.Learned,
			Restarts:     res.Stats.Restarts,
		},
	}
	if res.Tier == tiered.TierGraph {
		// The solver never ran: drop the all-zero CDCL stats block.
		rep.Solver = nil
	}
	if mod.mode != "" {
		rep.Mode = mod.mode
		rep.ModularResidue = mod.residue
		rep.ViolatedContract = mod.violated
		if r := mod.report; r != nil {
			rep.Components = r.Components
			rep.ComponentClasses = r.Classes
			rep.AliasHits = r.AliasHits
			rep.ComponentChecks = r.Checks
			rep.PeakTerms = r.PeakTerms
			// The composed verdict never ran one whole-network solve; the
			// per-phase and CDCL numbers would misattribute component work.
			rep.Solver = nil
		}
	}
	if o.costOut {
		rep.Cost = costTree(res, mod)
	}
	if cert := res.Certificate; cert != nil {
		rep.Proof = &jsonProof{
			Checked: cert.Checked, Steps: cert.Steps,
			Inputs: cert.Inputs, Lemmas: cert.Lemmas, Deletions: cert.Deletions,
			Hinted: cert.Hinted, Fallbacks: cert.Fallbacks,
			CheckMs: durMs(cert.CheckElapsed),
		}
	}
	if cex := res.Counterexample; cex != nil {
		jc := &jsonCex{
			Packet: jsonPacket{
				DstIP:    cex.Packet.DstIP.String(),
				SrcIP:    cex.Packet.SrcIP.String(),
				Protocol: cex.Packet.Protocol,
				SrcPort:  cex.Packet.SrcPort,
				DstPort:  cex.Packet.DstPort,
			},
			Announcements: []jsonAnn{},
			FailedLinks:   []string{},
		}
		peers := make([]string, 0, len(cex.Env.Anns))
		for p := range cex.Env.Anns {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		for _, p := range peers {
			a := cex.Env.Anns[p]
			jc.Announcements = append(jc.Announcements, jsonAnn{
				Peer: p, Prefix: a.Prefix.String(),
				PathLen: a.PathLen, MED: a.MED, Communities: a.Communities,
			})
		}
		for id := range cex.Env.FailedLinks {
			jc.FailedLinks = append(jc.FailedLinks, id)
		}
		sort.Strings(jc.FailedLinks)
		if m != nil {
			jc.Forwarding = m.DecodeForwarding(m.Main, cex.Assignment)
		}
		if o.replay && m != nil && o.check != "fault-invariance" {
			diffs, err := m.ReplayAgrees(cex)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			agrees := len(diffs) == 0
			jc.ReplayAgrees = &agrees
			jc.ReplayDiffs = diffs
		}
		rep.Counterexample = jc
	}
	if err := emitJSON(rep); err != nil {
		return err
	}
	return finish(tr, o)
}

func emitJSON(rep jsonReport) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func report(check string, res *core.Result, m *core.Model, verbose bool, mod modResult) {
	fmt.Println(properties.Describe(check, res))
	switch res.Tier {
	case tiered.TierGraph:
		fmt.Printf("tier: graph fast path (%.2fms, no SAT model built)\n", durMs(res.FastPathElapsed))
	case tiered.TierSAT:
		fmt.Printf("tier: sat (fast-path residue after %.2fms)\n", durMs(res.FastPathElapsed))
	}
	switch mod.mode {
	case modular.ModeModular:
		r := mod.report
		fmt.Printf("mode: modular (%d components in %d classes, %d alias hits, %d checks, peak %d terms, %.1fms; no whole-network model built)\n",
			r.Components, r.Classes, r.AliasHits, r.Checks, r.PeakTerms, durMs(r.Elapsed))
	case modular.ModeFallback:
		fmt.Printf("mode: fallback to monolithic (modular residue: %s)\n", strings.Join(mod.residue, ", "))
		if mod.violated != "" {
			fmt.Printf("violated contract: %s\n", mod.violated)
		}
	case modular.ModeMonolithic:
		fmt.Println("mode: monolithic (single component or goal outside the modular vocabulary)")
	}
	if cert := res.Certificate; cert != nil {
		fmt.Printf("proof: checked (%d steps, %d lemmas, %d hinted, %d fallbacks, %d deletions, %.1fms check)\n",
			cert.Steps, cert.Lemmas, cert.Hinted, cert.Fallbacks, cert.Deletions, durMs(cert.CheckElapsed))
	}
	if len(res.Blame) > 0 {
		if res.Verified {
			fmt.Printf("blame: the verdict rests on %d configuration origins\n", len(res.Blame))
		} else {
			fmt.Printf("blame: the counterexample's forwarding is fixed by %d configuration origins\n", len(res.Blame))
		}
		for _, o := range res.Blame {
			fmt.Println("  " + o.String())
		}
	}
	if verbose && res.Counterexample != nil && m != nil {
		fmt.Println("forwarding state:")
		for _, line := range m.DecodeForwarding(m.Main, res.Counterexample.Assignment) {
			fmt.Println("  " + line)
		}
	}
	if verbose {
		fmt.Printf("phases: encode %.1fms, simplify %.1fms, solve %.1fms\n",
			durMs(res.EncodeElapsed), durMs(res.SimplifyElapsed), durMs(res.SolveElapsed))
		fmt.Printf("solver: %d conflicts, %d decisions, %d propagations\n",
			res.Stats.Conflicts, res.Stats.Decisions, res.Stats.Propagations)
	}
}

func loadConfigs(dir string) ([]*config.Router, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".cfg") || strings.HasSuffix(e.Name(), ".conf") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .cfg/.conf files in %s", dir)
	}
	var routers []*config.Router
	for _, name := range names {
		text, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		r, err := config.Parse(string(text))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		routers = append(routers, r)
	}
	return routers, nil
}
