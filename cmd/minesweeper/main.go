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
//	                  A solver check whose goals survive on their own
//	                  first tries a witness probe: simulated stable states
//	                  pinned into a small copy of the formula, for one
//	                  destination of a subnet, or for each destination the
//	                  configuration discards (ACL denies, null routes) on a
//	                  check over every destination; each silent, then
//	                  announced by every external peer. When a state
//	                  violates the property it is the counterexample
//	                  ("probe: answered", "probe" in -json) and no search
//	                  runs; otherwise the search runs as it would have.
//	                  The probe never answers "verified".
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
	"io"
	"os"
	"runtime"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/properties"
	"repro/internal/sat"
	"repro/internal/tiered"
)

// cliOpts carries the parsed command line through run.
type cliOpts struct {
	dir, check, src, via, subnet, pair string
	hops, maxLen, maxFailures          int
	verbose, replay, jsonOut, certify  bool
	blame, modular, costOut            bool
	traceChrome, promOut               string
	passes                             string
	tiers                              string
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
	flag.IntVar(&o.hops, "hops", pipeline.DefaultHops, "hop bound for bounded-length")
	flag.IntVar(&o.maxLen, "maxlen", pipeline.DefaultMaxLen, "maximum exported prefix length for no-leak")
	flag.IntVar(&o.maxFailures, "max-failures", 0, "environments may fail up to this many links")
	flag.BoolVar(&o.verbose, "v", false, "print model statistics, forwarding state and the span tree")
	flag.BoolVar(&o.replay, "replay", false, "replay counterexamples in the concrete simulator")
	flag.BoolVar(&o.jsonOut, "json", false, "print the verdict as a single JSON object")
	flag.BoolVar(&o.costOut, "cost", false, "print the hierarchical cost ledger (work units, clause-db/proof bytes, wall/CPU time) after the verdict; with -json, adds a \"cost\" tree to the object")
	flag.StringVar(&o.traceChrome, "trace-chrome", "", "write the span tree as Chrome trace_event JSON to this file (open in Perfetto or chrome://tracing)")
	flag.StringVar(&o.promOut, "prom", "", "write the metrics in Prometheus text format to this file")
	flag.StringVar(&o.passes, "passes", "", "optimization passes: comma list of "+strings.Join(core.PassNames(), ",")+", or all/none (default: all)")
	flag.StringVar(&o.tiers, "tiers", "", "verification tiers: graph,sat (default; sound graph fast path, residue to the solver), or sat/none to disable the fast path")
	flag.BoolVar(&o.certify, "certify", false, "record a DRAT proof trace and check verified verdicts with the independent checker")
	flag.BoolVar(&o.blame, "blame", false, "report the configuration origins the verdict depends on (UNSAT core origins, or the counterexample's forwarding origins)")
	flag.BoolVar(&o.modular, "modular", false, "verify multi-component networks by assume/guarantee composition (cut at eBGP interfaces, parallel per-component checks; residue falls back to the monolithic pipeline)")
	flag.Int64Var(&o.progressEvery, "progress", 0, "print solver progress to stderr every N conflicts")
	flag.Parse()
	if o.dir == "" || o.check == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "minesweeper:", err)
		os.Exit(1)
	}
}

// run answers one command line: the verdict goes to stdout (text, or one
// JSON object with -json), diagnostics (-v, -progress) to stderr.
func run(o cliOpts, stdout, stderr io.Writer) error {
	if err := core.ValidatePasses(o.passes); err != nil {
		return err
	}
	if err := tiered.ValidateTiers(o.tiers); err != nil {
		return err
	}
	tr := obs.New("verify")
	c := &cli{o: o, tr: tr, stdout: stdout, stderr: stderr}

	sp := tr.Root().Start("parse")
	configs, err := pipeline.ReadDir(o.dir)
	if err != nil {
		return err
	}
	routers, err := pipeline.Parse(configs)
	if err != nil {
		return err
	}
	sp.SetInt("routers", int64(len(routers)))
	sp.SetInt("lines", int64(config.TotalLines(routers)))
	sp.End()

	sp = tr.Root().Start("graph")
	net, err := pipeline.Build(routers)
	if err != nil {
		return err
	}
	g := net.Graph
	sp.SetInt("nodes", int64(len(g.Topo.Nodes)))
	sp.SetInt("links", int64(len(g.Topo.Links)))
	sp.SetInt("externals", int64(len(g.Topo.Externals)))
	sp.End()
	tr.SampleMem()
	if !o.jsonOut {
		fmt.Fprintf(stdout, "loaded %d routers, %d links, %d external peers (%d config lines)\n",
			len(g.Topo.Nodes), len(g.Topo.Links), len(g.Topo.Externals), config.TotalLines(routers))
	}

	opts := pipeline.Options{Modular: o.modular}
	opts.Workers = runtime.NumCPU()
	opts.Core = core.Options{
		Passes: o.passes, Tiers: o.tiers, Certify: o.certify, Blame: o.blame, Span: tr.Root(),
	}
	if o.progressEvery > 0 {
		var mu sync.Mutex // modular component checks run concurrently
		opts.Core.ProgressEvery = o.progressEvery
		opts.Core.OnProgress = func(p sat.Progress) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(stderr, "progress: conflicts=%d decisions=%d propagations=%d learned=%d restarts=%d\n",
				p.Conflicts, p.Decisions, p.Propagations, p.Learned, p.Restarts)
		}
	}
	goal, err := pipeline.Spec{
		Check: o.check, Src: o.src, Via: o.via, Subnet: o.subnet, Pair: o.pair,
		Hops: o.hops, MaxLen: o.maxLen, MaxFailures: o.maxFailures,
	}.Goal()
	if err != nil {
		return err
	}
	v, err := pipeline.Run(context.Background(), net, goal, opts)
	if err != nil {
		return err
	}
	c.net, c.coreOpts = net, opts.Core
	return c.emit(v)
}

// cli is where one invocation's output goes.
type cli struct {
	o              cliOpts
	tr             *obs.Trace
	stdout, stderr io.Writer
	// net and coreOpts are the loaded network and the check's options,
	// which replaying a graph-tier counterexample encodes.
	net      *pipeline.Network
	coreOpts core.Options
}

// emit reports a verdict — as the pipeline's JSON report or as text —
// replays its counterexample when asked to, and writes the trace exports.
func (c *cli) emit(v *pipeline.Verdict) error {
	o, res := c.o, v.Result
	core.RecordSolverMetrics(c.tr, res, res.Cost)
	rep := pipeline.NewReport(o.check, v)
	// A solver counterexample is replayed by simulating its environment
	// and comparing the simulator's state with the model's. A graph-tier
	// counterexample is the simulator's own stable state, so it is
	// replayed the other way round: the network's model, pinned to the
	// counterexample's destination and environment, must reach the same
	// state. A fault-invariance counterexample is a state of two linked
	// copies where the simulator replays one network.
	var replayed bool
	var diffs []string
	if cex := res.Counterexample; o.replay && o.check != "fault-invariance" && cex != nil {
		var err error
		switch {
		case v.Model != nil && cex.Assignment != nil:
			diffs, err = v.Model.ReplayAgrees(cex)
			replayed = true
		case res.Tier == tiered.TierGraph:
			var m *core.Model
			if m, err = core.Encode(c.net.Graph, c.coreOpts); err == nil {
				diffs, err = m.DiffAgainstSimulator(cex.Packet.DstIP, cex.Env)
			}
			replayed = true
		}
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	if o.jsonOut {
		if !o.costOut {
			rep.Cost = nil
		}
		if replayed {
			agrees := len(diffs) == 0
			rep.Counterexample.ReplayAgrees, rep.Counterexample.ReplayDiffs = &agrees, diffs
		}
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
		return c.finish()
	}
	c.report(v, rep)
	if o.costOut && rep.Cost != nil {
		fmt.Fprintln(c.stdout, "cost:")
		rep.Cost.WriteTree(c.stdout)
	}
	if replayed && len(diffs) == 0 {
		fmt.Fprintln(c.stdout, "replay: the concrete simulator reproduces the counterexample state")
	} else if replayed {
		fmt.Fprintln(c.stdout, "replay: simulator reached a different stable state (multi-stable network?):")
		for _, d := range diffs {
			fmt.Fprintln(c.stdout, "  "+d)
		}
	}
	return c.finish()
}

// report prints the text verdict.
func (c *cli) report(v *pipeline.Verdict, rep *pipeline.Report) {
	w, res := c.stdout, v.Result
	fmt.Fprintln(w, properties.Describe(c.o.check, res))
	if v.Difference != "" {
		fmt.Fprintln(w, "difference: "+v.Difference)
	}
	switch res.Tier {
	case tiered.TierGraph:
		fmt.Fprintf(w, "tier: graph fast path (%.2fms, no SAT model built)\n", rep.FastPathMs)
	case tiered.TierSAT:
		fmt.Fprintf(w, "tier: sat (fast-path residue after %.2fms)\n", rep.FastPathMs)
	}
	switch {
	case res.Probe == core.ProbeAnswered:
		fmt.Fprintf(w, "probe: answered (%.2fms; the simulated stable state violates the property, no search)\n", rep.ProbeMs)
	case res.Probe != "":
		fmt.Fprintf(w, "probe: %s (%.2fms), then the search\n", res.Probe, rep.ProbeMs)
	}
	switch v.Mode {
	case pipeline.ModeModular:
		fmt.Fprintf(w, "mode: modular (%d components in %d classes, %d alias hits, %d checks, peak %d terms, %.1fms; no whole-network model built)\n",
			rep.Components, rep.ComponentClasses, rep.AliasHits, rep.ComponentChecks, rep.PeakTerms, rep.ElapsedMs)
	case pipeline.ModeFallback:
		fmt.Fprintf(w, "mode: fallback to monolithic (modular residue: %s)\n", strings.Join(v.Residue, ", "))
		if v.Violated != "" {
			fmt.Fprintf(w, "violated contract: %s\n", v.Violated)
		}
	case pipeline.ModeMonolithic:
		fmt.Fprintln(w, "mode: monolithic (the network is a single component)")
	}
	if p := rep.Proof; p != nil {
		fmt.Fprintf(w, "proof: checked (%d steps, %d lemmas, %d hinted, %d fallbacks, %d deletions, %.1fms check)\n",
			p.Steps, p.Lemmas, p.Hinted, p.Fallbacks, p.Deletions, p.CheckMs)
	}
	if len(res.Blame) > 0 {
		if res.Verified {
			fmt.Fprintf(w, "blame: the verdict rests on %d configuration origins\n", len(res.Blame))
		} else {
			fmt.Fprintf(w, "blame: the counterexample's forwarding is fixed by %d configuration origins\n", len(res.Blame))
		}
		for _, o := range rep.Blame {
			fmt.Fprintln(w, "  "+o)
		}
	}
	if !c.o.verbose {
		return
	}
	if cex := rep.Counterexample; cex != nil && len(cex.Forwarding) > 0 {
		fmt.Fprintln(w, "forwarding state:")
		for _, line := range cex.Forwarding {
			fmt.Fprintln(w, "  "+line)
		}
	}
	fmt.Fprintf(w, "phases: encode %.1fms, simplify %.1fms, probe %.1fms, solve %.1fms\n", rep.EncodeMs, rep.SimplifyMs, rep.ProbeMs, rep.SolveMs)
	fmt.Fprintf(w, "solver: %d conflicts, %d decisions, %d propagations\n",
		res.Stats.Conflicts, res.Stats.Decisions, res.Stats.Propagations)
}

// finish closes the root span and writes the requested exports.
func (c *cli) finish() error {
	tr, o := c.tr, c.o
	tr.Root().End()
	tr.SampleMem()
	if o.verbose {
		tr.WriteTree(c.stderr)
	}
	for _, export := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{o.traceChrome, tr.WriteChrome},
		{o.promOut, func(w io.Writer) error { tr.WritePrometheus(w); return nil }},
	} {
		if export.path == "" {
			continue
		}
		f, err := os.Create(export.path)
		if err != nil {
			return err
		}
		if err := export.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
