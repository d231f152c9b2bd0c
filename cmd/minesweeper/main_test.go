package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/topogen"
)

// fabricDir writes the pods-2 fat-tree (5 routers, one AS each) the way
// cmd/topogen does.
func fabricDir(t *testing.T) string {
	t.Helper()
	ft, err := topogen.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	return configDir(t, ft.Routers)
}

// configDir prints routers into a new directory, one file each.
func configDir(t *testing.T, routers []*config.Router) string {
	t.Helper()
	dir := t.TempDir()
	for _, r := range routers {
		if err := os.WriteFile(filepath.Join(dir, r.Name+".cfg"), []byte(config.Print(r)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// base is the command line with every flag at its default.
func base(dir, check string) cliOpts {
	return cliOpts{dir: dir, check: check, hops: pipeline.DefaultHops, maxLen: pipeline.DefaultMaxLen}
}

func runCLI(t *testing.T, o cliOpts) (stdout string, err error) {
	t.Helper()
	var out, diag bytes.Buffer
	err = run(o, &out, &diag)
	return out.String(), err
}

func runJSON(t *testing.T, o cliOpts) *pipeline.Report {
	t.Helper()
	o.jsonOut = true
	out, err := runCLI(t, o)
	if err != nil {
		t.Fatal(err)
	}
	var rep pipeline.Report
	dec := json.NewDecoder(strings.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("stdout is not one report object: %v\n%s", err, out)
	}
	return &rep
}

const figure2 = "../../examples/figure2"

func TestRunVerdicts(t *testing.T) {
	fab := fabricDir(t)
	far := func(o cliOpts) cliOpts {
		o.src, o.subnet = "tor-1-0", "10.0.0.0/24"
		return o
	}
	for _, c := range []struct {
		name  string
		opts  cliOpts
		check func(t *testing.T, rep *pipeline.Report)
	}{
		{"graph tier hit", far(base(fab, "reachability")), func(t *testing.T, rep *pipeline.Report) {
			if !rep.Verified || rep.Tier != "graph" || rep.Solver != nil || rep.SATVars != 0 {
				t.Fatalf("want a verified graph-tier verdict with no solver work: %+v", rep)
			}
		}},
		{"tiers none, certified", func() cliOpts {
			o := base(figure2, "loops")
			o.tiers, o.certify, o.costOut = "none", true, true
			return o
		}(), func(t *testing.T, rep *pipeline.Report) {
			if !rep.Verified || rep.Tier != "" || rep.Solver == nil || rep.SATClauses == 0 {
				t.Fatalf("want a verified solver verdict: %+v", rep)
			}
			if rep.Proof == nil || !rep.Proof.Checked || rep.Proof.Fallbacks != 0 {
				t.Fatalf("want a checked proof with no fallbacks: %+v", rep.Proof)
			}
			if rep.Cost == nil || rep.Cost.Total().ClauseDBBytes <= 0 || rep.Cost.Find("certify") == nil {
				t.Fatalf("-cost: want a ledger with clause-db bytes and a certify phase: %+v", rep.Cost)
			}
		}},
		{"falsified, replayed", func() cliOpts {
			o := far(base(fab, "isolation"))
			o.tiers, o.replay = "sat", true
			return o
		}(), func(t *testing.T, rep *pipeline.Report) {
			cex := rep.Counterexample
			if rep.Verified || cex == nil || len(cex.Forwarding) == 0 || !strings.HasPrefix(cex.Packet.DstIP, "10.0.0.") {
				t.Fatalf("want a decoded counterexample into 10.0.0.0/24: %+v", rep)
			}
			if cex.ReplayAgrees == nil || !*cex.ReplayAgrees || len(cex.ReplayDiffs) != 0 {
				t.Fatalf("-replay: simulator disagrees: %v", cex.ReplayDiffs)
			}
		}},
		{"falsified by simulation, replayed", func() cliOpts {
			// Figure 2 is outside the deterministic fragment (mutual
			// redistribution); the graph tier falsifies by simulating an
			// external peer announcing the destination's /32.
			o := base(figure2, "reachability")
			o.src, o.subnet, o.replay = "R2", "10.3.3.0/24", true
			return o
		}(), func(t *testing.T, rep *pipeline.Report) {
			cex := rep.Counterexample
			if rep.Verified || rep.Tier != "graph" || rep.Solver != nil || cex == nil || len(cex.Announcements) != 1 {
				t.Fatalf("want a graph-tier counterexample with one announcement: %+v", rep)
			}
			if a := cex.Announcements[0]; a.Prefix != cex.Packet.DstIP+"/32" {
				t.Fatalf("want the peer to announce the packet's /32: %+v", a)
			}
			if cex.ReplayAgrees == nil || !*cex.ReplayAgrees || len(cex.ReplayDiffs) != 0 {
				t.Fatalf("-replay: the pinned model disagrees: %v", cex.ReplayDiffs)
			}
		}},
		{"modular composed", func() cliOpts {
			o := far(base(fab, "reachability"))
			o.tiers, o.modular, o.blame = "none", true, true
			return o
		}(), func(t *testing.T, rep *pipeline.Report) {
			if !rep.Verified || rep.Mode != pipeline.ModeModular || rep.Components != 5 || rep.ComponentChecks == 0 || len(rep.Blame) == 0 {
				t.Fatalf("want a composed, blamed verdict over 5 components: %+v", rep)
			}
			if len(rep.ModularResidue) != 0 {
				t.Fatalf("composed verdict names residue %v", rep.ModularResidue)
			}
		}},
		{"modular fallback", func() cliOpts {
			o := far(base(fab, "reachability"))
			o.tiers, o.modular, o.maxFailures = "none", true, 1
			return o
		}(), func(t *testing.T, rep *pipeline.Report) {
			if rep.Mode != pipeline.ModeFallback || !strings.Contains(strings.Join(rep.ModularResidue, ","), "goal-max-failures") {
				t.Fatalf("want a fallback naming goal-max-failures: mode %q residue %v", rep.Mode, rep.ModularResidue)
			}
			if rep.Verified || rep.Solver == nil || rep.Counterexample == nil {
				t.Fatalf("one failure cuts the only path; want the monolithic step's counterexample: %+v", rep)
			}
		}},
		{"equivalence", func() cliOpts {
			o := base(fab, "equivalence")
			o.pair = "agg-0-0,agg-1-0"
			return o
		}(), func(t *testing.T, rep *pipeline.Report) {
			if rep.Check != "equivalence" || rep.Verified != (rep.Difference == "") {
				t.Fatalf("verified and difference disagree: %+v", rep)
			}
		}},
		{"equivalence, certified", func() cliOpts {
			// A's and B's import maps differ in text, not in effect: only
			// the sweep's solver queries can tell, and -certify reaches them.
			o := base("../../examples/equivalence", "equivalence")
			o.pair, o.certify = "A,B", true
			return o
		}(), func(t *testing.T, rep *pipeline.Report) {
			if !rep.Verified || rep.Solver == nil || rep.Proof == nil || !rep.Proof.Checked || rep.Proof.Lemmas == 0 {
				t.Fatalf("want a verified verdict with a checked proof and a solver block: %+v, proof %+v", rep, rep.Proof)
			}
		}},
		{"fault-invariance", base(fab, "fault-invariance"), func(t *testing.T, rep *pipeline.Report) {
			if rep.Verified || rep.Solver == nil || rep.Counterexample == nil || len(rep.Counterexample.FailedLinks) == 0 {
				t.Fatalf("a tree fabric is not invariant under one failure; want a counterexample with a failed link: %+v", rep)
			}
		}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) { c.check(t, runJSON(t, c.opts)) })
	}
}

// TestFaultInvarianceAsksTheAuditQuestion: the CLI's fault-invariance is
// the §8.1 audit's question, with the external announcements held
// silent, so net015 of the 16-network audit population (5 routers, one
// external peer), invariant in the audit, reads verified here too. Left
// symbolic, the announcements made every network of that population
// read violated.
func TestFaultInvarianceAsksTheAuditQuestion(t *testing.T) {
	pop, err := netgen.Population(16, 1, netgen.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n := pop[14]
	if n.Name != "net015" {
		t.Fatalf("population member 15 is %s", n.Name)
	}
	rep := runJSON(t, base(configDir(t, n.Routers), "fault-invariance"))
	if !rep.Verified || rep.Solver == nil {
		t.Fatalf("want a verified solver verdict: %+v", rep)
	}
}

// TestRunProgress: -progress rides core.Options, so the pair model of
// fault-invariance reports and so do the modular component checks, which
// run concurrently and share one stderr (go test -race).
func TestRunProgress(t *testing.T) {
	fab := fabricDir(t)
	composed := base(fab, "reachability")
	composed.src, composed.subnet, composed.tiers, composed.modular = "tor-1-0", "10.0.0.0/24", "none", true
	for _, o := range []cliOpts{base(fab, "fault-invariance"), composed} {
		o.progressEvery = 1
		var out, diag bytes.Buffer
		if err := run(o, &out, &diag); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(diag.String(), "progress: conflicts=1 ") {
			t.Errorf("%s: no progress on stderr:\n%s", o.check, diag.String())
		}
	}
}

// TestRunBlameIsDeterministic is the CI blame smoke: two runs, one blame.
func TestRunBlameIsDeterministic(t *testing.T) {
	o := base(figure2, "loops")
	o.blame = true
	first, second := runJSON(t, o), runJSON(t, o)
	if !first.Verified || len(first.Blame) == 0 {
		t.Fatalf("want a verified verdict with blame: %+v", first)
	}
	if strings.Join(first.Blame, "\n") != strings.Join(second.Blame, "\n") {
		t.Fatalf("blame differs between runs:\n%v\n%v", first.Blame, second.Blame)
	}
}

func TestRunText(t *testing.T) {
	o := base(figure2, "loops")
	o.tiers, o.certify, o.costOut, o.verbose = "none", true, true, true
	out, err := runCLI(t, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loaded 3 routers", "proof: checked (", " 0 fallbacks", "cost:", "units", "phases: encode", "solver: "} {
		if !strings.Contains(out, want) {
			t.Errorf("text output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunValidation(t *testing.T) {
	fab := fabricDir(t)
	with := func(o cliOpts, edit func(*cliOpts)) cliOpts { edit(&o); return o }
	reach := base(fab, "reachability")
	reach.src, reach.subnet = "tor-1-0", "10.0.0.0/24"
	for _, c := range []struct {
		name string
		opts cliOpts
		want string
	}{
		{"-passes", with(reach, func(o *cliOpts) { o.passes = "hoist,nope" }), `unknown pass "nope"`},
		{"-passes fold", with(reach, func(o *cliOpts) { o.passes = "hoist,slice,fold" }), `unknown pass "fold" (known: hoist,slice,propagate,coi,all,none)`},
		{"-tiers", with(reach, func(o *cliOpts) { o.tiers = "fast" }), `unknown -tiers value "fast"`},
		{"-configs", base(t.TempDir(), "loops"), "no .cfg/.conf files"},
		{"missing -src", with(reach, func(o *cliOpts) { o.src = "" }), `check "reachability" requires src`},
		{"missing -subnet", with(reach, func(o *cliOpts) { o.subnet = "" }), `check "reachability" requires subnet`},
		{"bad -subnet", with(reach, func(o *cliOpts) { o.subnet = "10.0.0.0/40" }), "subnet"},
		{"missing -via", with(reach, func(o *cliOpts) { o.check = "waypoint" }), `check "waypoint" requires via`},
		{"unknown -src", with(reach, func(o *cliOpts) { o.src = "tor-9-9" }), `"tor-9-9" is not a router`},
		{"unknown -via", with(reach, func(o *cliOpts) { o.check, o.via = "waypoint", "agg-9-9" }), `"agg-9-9" is not a router`},
		{"unknown -check", base(fab, "nope"), `unknown check "nope"`},
		{"-pair", base(fab, "equivalence"), `check "equivalence" requires pair`},
		{"-pair a", with(base(fab, "equivalence"), func(o *cliOpts) { o.pair = "agg-0-0" }), `requires pair a,b, got "agg-0-0"`},
		{"unknown -pair", with(base(fab, "equivalence"), func(o *cliOpts) { o.pair = "agg-0-0,agg-9-9" }), `"agg-9-9" is not a router`},
	} {
		out, err := runCLI(t, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
		if strings.Contains(out, "verified") || strings.Contains(out, "VIOLATED") {
			t.Errorf("%s: a rejected command line printed a verdict:\n%s", c.name, out)
		}
	}
}
