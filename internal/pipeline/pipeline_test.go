package pipeline_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs/cost"
	"repro/internal/obs/stream"
	"repro/internal/pipeline"
	"repro/internal/properties"
	"repro/internal/sat"
	"repro/internal/testnets"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

func chain(t *testing.T, n int) *pipeline.Network {
	t.Helper()
	configs := map[string]string{}
	for i, text := range testnets.OSPFChainTexts(n) {
		configs[fmt.Sprintf("r%d.cfg", i+1)] = text
	}
	net, err := pipeline.Load(configs)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func fabric(t *testing.T, k int) *pipeline.Network {
	t.Helper()
	ft, err := topogen.Generate(k)
	if err != nil {
		t.Fatal(err)
	}
	net, err := pipeline.Build(ft.Routers)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func options(tiers string) pipeline.Options {
	var o pipeline.Options
	o.Core.Tiers = tiers
	return o
}

func TestLoadNamesTheFileThatFailsToParse(t *testing.T) {
	_, err := pipeline.Load(map[string]string{"a.cfg": "hostname A\n", "b.cfg": "interface\n"})
	if err == nil || !strings.Contains(err.Error(), "b.cfg") {
		t.Fatalf("err = %v, want a parse error naming b.cfg", err)
	}
}

func TestSpecGoal(t *testing.T) {
	for _, c := range []struct {
		spec pipeline.Spec
		want string // error substring; "" = ok
	}{
		{pipeline.Spec{Check: "reachability", Src: "R1", Subnet: "10.0.0.0/8"}, ""},
		{pipeline.Spec{Check: "loops"}, ""},
		{pipeline.Spec{}, "check is required"},
		{pipeline.Spec{Check: "nope"}, `unknown check "nope"`},
		{pipeline.Spec{Check: "reachability", Subnet: "10.0.0.0/8"}, "requires src"},
		{pipeline.Spec{Check: "isolation", Src: "R1"}, "requires subnet"},
		{pipeline.Spec{Check: "waypoint", Src: "R1", Subnet: "10.0.0.0/8"}, "requires via"},
		{pipeline.Spec{Check: "bounded-length", Src: "R1", Subnet: "not-a-cidr"}, "subnet"},
		{pipeline.Spec{Check: "equivalence", Pair: "a,b"}, ""},
		{pipeline.Spec{Check: "equivalence"}, "requires pair a,b"},
		{pipeline.Spec{Check: "equivalence", Pair: "a"}, "requires pair a,b"},
		{pipeline.Spec{Check: "equivalence", Pair: "a,"}, "requires pair a,b"},
		{pipeline.Spec{Check: "equivalence", Pair: "a,b,c"}, "requires pair a,b"},
		{pipeline.Spec{Check: "fault-invariance"}, ""},
	} {
		g, err := c.spec.Goal()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: %v", c.spec, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: err = %v, want substring %q", c.spec, err, c.want)
		case c.want == "" && g.HasSubnet != (c.spec.Subnet != ""):
			t.Errorf("%+v: HasSubnet = %v", c.spec, g.HasSubnet)
		}
	}
	g, err := pipeline.Spec{Check: "bounded-length", Src: "R1", Subnet: "10.0.0.0/8"}.Goal()
	if err != nil || g.Hops != pipeline.DefaultHops {
		t.Fatalf("default hops: goal %+v err %v", g, err)
	}
	g, err = pipeline.Spec{Check: "fault-invariance"}.Goal()
	if err != nil || g.MaxFailures != 1 {
		t.Fatalf("fault-invariance under 0 failures is the question under 1: goal %+v err %v", g, err)
	}
	g, err = pipeline.Spec{Check: "equivalence", Pair: "a,b"}.Goal()
	if err != nil || len(g.Srcs) != 2 || g.Srcs[0] != "a" || g.Srcs[1] != "b" {
		t.Fatalf("pair a,b: goal %+v err %v", g, err)
	}
}

// TestPropertyAssumptionRule pins the one rule: the failure budget, plus
// the destination restriction exactly when the goal has a subnet; and the
// strictest validation of the copies Property replaced.
func TestPropertyAssumptionRule(t *testing.T) {
	net := chain(t, 3)
	sub := network.MustParsePrefix("10.100.3.0/24")
	for _, c := range []struct {
		goal tiered.Goal
		want int    // assumptions
		err  string // error substring
	}{
		{tiered.Goal{Check: "loops"}, 1, ""},
		{tiered.Goal{Check: "blackholes", Subnet: sub, HasSubnet: true}, 2, ""},
		{tiered.Goal{Check: "reachability", Src: "R1", Subnet: sub, HasSubnet: true, MaxFailures: 1}, 2, ""},
		{tiered.Goal{Check: "reachability-all", Srcs: []string{"R1", "R2"}, Subnet: sub, HasSubnet: true}, 2, ""},
		{tiered.Goal{Check: "reachability", Src: "R9", Subnet: sub, HasSubnet: true}, 0, "not a router"},
		{tiered.Goal{Check: "waypoint", Src: "R1", Via: "R9", Subnet: sub, HasSubnet: true}, 0, "not a router"},
		{tiered.Goal{Check: "reachability-all", Srcs: []string{"R1", "R9"}, Subnet: sub, HasSubnet: true}, 0, "not a router"},
		{tiered.Goal{Check: "reachability", Subnet: sub, HasSubnet: true}, 0, "requires a source"},
		{tiered.Goal{Check: "equal-lengths", Srcs: []string{"R1"}}, 0, "subnet"},
		{tiered.Goal{Check: "nope"}, 0, "unknown check"},
		{tiered.Goal{Check: "drops-at-edge", Srcs: []string{"R1", "R3"}}, 1, ""},
		{tiered.Goal{Check: "drops-at-edge", Srcs: []string{"R9"}}, 0, "not a router"},
	} {
		m, err := core.Encode(net.Graph, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		p, assumptions, err := pipeline.Property(m, c.goal)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%+v: err = %v, want substring %q", c.goal, err, c.err)
			}
			continue
		}
		if err != nil || p == nil || len(assumptions) != c.want {
			t.Errorf("%+v: term %v, %d assumptions (want %d), err %v", c.goal, p, len(assumptions), c.want, err)
		}
	}
}

// TestRunPairGoals: equivalence and fault-invariance are answered by Run
// on models of their own. A falsified equivalence carries its difference
// and no counterexample, timed by one solve phase; a router the network
// lacks is the client's mistake; cancellation and the progress hook of
// Options.Core reach the pair model's search.
func TestRunPairGoals(t *testing.T) {
	net := fabric(t, 2)
	v, err := pipeline.Run(context.Background(), net, tiered.Goal{Check: "equivalence", Srcs: []string{"tor-0-0", "core-0"}}, options(""))
	if err != nil {
		t.Fatal(err)
	}
	res := v.Result
	if res.Verified || v.Difference == "" || res.Counterexample != nil || v.Model != nil || res.Tier != tiered.TierSAT {
		t.Fatalf("want a falsified sat-tier verdict with a difference and no counterexample: %+v, difference %q", res, v.Difference)
	}
	if solve := res.Cost.Find("solve"); solve == nil || res.Elapsed != solve.Wall+res.FastPathElapsed || !res.Cost.Total().IsZero() {
		t.Fatalf("want the sweep timed by one solve phase with no solver work: %+v", res.Cost)
	}
	rep := pipeline.NewReport("equivalence", v)
	if rep.Verified || rep.Difference != v.Difference || rep.Counterexample != nil || rep.Solver != nil {
		t.Fatalf("report: %+v", rep)
	}
	if got := properties.Describe("equivalence", res); !strings.Contains(got, "VIOLATED") {
		t.Fatalf("describe: %q", got)
	}
	// A verified sweep reads as one too, with no solver counts it did not
	// keep: no solver block, no "0 vars, 0 clauses".
	v, err = pipeline.Run(context.Background(), net, tiered.Goal{Check: "equivalence", Srcs: []string{"tor-0-0", "tor-0-0"}}, options(""))
	if err != nil {
		t.Fatal(err)
	}
	if rep := pipeline.NewReport("equivalence", v); !rep.Verified || rep.Solver != nil || rep.SATVars != 0 {
		t.Fatalf("verified equivalence report: %+v", rep)
	}
	if got := properties.Describe("equivalence", v.Result); !strings.Contains(got, "verified") || strings.Contains(got, "vars") {
		t.Fatalf("describe: %q", got)
	}

	// A goal built without Spec.Normalize must not ask under 0 failures,
	// where the two copies agree by construction.
	for _, k := range []int{0, -1} {
		_, err := pipeline.Run(context.Background(), net, tiered.Goal{Check: "fault-invariance", MaxFailures: k}, options("none"))
		var bad *pipeline.RequestError
		if !errors.As(err, &bad) {
			t.Errorf("fault-invariance under %d failures: err = %v, want a RequestError", k, err)
		}
	}

	for _, srcs := range [][]string{{"tor-0-0", "core-9"}, {"tor-0-0"}} {
		_, err := pipeline.Run(context.Background(), net, tiered.Goal{Check: "equivalence", Srcs: srcs}, options("none"))
		var bad *pipeline.RequestError
		if !errors.As(err, &bad) {
			t.Errorf("equivalence of %v: err = %v, want a RequestError", srcs, err)
		}
	}

	// The first progress snapshot of the pair model's search cancels it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := options("none")
	opts.Core.ProgressEvery = 1
	opts.Core.OnProgress = func(sat.Progress) { cancel() }
	v, err = pipeline.Run(ctx, net, tiered.Goal{Check: "fault-invariance", MaxFailures: 1}, opts)
	if !errors.Is(err, context.Canceled) || v.Result != nil {
		t.Fatalf("cancelled fault-invariance: err = %v, result %+v", err, v.Result)
	}

	// Cancelled as its solve phase opens, the equivalence sweep of two
	// routers it would find equivalent stops before its first query.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	opts = options("none")
	opts.Core.OnEvent = func(kind string, f map[string]any) {
		if kind == stream.EventPhaseStart && f["phase"] == "solve" {
			cancel()
		}
	}
	v, err = pipeline.Run(ctx, net, tiered.Goal{Check: "equivalence", Srcs: []string{"agg-0-0", "agg-1-0"}}, opts)
	if !errors.Is(err, context.Canceled) || v.Result != nil {
		t.Fatalf("cancelled equivalence: err = %v, result %+v", err, v.Result)
	}
}

// TestRunEquivalenceCertified: an equivalence goal whose sweep reaches
// the solver is priced like any solver verdict. The goal ledger's solve
// node carries the sweep's work, equal to the Result's Stats; certified,
// a verified verdict carries the sweep's checked certificate, and the
// report has both a solver and a proof block. A falsified one has counts
// and its difference.
func TestRunEquivalenceCertified(t *testing.T) {
	configs, err := pipeline.ReadDir("../../examples/equivalence")
	if err != nil {
		t.Fatal(err)
	}
	net, err := pipeline.Load(configs)
	if err != nil {
		t.Fatal(err)
	}
	opts := options("none")
	opts.Core.Certify = true
	for _, pair := range [][]string{{"A", "B"}, {"A", "C"}} {
		v, err := pipeline.Run(context.Background(), net, tiered.Goal{Check: "equivalence", Srcs: pair}, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := v.Result
		if res.Verified != (pair[1] == "B") || (v.Difference == "") != res.Verified {
			t.Fatalf("%v: verified %v, difference %q", pair, res.Verified, v.Difference)
		}
		if solve := res.Cost.Find("solve"); solve == nil || solve.Total() != cost.FromStats(res.Stats) || res.Cost.Total() != solve.Total() || res.Stats.Decisions == 0 {
			t.Fatalf("%v: ledger %+v does not price the sweep's stats %+v", pair, res.Cost, res.Stats)
		}
		rep := pipeline.NewReport("equivalence", v)
		if rep.Solver == nil || rep.SATVars == 0 || (rep.Proof != nil) != res.Verified || (rep.Proof != nil && !rep.Proof.Checked) {
			t.Fatalf("%v: report solver %+v, proof %+v", pair, rep.Solver, rep.Proof)
		}
	}
}

// With the graph tier off the monolithic result comes back unstamped:
// no tier, no fast-path time, no graph residue.
func TestRunTiersOffLeavesResultUnstamped(t *testing.T) {
	v, err := pipeline.Run(context.Background(), chain(t, 2), tiered.Goal{Check: "loops"}, options("none"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Result.Verified || v.Model == nil {
		t.Fatalf("verified=%v model=%v, want a verified monolithic verdict", v.Result.Verified, v.Model)
	}
	if v.Result.Tier != "" || v.Result.FastPathElapsed != 0 || v.GraphResidue != "" {
		t.Fatalf("tiers off stamped Tier=%q FastPathElapsed=%v GraphResidue=%q",
			v.Result.Tier, v.Result.FastPathElapsed, v.GraphResidue)
	}
}

// A goal the graph tier decides never reaches the later steps: no model
// is built, and the synthesized result carries the tier's blame.
func TestRunGraphDecidedSkipsLaterSteps(t *testing.T) {
	opts := options("")
	opts.Modular = true
	opts.Core.Blame = true
	opts.Live = func() (*core.Model, *core.Session, error) {
		t.Fatal("monolithic step ran for a goal the graph tier decided")
		return nil, nil, nil
	}
	v, err := pipeline.Run(context.Background(), chain(t, 2), tiered.Goal{Check: "loops"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Result.Tier != tiered.TierGraph || !v.Result.Verified || v.Model != nil || v.Mode != "" {
		t.Fatalf("Tier=%q Verified=%v Model=%v Mode=%q, want a graph-tier verdict and nothing after it",
			v.Result.Tier, v.Result.Verified, v.Model, v.Mode)
	}
	if len(v.Result.Blame) == 0 {
		t.Fatal("blame on, but the synthesized result carries none")
	}
}

// Graph residue is named on the verdict and the step that answers after
// it is stamped as solver fall-through.
func TestRunGraphResidueStampsResult(t *testing.T) {
	goal := tiered.Goal{Check: "reachability", Src: "R1", MaxFailures: 1,
		Subnet: network.MustParsePrefix("10.100.2.0/24"), HasSubnet: true}
	v, err := pipeline.Run(context.Background(), chain(t, 2), goal, options("graph,sat"))
	if err != nil {
		t.Fatal(err)
	}
	if v.GraphResidue == "" {
		t.Fatal("the tier handed the goal down without naming why")
	}
	if v.Result.Tier != tiered.TierSAT || v.Result.FastPathElapsed <= 0 {
		t.Fatalf("Tier=%q FastPathElapsed=%v, want sat with the classification time", v.Result.Tier, v.Result.FastPathElapsed)
	}
	if v.Result.Verified {
		t.Fatal("a two-router chain does not survive a link failure")
	}
}

// TestCertifiedModularVerdict: certification runs per component check,
// and the composed verdict carries the components' summed certificate and
// their class subtrees, so its report shows the proof and the certify
// time its ledger charged.
func TestCertifiedModularVerdict(t *testing.T) {
	opts := options("none")
	opts.Modular, opts.Workers = true, 2
	opts.Core.Certify = true
	goal := tiered.Goal{Check: "reachability", Src: topogen.ToRName(1, 0), Subnet: topogen.ToRSubnet(0, 0), HasSubnet: true}
	v, err := pipeline.Run(context.Background(), fabric(t, 2), goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := v.Result
	if v.Mode != pipeline.ModeModular || !res.Verified || v.Modular.Checks == 0 {
		t.Fatalf("mode=%q verified=%v checks=%d (residue %v)", v.Mode, res.Verified, v.Modular.Checks, v.Residue)
	}
	if c := res.Certificate; c == nil || !c.Checked || c.Fallbacks != 0 || c.Inputs == 0 {
		t.Fatalf("composed certificate %+v, want the checked sum of the components'", c)
	}
	var certify time.Duration
	for _, class := range res.Cost.Children {
		if ph := class.Find("certify"); ph != nil {
			certify += ph.Wall
		}
	}
	if certify <= 0 || res.CertifyElapsed != certify {
		t.Fatalf("certify time %v, class subtrees %v", res.CertifyElapsed, certify)
	}
	rep := pipeline.NewReport(goal.Check, v)
	if rep.Proof == nil || rep.Proof.Steps != res.Certificate.Steps || rep.Proof.CheckMs != rep.CertifyMs || rep.Cost != res.Cost {
		t.Fatalf("report proof %+v, certify %vms, cost %p (verdict's %p)", rep.Proof, rep.CertifyMs, rep.Cost, res.Cost)
	}
	if sum := rep.FastPathMs + rep.EncodeMs + rep.SimplifyMs + rep.ProbeMs + rep.SolveMs + rep.CertifyMs; rep.ElapsedMs != sum {
		t.Fatalf("elapsed %v != phase sum %v", rep.ElapsedMs, sum)
	}
}

// TestRunModularStep walks the four ways the modular step ends.
func TestRunModularStep(t *testing.T) {
	opts := options("none")
	opts.Modular, opts.Workers = true, 2
	sub := topogen.ToRSubnet(0, 0)
	reach := tiered.Goal{Check: "reachability", Src: topogen.ToRName(1, 0), Subnet: sub, HasSubnet: true}
	fab := fabric(t, 2)

	v, err := pipeline.Run(context.Background(), fab, reach, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != pipeline.ModeModular || !v.Result.Verified || v.Model != nil || v.Modular == nil {
		t.Fatalf("composed: mode=%q verified=%v model=%v (residue %v)", v.Mode, v.Result.Verified, v.Model, v.Residue)
	}

	// A failure budget is outside the compositional fragment: named
	// residue, then the monolithic step answers.
	budget := reach
	budget.MaxFailures = 1
	v, err = pipeline.Run(context.Background(), fab, budget, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != pipeline.ModeFallback || v.Result == nil || v.Model == nil ||
		!strings.Contains(strings.Join(v.Residue, ","), "goal-max-failures") {
		t.Fatalf("fallback: mode=%q result=%v residue=%v, want a monolithic verdict after goal-max-failures", v.Mode, v.Result, v.Residue)
	}

	// NoFallback makes that residue final.
	opts.NoFallback = true
	v, err = pipeline.Run(context.Background(), fab, budget, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != pipeline.ModeFallback || v.Result != nil || len(v.Residue) == 0 {
		t.Fatalf("no-fallback: mode=%q result=%v residue=%v, want undecided residue", v.Mode, v.Result, v.Residue)
	}

	// A single component has nothing to compose; NoFallback does not apply.
	v, err = pipeline.Run(context.Background(), chain(t, 3),
		tiered.Goal{Check: "reachability", Src: "R1", Subnet: network.MustParsePrefix("10.100.3.0/24"), HasSubnet: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != pipeline.ModeMonolithic || v.Result == nil || !v.Result.Verified {
		t.Fatalf("single component: mode=%q result=%v", v.Mode, v.Result)
	}
}

// TestModularFallbackChargesTheComponentChecks: a modular run that ends
// in runtime residue has run component checks before the monolithic step
// answers. Reachability from a ToR to an address no router announces
// fails its obligation check there (residue obligation:tor-1-0), so the
// fallback verdict's ledger must hold those checks under a modular node
// and its Stats must count them: the ledger equals the solver counts and
// exceeds the monolithic check's alone.
func TestModularFallbackChargesTheComponentChecks(t *testing.T) {
	goal := tiered.Goal{Check: "reachability", Src: topogen.ToRName(1, 0),
		Subnet: network.MustParsePrefix("203.0.114.77/32"), HasSubnet: true}
	fab := fabric(t, 2)
	opts := options("none")
	mono, err := pipeline.Run(context.Background(), fab, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Modular, opts.Workers = true, 2
	v, err := pipeline.Run(context.Background(), fab, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != pipeline.ModeFallback || strings.Join(v.Residue, ",") != "obligation:tor-1-0" || v.Modular.Checks == 0 {
		t.Fatalf("mode %q, residue %v: not the row this is", v.Mode, v.Residue)
	}
	if v.Result.Verified != mono.Result.Verified {
		t.Fatalf("fallback verified=%v, monolithic verified=%v", v.Result.Verified, mono.Result.Verified)
	}
	work := v.Result.Cost.Total()
	if alone := mono.Result.Cost.Total().Units(); work.Units() <= alone {
		t.Errorf("ledger %d units, the monolithic check alone %d", work.Units(), alone)
	}
	if mod := v.Result.Cost.Find("modular"); mod == nil || len(mod.Children) != v.Modular.Classes || mod.Total().Units() == 0 {
		t.Errorf("modular node %+v, %d classes checked", mod, v.Modular.Classes)
	}
	work.ClauseDBBytes, work.ProofBytes = 0, 0
	if stats := cost.FromStats(v.Result.Stats); work != stats {
		t.Errorf("ledger work %+v, solver stats %+v", work, stats)
	}
}

// TestModularAnswersTheTiersResidue: with the graph tier on, the modular
// step still answers on a fabric. An inter-router link /30 is carried by
// no router in BGP, and the cores' BLOCK-FABRIC filter admits covering
// announcements such as 0.0.0.0/0, so the tier leaves a goal scoped to it
// as residue external-influence. The modular step verifies it without
// reaching the monolithic one; at pods-8 the monolithic step does not
// finish these goals in 100 s (DESIGN §15).
func TestModularAnswersTheTiersResidue(t *testing.T) {
	opts := options("")
	opts.Modular, opts.Workers = true, 2
	opts.Live = func() (*core.Model, *core.Session, error) {
		t.Error("the goal reached the monolithic step")
		return nil, nil, errors.New("no monolithic step")
	}
	fab := fabric(t, 4)
	link := network.MustParsePrefix("172.16.0.0/30") // tor-0-0 to agg-0-0
	for _, check := range []string{"blackholes", "multipath-consistency"} {
		v, err := pipeline.Run(context.Background(), fab, tiered.Goal{Check: check, Subnet: link, HasSubnet: true}, opts)
		if err != nil {
			t.Fatalf("%s: %v", check, err)
		}
		if v.GraphResidue != "external-influence" || v.Mode != pipeline.ModeModular || v.Result == nil || !v.Result.Verified {
			t.Fatalf("%s: graph residue %q, mode %q, result %v (residue %v); want external-influence, then a verified composition",
				check, v.GraphResidue, v.Mode, v.Result, v.Residue)
		}
	}
}

// TestRunLiveSession is the monolithic step's other parameter: the
// caller's long-lived session answers goal after goal on one blast of
// the network, with the verdicts of a fresh model.
func TestRunLiveSession(t *testing.T) {
	net := chain(t, 3)
	m, err := core.Encode(net.Graph, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession()
	live := options("none")
	live.Live = func() (*core.Model, *core.Session, error) { return m, sess, nil }
	goals := []tiered.Goal{
		{Check: "reachability", Src: "R1", Subnet: network.MustParsePrefix("10.100.3.0/24"), HasSubnet: true},
		{Check: "isolation", Src: "R1", Subnet: network.MustParsePrefix("10.100.3.0/24"), HasSubnet: true},
		{Check: "bounded-length", Src: "R3", Subnet: network.MustParsePrefix("10.100.1.0/24"), HasSubnet: true, Hops: 1},
		{Check: "blackholes"},
	}
	var last *core.Result
	for _, goal := range goals {
		got, err := pipeline.Run(context.Background(), net, goal, live)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipeline.Run(context.Background(), net, goal, options("none"))
		if err != nil {
			t.Fatal(err)
		}
		if got.Model != m || got.Result.Verified != want.Result.Verified {
			t.Fatalf("%s: live verified=%v on model %p, fresh verified=%v", goal.Check, got.Result.Verified, got.Model, want.Result.Verified)
		}
		last = got.Result
	}
	if sess.Checks() != len(goals) {
		t.Fatalf("checks=%d, want %d", sess.Checks(), len(goals))
	}
	// One blast of the network: the first goal again finds all its terms
	// in the solver and adds one variable, its activation literal.
	again, err := pipeline.Run(context.Background(), net, goals[0], live)
	if err != nil {
		t.Fatal(err)
	}
	if again.Result.SATVars != last.SATVars+1 {
		t.Fatalf("asking again took the solver from %d to %d variables", last.SATVars, again.Result.SATVars)
	}
}

// TestReport pins the one JSON rendering: field names both surfaces
// print, the elapsed identity, and a decoded counterexample.
func TestReport(t *testing.T) {
	opts := options("none")
	opts.Core.Certify = true
	net := chain(t, 3)
	sub := network.MustParsePrefix("10.100.3.0/24")
	v, err := pipeline.Run(context.Background(), net, tiered.Goal{Check: "reachability", Src: "R1", Subnet: sub, HasSubnet: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := pipeline.NewReport("reachability", v)
	if !rep.Verified || rep.Proof == nil || !rep.Proof.Checked || rep.Proof.Fallbacks != 0 || rep.Solver == nil || rep.Cost == nil {
		t.Fatalf("verified report: %+v", rep)
	}
	if sum := rep.FastPathMs + rep.EncodeMs + rep.SimplifyMs + rep.ProbeMs + rep.SolveMs + rep.CertifyMs; rep.ElapsedMs != sum {
		t.Fatalf("elapsed %v != phase sum %v", rep.ElapsedMs, sum)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"check", "verified", "elapsed_ms", "encode_ms", "simplify_ms", "solve_ms",
		"certify_ms", "sat_vars", "sat_clauses", "solver", "proof", "cost"} {
		if _, ok := fields[name]; !ok {
			t.Errorf("report JSON lacks %q: %s", name, raw)
		}
	}

	v, err = pipeline.Run(context.Background(), net, tiered.Goal{Check: "isolation", Src: "R1", Subnet: sub, HasSubnet: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep = pipeline.NewReport("isolation", v)
	if rep.Verified || rep.Counterexample == nil || len(rep.Counterexample.Forwarding) == 0 {
		t.Fatalf("falsified report lacks a decoded counterexample: %+v", rep)
	}
	if !sub.Contains(network.MustParseIP(rep.Counterexample.Packet.DstIP)) {
		t.Fatalf("counterexample packet %s outside %v", rep.Counterexample.Packet.DstIP, sub)
	}

	// A graph-tier verdict has no solver block and no forwarding state.
	v, err = pipeline.Run(context.Background(), net, tiered.Goal{Check: "isolation", Src: "R1", Subnet: sub, HasSubnet: true}, options(""))
	if err != nil {
		t.Fatal(err)
	}
	rep = pipeline.NewReport("isolation", v)
	if rep.Tier != tiered.TierGraph || rep.Solver != nil || rep.Verified || rep.Counterexample == nil || rep.Counterexample.Forwarding != nil {
		t.Fatalf("graph-tier report: %+v", rep)
	}
}
