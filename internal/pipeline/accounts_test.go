package pipeline_test

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/obs/cost"
	"repro/internal/obs/stream"
	"repro/internal/pipeline"
	"repro/internal/properties"
	"repro/internal/smt"
	"repro/internal/testnets"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

// rig is the span root and the event sink one row of TestPhaseAccounts
// attaches to whatever it runs.
type rig struct {
	tr     *obs.Trace
	events []stream.Event
}

func newRig() *rig { return &rig{tr: obs.New("query")} }

func (r *rig) sink(event string, fields map[string]any) {
	r.events = append(r.events, stream.Event{Type: event, Data: fields})
}

// wire routes the spans and events of checks run with o to the rig.
func (r *rig) wire(o *core.Options) { o.Span, o.OnEvent = r.tr.Root(), r.sink }

// phaseEnds lists the phase.end names in arrival order, after checking
// that phases never nest: each phase.start is answered by the phase.end
// of the same name before the next one opens.
func (r *rig) phaseEnds(t *testing.T) []string {
	t.Helper()
	var ends []string
	open := ""
	for _, e := range r.events {
		switch e.Type {
		case stream.EventPhaseStart:
			if open != "" {
				t.Errorf("phase %q opened inside %q", e.Data["phase"], open)
			}
			open = e.Data["phase"].(string)
		case stream.EventPhaseEnd:
			if name := e.Data["phase"].(string); name != open {
				t.Errorf("phase.end %q without its phase.start (open: %q)", name, open)
			}
			open = ""
			ends = append(ends, e.Data["phase"].(string))
		}
	}
	if open != "" {
		t.Errorf("phase %q never closed", open)
	}
	return ends
}

// phaseSpans lists the spans of the query's phases: the root's children,
// looking through the check's own span and past the model encode.
func (r *rig) phaseSpans(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, c := range r.tr.Root().Children() {
		switch c.Name() {
		case "encode":
		case "check", "session-check":
			for _, ph := range c.Children() {
				if !ph.Ended() {
					t.Errorf("span %q left open", ph.Name())
				}
				names = append(names, ph.Name())
			}
		default:
			if !c.Ended() {
				t.Errorf("span %q left open", c.Name())
			}
			names = append(names, c.Name())
		}
	}
	return names
}

func (r *rig) has(event string) bool {
	for _, e := range r.events {
		if e.Type == event {
			return true
		}
	}
	return false
}

func sorted(names []string) string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return strings.Join(out, " ")
}

func passNames(res *core.Result) string {
	var names []string
	for _, ps := range res.PassStats {
		names = append(names, ps.Pass)
	}
	return strings.Join(names, " ")
}

// TestPhaseAccounts is the one identity test of the instrumentation
// spine. Every way a query can run is a row; for each the four accounts
// of its phases must be one account:
//
//   - every time the Result reports is the wall time of the ledger phase it
//     names, and Elapsed is their sum;
//   - the ledger's work is the solver's: equal to Stats counter for
//     counter;
//   - with a sink and a span attached, the phase.end events, the ledger's
//     children and the phase spans name the same phases, each once, and no
//     phase.start goes unanswered.
//
// What a row pins beyond that (proof bytes on certify, clause-db bytes on
// blast, which passes were charged, that a session's checks keep separate
// books) is in its extra.
func TestPhaseAccounts(t *testing.T) {
	ctx := context.Background()
	sub := network.MustParsePrefix("10.100.3.0/24")
	// chainQuery encodes the 3-router OSPF chain and states "R1 reaches
	// R3's stub" (verified) or its negation (falsified) on the model.
	chainQuery := func(t *testing.T, opts core.Options, holds bool) (*core.Model, *smt.Term, []*smt.Term) {
		t.Helper()
		m, err := core.Encode(testnets.OSPFChain(3).Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		check := "reachability"
		if !holds {
			check = "isolation"
		}
		p, assumptions, err := pipeline.Property(m, tiered.Goal{Check: check, Src: "R1", Subnet: sub, HasSubnet: true})
		if err != nil {
			t.Fatal(err)
		}
		return m, p, assumptions
	}
	must := func(t *testing.T, res *core.Result, err error) *core.Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh := func(opts core.Options, holds bool) func(*testing.T, *rig) *core.Result {
		return func(t *testing.T, r *rig) *core.Result {
			m, p, assumptions := chainQuery(t, opts, holds)
			r.wire(&m.Opts)
			res, err := m.CheckGoal(context.Background(), nil, p, assumptions...)
			return must(t, res, err)
		}
	}
	with := func(set func(*core.Options)) core.Options {
		o := core.DefaultOptions()
		set(&o)
		return o
	}

	rows := []struct {
		name   string
		run    func(t *testing.T, r *rig) *core.Result
		phases string // the ledger's phases, sorted
		// merged: the ledger is composed of component ledgers whose checks
		// ran without spans or a sink, one "class:N" subtree of phases per
		// class; only the books are compared. Every other ledger is one
		// level of phases.
		merged bool
		extra  func(t *testing.T, r *rig, res *core.Result)
	}{
		// The chain's reachability holds, so the pinned simulated state is
		// refuted and the check searches: this is the probe-refuted row.
		{name: "fresh", phases: "blast compile probe simplify solve",
			run: func(t *testing.T, r *rig) *core.Result {
				m, p, assumptions := chainQuery(t, core.DefaultOptions(), true)
				cn := m.Compile() // amortized by the caller: not this query's
				r.wire(&m.Opts)
				res, err := m.CheckGoal(ctx, cn, p, assumptions...)
				return must(t, res, err)
			},
			extra: func(t *testing.T, r *rig, res *core.Result) {
				if got := passNames(res); got != "coi cnf-simplify" {
					t.Errorf("passes charged: %q, want the goal-relative ones only", got)
				}
				// The probe solved on its own solver: its work is a node of
				// the ledger and part of Stats, its time a field of its own.
				if res.Probe != core.ProbeRefuted || res.ProbeElapsed != res.Cost.Find("probe").Wall {
					t.Errorf("probe %q, %v against its phase %v", res.Probe, res.ProbeElapsed, res.Cost.Find("probe").Wall)
				}
				if db := res.Cost.Find("blast").Total().ClauseDBBytes; db <= 0 {
					t.Errorf("blast node has no clause-db bytes (%d)", db)
				}
				if res.SATVars == 0 || res.SATClauses == 0 || res.EncodeElapsed <= 0 {
					t.Errorf("encoding not accounted: %d vars, %d clauses, %v", res.SATVars, res.SATClauses, res.EncodeElapsed)
				}
				if !r.has(stream.EventPass) {
					t.Error("no pass event")
				}
			}},
		{name: "fresh, probe-answered", phases: "blame compile decode probe",
			run: fresh(with(func(o *core.Options) { o.Blame = true }), false),
			extra: func(t *testing.T, r *rig, res *core.Result) {
				// The pinned simulated state violates the goals: its model
				// is the counterexample, decoded and blamed like a searched
				// one, and nothing was blasted into the check's solver.
				if res.Probe != core.ProbeAnswered || res.Verified || res.Counterexample == nil || len(res.Blame) == 0 {
					t.Errorf("probe %q, verified=%v, blame %v", res.Probe, res.Verified, res.Blame)
				}
				if got := passNames(res); got != "propagate coi" {
					t.Errorf("passes charged: %q, want no cnf-simplify row", got)
				}
				if res.SATVars == 0 || res.Stats.Conflicts+res.Stats.Propagations == 0 {
					t.Errorf("the probe's formula and search are not the result's: %d vars, %+v", res.SATVars, res.Stats)
				}
			}},
		{name: "fresh+compile charged", phases: "blast compile probe simplify solve",
			run: fresh(core.DefaultOptions(), true),
			extra: func(t *testing.T, r *rig, res *core.Result) {
				if got := passNames(res); got != "propagate coi cnf-simplify" {
					t.Errorf("passes charged: %q, want the compile this query ran first", got)
				}
				for _, ps := range res.PassStats {
					if ps.Pass == "cnf-simplify" && ps.Elapsed != res.Cost.Find("simplify").Wall {
						t.Errorf("cnf-simplify row %v, simplify phase %v", ps.Elapsed, res.Cost.Find("simplify").Wall)
					}
				}
			}},
		{name: "session first check", phases: "blast certify solve",
			run: func(t *testing.T, r *rig) *core.Result {
				// Certified, so the session path's proof check is a row too.
				m, p, assumptions := chainQuery(t, with(func(o *core.Options) { o.Certify = true }), true)
				sess := m.NewSession()
				setup := sess.SetupCost()
				if sorted(childNames(setup)) != "blast compile simplify" || setup.Total().ClauseDBBytes <= 0 {
					t.Errorf("set-up ledger %v with %d db bytes", childNames(setup), setup.Total().ClauseDBBytes)
				}
				r.wire(&m.Opts)
				res, err := sess.CheckContext(context.Background(), p, assumptions...)
				return must(t, res, err)
			}},
		{name: "session second check", phases: "blast decode solve",
			run: func(t *testing.T, r *rig) *core.Result {
				m, p, assumptions := chainQuery(t, core.DefaultOptions(), true)
				sess := m.NewSession()
				first, err := sess.CheckContext(context.Background(), p, assumptions...)
				must(t, first, err)
				before := first.Cost.Total()
				r.wire(&m.Opts)
				res, err := sess.CheckContext(context.Background(), m.Ctx.Not(p), assumptions...)
				must(t, res, err)
				// Each check keeps its own books: the second neither shares
				// nor grows the first's, and (below) equals its own Stats,
				// not the session's running total.
				if res.Cost == first.Cost || first.Cost.Total() != before {
					t.Error("the second check wrote into the first check's ledger")
				}
				// N is in the solver once: the negated property is the
				// property's literal negated, so the check adds one variable,
				// its activation literal.
				if res.SATVars != first.SATVars+1 {
					t.Errorf("the second check took the solver from %d to %d variables", first.SATVars, res.SATVars)
				}
				return res
			}},
		{name: "session check after a falsified check", phases: "blast solve",
			run: func(t *testing.T, r *rig) *core.Result {
				// The falsified check leaves a model on the trail: retiring its
				// activation literal propagates, in this check's blast phase,
				// and this check's Stats must count it as its ledger does.
				m, p, assumptions := chainQuery(t, core.DefaultOptions(), false)
				sess := m.NewSession()
				first, err := sess.CheckContext(context.Background(), p, assumptions...)
				if must(t, first, err).Verified {
					t.Fatal("isolation holds: not the row this is")
				}
				reach, reachAssumptions, err := pipeline.Property(m, tiered.Goal{Check: "reachability", Src: "R1", Subnet: sub, HasSubnet: true})
				if err != nil {
					t.Fatal(err)
				}
				r.wire(&m.Opts)
				res, err := sess.CheckContext(context.Background(), reach, reachAssumptions...)
				return must(t, res, err)
			}},
		{name: "certified", phases: "blast certify compile probe simplify solve",
			run: fresh(with(func(o *core.Options) { o.Certify = true }), true),
			extra: func(t *testing.T, r *rig, res *core.Result) {
				if pb := res.Cost.Find("certify").Total().ProofBytes; pb <= 0 {
					t.Errorf("certify node has no proof bytes (%d)", pb)
				}
				if res.Certificate == nil || !res.Certificate.Checked || res.CertifyElapsed <= 0 {
					t.Errorf("certificate %+v against CertifyElapsed %v", res.Certificate, res.CertifyElapsed)
				}
				// The report's proof check time is the certify window.
				rep := pipeline.NewReport("certified", &pipeline.Verdict{Result: res})
				if want := float64(res.CertifyElapsed.Microseconds()) / 1000; rep.Proof == nil || rep.Proof.CheckMs != want {
					t.Errorf("report proof %+v, want check_ms %v", rep.Proof, want)
				}
				if !r.has(stream.EventCertify) {
					t.Error("no certify.done event")
				}
			}},
		{name: "blame UNSAT", phases: "blame blast certify compile probe simplify solve",
			run: fresh(with(func(o *core.Options) { o.Blame = true }), true),
			extra: func(t *testing.T, r *rig, res *core.Result) {
				if len(res.Blame) == 0 || !r.has(stream.EventBlame) || !r.has(stream.EventCertify) {
					t.Errorf("blame %v, events %v", res.Blame, r.events)
				}
			}},
		{name: "whole-space, probe-answered under announcements", phases: "compile decode probe",
			run: func(t *testing.T, r *rig) *core.Result {
				// netgen.Audit(14)'s blackhole question reads every
				// destination and its goals survive their own solver: the
				// probe tries the deep-drop ACL's 192.0.2.0, silent and then
				// announced by every peer, and the second try answers.
				n, err := netgen.Audit(14)
				if err != nil {
					t.Fatal(err)
				}
				net, err := pipeline.Build(n.Routers)
				if err != nil {
					t.Fatal(err)
				}
				edge := append(append([]string(nil), n.Access...), n.Borders...)
				m, err := core.Encode(net.Graph, core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				r.wire(&m.Opts)
				prop := properties.DropsAtEdgeOnly(m, func(r string) bool { return slices.Contains(edge, r) })
				res, err := m.CheckGoal(ctx, nil, prop, m.NoFailures())
				return must(t, res, err)
			},
			extra: func(t *testing.T, r *rig, res *core.Result) {
				if res.Probe != core.ProbeAnswered || res.Verified || res.Counterexample == nil || len(res.Counterexample.Env.Anns) == 0 {
					t.Fatalf("probe %q, verified=%v, counterexample %+v", res.Probe, res.Verified, res.Counterexample)
				}
				// One probe phase for both tries: its span names each, and
				// its node, its phase.end and Stats carry their summed work
				// and the goals' solver's, the only other solver work.
				var tries string
				for _, c := range r.tr.Root().Children() {
					for _, ph := range c.Children() {
						if a, ok := ph.Attr("tries"); ok && ph.Name() == "probe" {
							tries = a.Str
						}
					}
				}
				if want := "192.0.2.0 silent refuted; 192.0.2.0 announcing answered"; tries != want {
					t.Errorf("probe span tries %q, want %q", tries, want)
				}
				work := res.Cost.Find("probe").Total()
				if work.Conflicts != res.Stats.Conflicts || work.Propagations != res.Stats.Propagations || work.Conflicts == 0 {
					t.Errorf("probe node %+v, Stats %+v", work, res.Stats)
				}
				for _, e := range r.events {
					if e.Type == stream.EventPhaseEnd && e.Data["phase"] == "probe" && e.Data["conflicts"] != res.Stats.Conflicts {
						t.Errorf("probe phase.end carries %v conflicts, Stats %d", e.Data["conflicts"], res.Stats.Conflicts)
					}
				}
			}},
		{name: "blame SAT", phases: "blame blast compile decode simplify solve",
			run: func(t *testing.T, r *rig) *core.Result {
				// Isolation embeds its subnet guard: without the redundant
				// destination assumption the question is the same but not
				// scoped, so no probe runs and the search finds the model.
				m, p, assumptions := chainQuery(t, with(func(o *core.Options) { o.Blame = true }), false)
				r.wire(&m.Opts)
				res, err := m.CheckGoal(ctx, nil, p, assumptions[0])
				return must(t, res, err)
			},
			extra: func(t *testing.T, r *rig, res *core.Result) {
				if res.Verified || res.Counterexample == nil || len(res.Blame) == 0 || !r.has(stream.EventBlame) {
					t.Errorf("verified=%v blame %v", res.Verified, res.Blame)
				}
			}},
		{name: "graph-tier hit", phases: "fastpath",
			run: func(t *testing.T, r *rig) *core.Result {
				opts := options("")
				r.wire(&opts.Core)
				v, err := pipeline.Run(ctx, chain(t, 3), tiered.Goal{Check: "isolation", Src: "R1", Subnet: sub, HasSubnet: true}, opts)
				if err != nil {
					t.Fatal(err)
				}
				return v.Result
			},
			extra: func(t *testing.T, r *rig, res *core.Result) {
				if res.Tier != tiered.TierGraph || res.Elapsed != res.FastPathElapsed {
					t.Errorf("tier %q, elapsed %v, fastpath %v", res.Tier, res.Elapsed, res.FastPathElapsed)
				}
			}},
		{name: "graph residue to SAT", phases: "blast compile fastpath property simplify solve",
			run: func(t *testing.T, r *rig) *core.Result {
				// Figure 2 redistributes both ways: the graph tier names
				// residue and the solver answers, on a model wired to the rig.
				configs := map[string]string{}
				for i, text := range testnets.Figure2Texts() {
					configs[fmt.Sprintf("r%d.cfg", i+1)] = text
				}
				net, err := pipeline.Load(configs)
				if err != nil {
					t.Fatal(err)
				}
				opts := options("")
				r.wire(&opts.Core)
				opts.Live = func() (*core.Model, *core.Session, error) {
					m, err := core.Encode(net.Graph, opts.Core)
					return m, nil, err
				}
				v, err := pipeline.Run(ctx, net, tiered.Goal{Check: "blackholes"}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if v.GraphResidue == "" {
					t.Fatal("the graph tier decided: not the row this is")
				}
				return v.Result
			},
			extra: func(t *testing.T, r *rig, res *core.Result) {
				if res.Tier != tiered.TierSAT || res.FastPathElapsed <= 0 {
					t.Errorf("tier %q, fastpath %v", res.Tier, res.FastPathElapsed)
				}
			}},
		{name: "modular composed", phases: "blast compile probe simplify solve", merged: true,
			run: func(t *testing.T, r *rig) *core.Result {
				opts := options("none")
				opts.Modular = true
				opts.Core.OnEvent = r.sink
				v, err := pipeline.Run(ctx, fabric(t, 2), tiered.Goal{Check: "reachability",
					Src: topogen.ToRName(1, 0), Subnet: topogen.ToRSubnet(0, 0), HasSubnet: true}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if v.Mode != pipeline.ModeModular {
					t.Fatalf("mode %q, residue %v", v.Mode, v.Residue)
				}
				if n := len(v.Result.Cost.Children); n != v.Modular.Classes {
					t.Errorf("%d class subtrees, %d classes solved", n, v.Modular.Classes)
				}
				return v.Result
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newRig()
			res := row.run(t, r)
			r.tr.Root().End()
			ledger := res.Cost
			if ledger == nil || ledger.Name != "goal" {
				t.Fatalf("ledger %+v", ledger)
			}
			phases := ledger.Children
			if row.merged {
				phases = nil
				for _, class := range ledger.Children {
					if !strings.HasPrefix(class.Name, "class:") {
						t.Fatalf("composed ledger child %q, want class subtrees only", class.Name)
					}
					phases = append(phases, class.Children...)
				}
			}
			names := map[string]bool{}
			for _, ph := range phases {
				if len(ph.Children) > 0 {
					t.Fatalf("phase %q has children: phases are flat", ph.Name)
				}
				names[ph.Name] = true
			}
			if got := sorted(keys(names)); got != row.phases {
				t.Fatalf("ledger phases %q, want %q", got, row.phases)
			}

			// One account of time: each phase's time is the wall of its
			// nodes, one per class in a composed ledger.
			wall := func(phase string) time.Duration {
				var d time.Duration
				for _, ph := range phases {
					if ph.Name == phase {
						d += ph.Wall
					}
				}
				return d
			}
			for _, c := range []struct {
				field     string
				got, want time.Duration
			}{
				{"EncodeElapsed", res.EncodeElapsed, wall("blast")},
				{"SimplifyElapsed", res.SimplifyElapsed, wall("compile") + wall("simplify")},
				{"ProbeElapsed", res.ProbeElapsed, wall("probe")},
				{"SolveElapsed", res.SolveElapsed, wall("solve")},
				{"CertifyElapsed", res.CertifyElapsed, wall("certify")},
				{"FastPathElapsed", res.FastPathElapsed, wall("fastpath")},
				{"Elapsed", res.Elapsed, res.EncodeElapsed + res.SimplifyElapsed + res.ProbeElapsed + res.SolveElapsed + res.CertifyElapsed + res.FastPathElapsed},
			} {
				if c.got != c.want {
					t.Errorf("%s = %v, the ledger says %v", c.field, c.got, c.want)
				}
			}
			if ledger.TotalWall() <= 0 {
				t.Error("the ledger recorded no wall time")
			}

			// One account of work.
			work := ledger.Total()
			work.ClauseDBBytes, work.ProofBytes = 0, 0
			if stats := cost.FromStats(res.Stats); work != stats {
				t.Errorf("ledger work %+v, solver stats %+v", work, stats)
			}

			// One name per phase, on every account.
			if !row.merged {
				if got := sorted(r.phaseEnds(t)); got != row.phases {
					t.Errorf("phase.end events %q, ledger %q", got, row.phases)
				}
				if got := sorted(r.phaseSpans(t)); got != row.phases {
					t.Errorf("phase spans %q, ledger %q", got, row.phases)
				}
			}
			if row.extra != nil {
				row.extra(t, r, res)
			}
		})
	}
}

func keys(set map[string]bool) []string {
	var names []string
	for name := range set {
		names = append(names, name)
	}
	return names
}

func childNames(n *cost.Node) []string {
	var names []string
	for _, c := range n.Children {
		names = append(names, c.Name)
	}
	return names
}
