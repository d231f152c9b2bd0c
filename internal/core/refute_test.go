package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/obs/cost"
	"repro/internal/pipeline"
	"repro/internal/properties"
	"repro/internal/provenance"
)

// auditBlackholes asks netgen.Audit(size) the §8.1 blackhole question on
// the fresh door: traffic is dropped only at the edge (access routers and
// borders), given no failures. With withhold set the model runs without
// the witness probe.
func auditBlackholes(t *testing.T, size int, opts core.Options, withhold bool) (*core.Model, *core.Result) {
	t.Helper()
	n, err := netgen.Audit(size)
	if err != nil {
		t.Fatal(err)
	}
	net, err := pipeline.Build(n.Routers)
	if err != nil {
		t.Fatal(err)
	}
	edge := map[string]bool{}
	for _, r := range append(append([]string(nil), n.Access...), n.Borders...) {
		edge[r] = true
	}
	m, err := core.Encode(net.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	if withhold {
		core.WithholdProbe(m)
	}
	prop := properties.DropsAtEdgeOnly(m, func(r string) bool { return edge[r] })
	res, err := m.CheckGoal(context.Background(), nil, prop, m.NoFailures())
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// TestGoalsRefutedAlone: on netgen.Audit(5) the blackhole question's
// goals contradict themselves (an interior router without an ACL forwards
// what its control plane chose unless a link failed, and no link fails),
// so the check is verified on the goals' own solver, tens of variables
// where the whole network blasts to over fourteen thousand. The verdict
// is certified by that solver's proof, blamed on the property alone, and
// accounted once: one blast phase, the ledger's work equal to Stats.
func TestGoalsRefutedAlone(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Certify, opts.Blame = true, true
	_, res := auditBlackholes(t, 5, opts, false)
	if !res.Verified {
		t.Fatal("net5: the blackhole question is falsified")
	}
	if res.SATVars >= 100 {
		t.Errorf("net5: %d SAT variables: the network was blasted", res.SATVars)
	}
	if c := res.Certificate; c == nil || !c.Checked || c.Fallbacks != 0 {
		t.Errorf("net5: certificate %+v, want checked with no fallbacks", c)
	}
	if len(res.Blame) != 1 || res.Blame[0] != (provenance.Origin{Kind: "property"}) {
		t.Errorf("net5: blame %v, want the property origin alone", res.Blame)
	}
	var blasts int
	for _, ph := range res.Cost.Children {
		if ph.Name == "blast" {
			blasts++
		}
	}
	if blasts != 1 {
		t.Errorf("net5: %d blast phases in the ledger", blasts)
	}
	got := res.Cost.Total()
	got.ClauseDBBytes, got.ProofBytes = 0, 0
	if want := cost.FromStats(res.Stats); got != want || want.Conflicts != 0 || want.Decisions != 0 {
		t.Errorf("net5: ledger %+v, Stats %+v (want equal, and no search)", got, want)
	}
}

// TestGoalsNotRefutedKeepTheirSearch pins checks whose goals alone are
// satisfiable to the formula and search they had before the goals got a
// solver of their own: the §8.1 blackhole question on netgen.Audit(14)
// (falsified), and every other ToR reaching ToR 0-0's subnet on the
// pods-2 fabric (verified). The witness probe answers net14 — a border's
// peer announcing the deep-drop ACL's destination pulls traffic onto the
// core's deny — so its search is pinned with the probe withheld, and the
// probe's answer is held to a smaller formula with that packet and an
// announcement.
func TestGoalsNotRefutedKeepTheirSearch(t *testing.T) {
	type counts struct {
		vars, clauses        int
		conflicts, decisions int64
	}
	read := func(res *core.Result) counts {
		return counts{res.SATVars, res.SATClauses, res.Stats.Conflicts, res.Stats.Decisions}
	}
	_, net14 := auditBlackholes(t, 14, core.DefaultOptions(), true)
	if got, want := read(net14), (counts{39267, 134148, 1669, 8289}); net14.Verified || got != want {
		t.Errorf("net14: verified=%v %+v, want falsified %+v", net14.Verified, got, want)
	}
	_, probed := auditBlackholes(t, 14, core.DefaultOptions(), false)
	if cex := probed.Counterexample; probed.Verified || probed.Probe != core.ProbeAnswered || probed.SATVars >= 39267 ||
		cex == nil || !network.MustParsePrefix("192.0.2.0/24").Contains(cex.Packet.DstIP) || len(cex.Env.Anns) == 0 {
		t.Errorf("net14 with the probe: verified=%v probe %q, %d SAT variables, counterexample %+v", probed.Verified, probed.Probe, probed.SATVars, cex)
	}
	ft, net := fabric(t, 2, nil)
	m, err := core.Encode(net.Graph, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ask(t, context.Background(), m, monoGoals(ft)[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := read(res), (counts{2898, 8864, 70, 193}); !res.Verified || got != want {
		t.Errorf("pods-2 all-tor-reachability: verified=%v %+v, want %+v", res.Verified, got, want)
	}
}
