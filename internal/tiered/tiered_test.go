package tiered_test

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/obs/cost"
	"repro/internal/testnets"
	"repro/internal/tiered"
)

func TestValidateTiers(t *testing.T) {
	for _, ok := range []string{"", "graph,sat", "graph", "sat", "none", " graph,sat "} {
		if err := tiered.ValidateTiers(ok); err != nil {
			t.Errorf("ValidateTiers(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"grph", "sat,graph", "all", "graph;sat"} {
		if err := tiered.ValidateTiers(bad); err == nil {
			t.Errorf("ValidateTiers(%q) = nil, want error", bad)
		}
	}
}

func TestEnabled(t *testing.T) {
	for _, on := range []string{"", "graph,sat", "graph"} {
		if !tiered.Enabled(on) {
			t.Errorf("Enabled(%q) = false, want true", on)
		}
	}
	for _, off := range []string{"sat", "none"} {
		if tiered.Enabled(off) {
			t.Errorf("Enabled(%q) = true, want false", off)
		}
	}
}

func chainAnalysis(t *testing.T, n int) *tiered.Analysis {
	t.Helper()
	net, err := testnets.Build(testnets.OSPFChainTexts(n)...)
	if err != nil {
		t.Fatal(err)
	}
	return tiered.NewAnalysis(net.Graph)
}

func TestDecideReachabilityOnChain(t *testing.T) {
	a := chainAnalysis(t, 3)
	out := a.Decide(tiered.Goal{
		Check: "reachability", Src: "R1",
		Subnet: network.MustParsePrefix("10.100.3.0/24"), HasSubnet: true,
	})
	if !out.Decided || !out.Verified {
		t.Fatalf("chain reachability: decided=%v verified=%v reason=%s, want decided verified",
			out.Decided, out.Verified, out.Reason)
	}
	if len(out.Blame) == 0 {
		t.Fatal("decided verdict carries no blame")
	}
}

func TestDecideFalsifiesUnroutedDestination(t *testing.T) {
	a := chainAnalysis(t, 3)
	// 203.0.113.0/24 is outside every fixture's address plan: the
	// may-graph proves no router ever delivers it, falsifying
	// reachability with a concrete witness.
	out := a.Decide(tiered.Goal{
		Check: "reachability", Src: "R1",
		Subnet: network.MustParsePrefix("203.0.113.0/24"), HasSubnet: true,
	})
	if !out.Decided || out.Verified {
		t.Fatalf("unrouted reachability: decided=%v verified=%v reason=%s, want decided falsified",
			out.Decided, out.Verified, out.Reason)
	}
	if out.Packet == nil {
		t.Fatal("falsified outcome carries no witness packet")
	}
	if got := out.Packet.DstIP; got.Mask(24) != network.MustParseIP("203.0.113.0") {
		t.Fatalf("witness packet dst %v outside the queried subnet", got)
	}
	// The same proof verifies isolation of the same (src, subnet).
	iso := a.Decide(tiered.Goal{
		Check: "isolation", Src: "R1",
		Subnet: network.MustParsePrefix("203.0.113.0/24"), HasSubnet: true,
	})
	if !iso.Decided || !iso.Verified {
		t.Fatalf("unrouted isolation: decided=%v verified=%v reason=%s, want decided verified",
			iso.Decided, iso.Verified, iso.Reason)
	}
}

func TestDecideResidues(t *testing.T) {
	a := chainAnalysis(t, 3)
	cases := []struct {
		name   string
		goal   tiered.Goal
		reason string
	}{
		{"unknown router", tiered.Goal{Check: "reachability", Src: "R9",
			Subnet: network.MustParsePrefix("10.100.3.0/24"), HasSubnet: true}, "unknown-router"},
		{"missing subnet", tiered.Goal{Check: "reachability", Src: "R1"}, "missing-subnet"},
		{"missing source", tiered.Goal{Check: "reachability",
			Subnet: network.MustParsePrefix("10.100.3.0/24"), HasSubnet: true}, "missing-source"},
		{"failure budget", tiered.Goal{Check: "reachability", Src: "R1", MaxFailures: 1,
			Subnet: network.MustParsePrefix("10.100.3.0/24"), HasSubnet: true}, "failure-budget"},
		{"unsupported check", tiered.Goal{Check: "prefers-neighbors"}, "unsupported-check"},
	}
	for _, tc := range cases {
		out := a.Decide(tc.goal)
		if out.Decided {
			t.Errorf("%s: decided (verified=%v), want residue", tc.name, out.Verified)
			continue
		}
		if out.Reason != tc.reason {
			t.Errorf("%s: residue reason %q, want %q", tc.name, out.Reason, tc.reason)
		}
	}
}

func TestDecideWholeNetworkChecksOnChain(t *testing.T) {
	a := chainAnalysis(t, 3)
	for _, check := range []string{"loops", "blackholes", "multipath-consistency", "mgmt-reachability", "no-leak"} {
		out := a.Decide(tiered.Goal{Check: check})
		if !out.Decided || !out.Verified {
			t.Errorf("%s on clean chain: decided=%v verified=%v reason=%s, want decided verified",
				check, out.Decided, out.Verified, out.Reason)
		}
	}
}

func TestDetPreconditionResidue(t *testing.T) {
	// Figure 2 has mutual OSPF<->BGP redistribution: the deterministic
	// path must refuse it, and whole-space checks become residue.
	net, err := testnets.Build(testnets.Figure2Texts()...)
	if err != nil {
		t.Fatal(err)
	}
	a := tiered.NewAnalysis(net.Graph)
	out := a.Decide(tiered.Goal{Check: "blackholes"})
	if out.Decided {
		t.Fatalf("blackholes on figure2: decided (verified=%v), want residue", out.Verified)
	}
	if out.Reason != "dynamic-redistribution" {
		t.Fatalf("residue reason %q, want dynamic-redistribution", out.Reason)
	}
}

func TestSynthesizeFalsified(t *testing.T) {
	out := tiered.Outcome{Decided: true, Verified: false, Reason: "test"}
	ledger := cost.New("goal")
	ledger.Child("fastpath").AddWall(5 * time.Millisecond)
	res := tiered.Synthesize(out, ledger, false)
	if res.Tier != tiered.TierGraph || res.Verified {
		t.Fatalf("Tier=%q Verified=%v, want graph falsified", res.Tier, res.Verified)
	}
	if res.Elapsed != 5*time.Millisecond || res.FastPathElapsed != 5*time.Millisecond {
		t.Fatalf("Elapsed=%v FastPathElapsed=%v, want 5ms each", res.Elapsed, res.FastPathElapsed)
	}
	if res.Counterexample == nil || res.Counterexample.Env == nil {
		t.Fatal("falsified synthesis must carry a counterexample with a non-nil environment")
	}
	if res.Counterexample.Assignment != nil {
		t.Fatal("graph-tier counterexample has no SAT assignment to decode")
	}
}
