package tiered_test

import (
	"context"
	"testing"

	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/protograph"
	"repro/internal/testnets"
	"repro/internal/tiered"
)

// wholeNetworkChecks are the checks without a source: the SAT path reads
// their subnet only through Property's DstIn assumption.
var wholeNetworkChecks = []string{"blackholes", "multipath-consistency", "loops", "mgmt-reachability"}

// staticHole is two routers: R1 sends 192.168.0.0/16 to R2 by a static
// route, and R2 delivers only its loopback 192.168.1.0/24 out of it. The
// rest of the /16 is blackholed at R2, so blackholes is false for the
// whole space and true for the loopback's subnet.
func staticHole(t *testing.T) *protograph.Graph {
	t.Helper()
	net, err := testnets.Build(
		"hostname R1\n!\ninterface Eth0\n ip address 10.0.12.1 255.255.255.252\n!\n"+
			"ip route 192.168.0.0 255.255.0.0 10.0.12.2\n!\n",
		"hostname R2\n!\ninterface Eth0\n ip address 10.0.12.2 255.255.255.252\n!\n"+
			"interface Loopback0\n ip address 192.168.1.1 255.255.255.0\n!\n")
	if err != nil {
		t.Fatal(err)
	}
	return net.Graph
}

// ifaceSubnets is every interface subnet of the network, in router and
// interface order, plus one prefix nothing routes.
func ifaceSubnets(g *protograph.Graph) []network.Prefix {
	seen := map[network.Prefix]bool{}
	var out []network.Prefix
	for _, n := range g.Topo.Nodes {
		for _, ifc := range g.Configs[n.Name].Interfaces {
			if !seen[ifc.Prefix] {
				seen[ifc.Prefix] = true
				out = append(out, ifc.Prefix)
			}
		}
	}
	return append(out, network.MustParsePrefix("203.0.113.0/24"))
}

// TestScopedWholeNetworkParity: a whole-network check with a subnet asks
// about the destinations in the subnet only — on the SAT path that is
// Property's DstIn assumption — and every verdict the graph tier decides
// for it must be the SAT path's.
func TestScopedWholeNetworkParity(t *testing.T) {
	nets := []struct {
		name string
		g    *protograph.Graph
	}{
		{"acl-square", testnets.ACLSquare().Graph},
		{"static-null", testnets.StaticNull().Graph},
		{"figure2", testnets.Figure2().Graph},
		{"ospf-chain-4", testnets.OSPFChain(4).Graph},
		{"rip-chain-3", testnets.RIPChain(3).Graph},
		{"ebgp-triangle", testnets.EBGPTriangle().Graph},
		{"hijackable", testnets.Hijackable(false).Graph},
		{"hijackable-filtered", testnets.Hijackable(true).Graph},
		{"static-hole", staticHole(t)},
	}
	var sat pipeline.Options
	sat.Core.Tiers = "sat"
	decided := map[bool]int{}
	for _, tc := range nets {
		a := tiered.NewAnalysis(tc.g)
		net := &pipeline.Network{Graph: tc.g}
		for _, sub := range ifaceSubnets(tc.g) {
			for _, check := range wholeNetworkChecks {
				goal := tiered.Goal{Check: check, Subnet: sub, HasSubnet: true}
				out := a.Decide(goal)
				if !out.Decided {
					continue
				}
				decided[out.Verified]++
				v, err := pipeline.Run(context.Background(), net, goal, sat)
				if err != nil {
					t.Fatalf("%s %s %v: sat: %v", tc.name, check, sub, err)
				}
				if out.Verified != v.Result.Verified {
					t.Errorf("%s %s scoped to %v: graph verified=%v (reason %s), sat verified=%v",
						tc.name, check, sub, out.Verified, out.Reason, v.Result.Verified)
				}
			}
		}
	}
	// The population must exercise both verdicts, not only vacuity.
	if decided[true] == 0 || decided[false] == 0 {
		t.Fatalf("graph tier decided %d verified and %d falsified scoped goals; want both", decided[true], decided[false])
	}
	t.Logf("%d verified, %d falsified scoped goals decided", decided[true], decided[false])
}

// TestScopedBlackholesOnStaticHole pins the fixture's two questions: the
// whole space has a blackhole at R2, the loopback's subnet has none.
func TestScopedBlackholesOnStaticHole(t *testing.T) {
	a := tiered.NewAnalysis(staticHole(t))
	for _, tc := range []struct {
		goal     tiered.Goal
		verified bool
	}{
		{tiered.Goal{Check: "blackholes"}, false},
		{tiered.Goal{Check: "blackholes", Subnet: network.MustParsePrefix("192.168.1.0/24"), HasSubnet: true}, true},
		{tiered.Goal{Check: "blackholes", Subnet: network.MustParsePrefix("192.168.2.0/24"), HasSubnet: true}, false},
	} {
		out := a.Decide(tc.goal)
		if !out.Decided || out.Verified != tc.verified {
			t.Errorf("blackholes subnet=%v (scoped %v): decided=%v verified=%v reason=%s, want decided verified=%v",
				tc.goal.Subnet, tc.goal.HasSubnet, out.Decided, out.Verified, out.Reason, tc.verified)
		}
		if !out.Verified && out.Packet != nil && tc.goal.HasSubnet && !tc.goal.Subnet.Contains(out.Packet.DstIP) {
			t.Errorf("witness %v outside the queried subnet %v", out.Packet.DstIP, tc.goal.Subnet)
		}
	}
}

// TestScopedMgmtReachability: only the management addresses inside the
// subnet are asked about.
func TestScopedMgmtReachability(t *testing.T) {
	a := tiered.NewAnalysis(testnets.Hijackable(true).Graph)
	for _, tc := range []struct {
		subnet string
		reason string
	}{
		{"192.168.50.0/24", "stable-state"},
		{"10.0.12.0/30", "no-management-interfaces"},
	} {
		goal := tiered.Goal{Check: "mgmt-reachability", Subnet: network.MustParsePrefix(tc.subnet), HasSubnet: true}
		out := a.Decide(goal)
		if !out.Decided || !out.Verified || out.Reason != tc.reason {
			t.Errorf("%s: decided=%v verified=%v reason=%q, want verified by %q",
				tc.subnet, out.Decided, out.Verified, out.Reason, tc.reason)
		}
	}
}
