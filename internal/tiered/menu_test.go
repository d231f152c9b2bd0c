package tiered_test

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/testnets"
	"repro/internal/tiered"
)

// TestSimulatedHijackOnFigure2: Figure 2 is outside the deterministic
// fragment (mutual OSPF↔BGP redistribution), and its unfiltered external
// peers can pull any internal destination away. The rule falsifies
// reachability from R2 to R3's subnet with one peer announcing the
// destination's /32, and the counterexample and blame name that peer.
func TestSimulatedHijackOnFigure2(t *testing.T) {
	net, err := testnets.Build(testnets.Figure2Texts()...)
	if err != nil {
		t.Fatal(err)
	}
	a := tiered.NewAnalysis(net.Graph)
	out := a.Decide(tiered.Goal{Check: "reachability", Src: "R2", Subnet: network.MustParsePrefix("10.3.3.0/24"), HasSubnet: true})
	if !out.Decided || out.Verified || out.Reason != tiered.ReasonSimulated {
		t.Fatalf("decided=%v verified=%v reason=%s, want falsified by %s", out.Decided, out.Verified, out.Reason, tiered.ReasonSimulated)
	}
	if out.Packet == nil || out.Env == nil || len(out.Env.Anns) != 1 || out.Env.NumFailed() != 0 {
		t.Fatalf("want a packet and an environment with one announcement and no failures: %+v", out)
	}
	for peer, ann := range out.Env.Anns {
		var ext *network.External
		for _, e := range net.Topo.Externals {
			if e.Name == peer {
				ext = e
			}
		}
		if ext == nil {
			t.Fatalf("announcing peer %q is not an external peer", peer)
		}
		if want := (network.Prefix{Addr: out.Packet.DstIP, Len: 32}); ann.Prefix != want || ann.PathLen != 0 || ann.MED != 0 || len(ann.Communities) != 0 {
			t.Fatalf("%s announces %+v, want a bare %v", peer, ann, want)
		}
		want := provenance.Origin{Router: ext.Router.Name, Proto: "bgp", Kind: "neighbor", Name: "ext." + peer}
		found := false
		for _, o := range out.Blame {
			found = found || o == want
		}
		if !found {
			t.Fatalf("blame %v does not name the announcing peer %v", out.Blame, want)
		}
	}
}

// auditNet returns the first netgen.Audit network from size on whose
// management loopbacks an external peer cannot hijack, and its pipeline
// network.
func auditNet(t *testing.T, size int, edit func(*netgen.Network)) (*netgen.Network, *pipeline.Network) {
	t.Helper()
	for ; size < 30; size++ {
		n, err := netgen.Audit(size)
		if err != nil {
			t.Fatal(err)
		}
		if n.Bugs.HijackableMgmt || len(n.Access) == 0 {
			continue
		}
		if edit != nil {
			edit(n)
		}
		net, err := pipeline.Build(n.Routers)
		if err != nil {
			t.Fatal(err)
		}
		return n, net
	}
	t.Fatal("no unhijackable audit network")
	return nil, nil
}

// reflecting marks each border's iBGP neighbor a route-reflector client.
// On a network with two borders there is no third speaker to reflect to,
// so the routes are the same, but the network leaves the deterministic
// fragment.
func reflecting(n *netgen.Network) {
	for _, r := range n.Routers {
		if r.BGP == nil {
			continue
		}
		for _, nb := range r.BGP.Neighbors {
			if nb.IsInternal(r.BGP.ASN) {
				nb.RouteReflectorClient = true
			}
		}
	}
}

// mutual adds OSPF → BGP redistribution at every border, which already
// redistributes BGP into OSPF: a cycle of protocols, outside the
// deterministic fragment.
func mutual(n *netgen.Network) {
	for _, r := range n.Routers {
		if r.BGP != nil {
			r.BGP.Redistribute = append(r.BGP.Redistribute, config.Redistribution{From: config.OSPF})
		}
	}
}

// TestSimulatedNullRoute: a null route for the first access subnet at a
// border of a generated network whose borders redistribute OSPF into BGP
// and BGP back into OSPF (outside the fragment) is a violation of
// reachability from that border in the empty environment, which the
// rule's first menu entry shows.
func TestSimulatedNullRoute(t *testing.T) {
	subnet := network.MustParsePrefix("10.10.0.0/24")
	var border string
	n, net := auditNet(t, 8, func(n *netgen.Network) {
		mutual(n)
		border = n.Borders[0]
		for _, r := range n.Routers {
			if r.Name == border {
				r.Statics = append(r.Statics, &config.StaticRoute{Prefix: subnet, Drop: true})
			}
		}
	})
	if got := net.Analysis().DetReason(); got != "dynamic-redistribution" {
		t.Fatalf("%s: precondition %q, want dynamic-redistribution", n.Name, got)
	}
	out := net.Analysis().Decide(tiered.Goal{Check: "reachability", Src: border, Subnet: subnet, HasSubnet: true})
	if !out.Decided || out.Verified || out.Reason != tiered.ReasonSimulated {
		t.Fatalf("%s: decided=%v verified=%v reason=%s, want falsified by %s", n.Name, out.Decided, out.Verified, out.Reason, tiered.ReasonSimulated)
	}
	if len(out.Env.Anns) != 0 || out.Env.NumFailed() != 0 {
		t.Fatalf("%s: want the empty environment, got %v", n.Name, out.Env)
	}
}

// TestVerifiedOutsideFragmentStaysResidue: a goal the solver verifies on a
// network outside the fragment — a generated network with two borders
// whose iBGP reflects — gets nothing from the rule — no menu plane
// violates it — and keeps the residue reason rule 3 gives it.
func TestVerifiedOutsideFragmentStaysResidue(t *testing.T) {
	n, net := auditNet(t, 7, reflecting)
	goals := []tiered.Goal{
		{Check: "reachability", Src: n.Borders[0], Subnet: network.MustParsePrefix("10.10.0.0/24"), HasSubnet: true},
		{Check: "mgmt-reachability"},
	}
	var opts pipeline.Options
	opts.Core.Tiers = "none"
	for _, goal := range goals {
		v, err := pipeline.Run(context.Background(), net, goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Result.Verified {
			t.Fatalf("%s: %s: the solver falsifies it; the test wants a verified goal", n.Name, goal.Check)
		}
		out := net.Analysis().Decide(goal)
		if out.Decided || out.Reason != "ibgp-session" {
			t.Errorf("%s: %s: decided=%v reason=%s, want ibgp-session residue", n.Name, goal.Check, out.Decided, out.Reason)
		}
	}
	if net.Analysis().MenuTries() == 0 {
		t.Error("the rule made no menu attempt on goals outside the fragment")
	}
}

// TestRuleNeverVerifies: over the memo population, every outcome the rule
// gives is a falsification with its counterexample, and every verified
// outcome comes from rules 1–3.
func TestRuleNeverVerifies(t *testing.T) {
	simulated := 0
	for _, c := range memoPopulation(t) {
		a := tiered.NewAnalysis(c.g)
		for _, goal := range c.goals {
			out := a.Decide(goal)
			if out.Reason == tiered.ReasonSimulated {
				simulated++
				if !out.Decided || out.Verified || out.Packet == nil || out.Env == nil {
					t.Fatalf("%s: %+v: the rule answered %+v, want a falsification with a counterexample", c.name, goal, out)
				}
			}
			if out.Verified {
				switch out.Reason {
				case "stable-state", "may-unreachable", "cannot-avoid-waypoint",
					"no-loop-candidates", "no-management-interfaces", "no-external-peers":
				default:
					t.Fatalf("%s: %+v: verified by %q", c.name, goal, out.Reason)
				}
			}
		}
	}
	if simulated == 0 {
		t.Fatal("the rule decided nothing on the memo population")
	}
}

// TestFabricGoalsMakeNoMenuAttempts: the seven fabric-scale goals at pods
// 24 are decided inside the fragment, so the rule never runs there.
func TestFabricGoalsMakeNoMenuAttempts(t *testing.T) {
	f, err := harness.BuildFabric(24)
	if err != nil {
		t.Fatal(err)
	}
	a := tiered.NewAnalysis(f.Net.Graph)
	for _, prop := range harness.AllFig8Props() {
		if goal, ok := harness.Fig8ModularGoal(f, prop); ok {
			if out := a.Decide(goal); !out.Decided || out.Reason != "stable-state" {
				t.Errorf("%s: decided=%v reason=%s, want stable-state", prop, out.Decided, out.Reason)
			}
		}
	}
	if n := a.MenuTries(); n != 0 {
		t.Fatalf("%d menu attempts on the fabric goals, want 0", n)
	}
}
