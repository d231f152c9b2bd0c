package tiered_test

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/fuzz"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/protograph"
	"repro/internal/testnets"
	"repro/internal/tiered"
)

// TestLayeredFragment pins the deterministic path's precondition on the
// edges of its fragment (DESIGN.md §14, "The layered fragment"): acyclic
// redistribution and iBGP without reflection are in; a redistribution
// cycle, a route map on dynamic redistribution, route reflection, MED
// compared across ASes next to iBGP, and a rewriting iBGP stanza are out.
func TestLayeredFragment(t *testing.T) {
	corpus, err := fuzz.LoadCorpus("../fuzz/testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	fromCorpus := func(name string) *protograph.Graph {
		for _, cs := range corpus {
			if cs.Name == name {
				return cs.Net.Graph
			}
		}
		t.Fatalf("no corpus scenario %q", name)
		return nil
	}
	// audit is the generated network of the size, two borders with iBGP
	// between them at 7 and one border at 9, changed by edit.
	audit := func(size int, edit func(*netgen.Network)) *protograph.Graph {
		n, err := netgen.Audit(size)
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			edit(n)
		}
		net, err := pipeline.Build(n.Routers)
		if err != nil {
			t.Fatal(err)
		}
		return net.Graph
	}
	borders := func(edit func(*config.Router)) func(*netgen.Network) {
		return func(n *netgen.Network) {
			for _, r := range n.Routers {
				if r.BGP != nil {
					edit(r)
				}
			}
		}
	}
	mappedRedistribution := borders(func(r *config.Router) {
		r.RouteMaps["SEED"] = &config.RouteMap{Name: "SEED", Clauses: []*config.RouteMapClause{{Seq: 10, Action: config.Permit}}}
		for i := range r.OSPF.Redistribute {
			r.OSPF.Redistribute[i].RouteMap = "SEED"
		}
	})
	compareMED := borders(func(r *config.Router) { r.BGP.AlwaysCompareMED = true })
	ibgpLocalPref := borders(func(r *config.Router) {
		r.RouteMaps["LP"] = &config.RouteMap{Name: "LP", Clauses: []*config.RouteMapClause{{Seq: 10, Action: config.Permit, SetLocalPref: 200}}}
		for _, nb := range r.BGP.Neighbors {
			if nb.IsInternal(r.BGP.ASN) {
				nb.InMap = "LP"
			}
		}
	})
	figure2, err := testnets.Build(testnets.Figure2Texts()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, reason string
		g            *protograph.Graph
	}{
		{"iBGP between two borders, BGP into OSPF", "", audit(7, nil)},
		{"one border, BGP into OSPF", "", audit(9, nil)},
		{"multihop iBGP over OSPF", "", testnets.MultihopIBGP().Graph},
		{"corpus route reflector", "ibgp-session", fromCorpus("route-reflector")},
		{"reflecting borders", "ibgp-session", audit(7, reflecting)},
		{"corpus OSPF into BGP and BGP into OSPF", "dynamic-redistribution", fromCorpus("redistribution")},
		{"Figure 2's mutual redistribution", "dynamic-redistribution", figure2.Graph},
		{"OSPF into BGP at the borders", "dynamic-redistribution", audit(7, mutual)},
		{"route map on redistribute bgp", "dynamic-redistribution", audit(9, mappedRedistribution)},
		{"always-compare-med next to iBGP", "ibgp-session", audit(7, compareMED)},
		{"always-compare-med without iBGP", "", audit(9, compareMED)},
		{"local-pref on the iBGP import", "internal-session-policy", audit(7, ibgpLocalPref)},
	} {
		a := tiered.NewAnalysis(tc.g)
		if got := a.DetReason(); got != tc.reason {
			t.Errorf("%s: precondition %q, want %q", tc.name, got, tc.reason)
			continue
		}
		if tc.reason == "" {
			continue
		}
		// Outside the fragment no goal is decided by the deterministic
		// path: blackholes over the whole space stays residue or is
		// falsified by a menu plane.
		out := a.Decide(tiered.Goal{Check: "blackholes"})
		if out.Rule() == "stable-state" {
			t.Errorf("%s: blackholes decided by the deterministic path outside the fragment", tc.name)
		}
	}
}

// TestPeeringAddressHijackStaysResidue: the generated network with two
// borders and iBGP between their loopbacks, with the import filter
// narrowed to protect the data subnets but not the loopbacks. An
// announcement of a peering address could then take the session down, so
// a goal about a data subnet — whose own plane no announcement can touch —
// is residue external-influence. Unnarrowed, the same goal is decided.
func TestPeeringAddressHijackStaysResidue(t *testing.T) {
	subnet := network.MustParsePrefix("10.10.0.0/24")
	loopbacks := network.MustParsePrefix("192.168.0.0/16")
	for _, narrow := range []bool{false, true} {
		n, err := netgen.Audit(7)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Borders) != 2 || n.Bugs.HijackableMgmt {
			t.Fatalf("%s: want two borders filtering their imports", n.Name)
		}
		if narrow {
			for _, r := range n.Routers {
				if pl := r.PrefixLists["PROTECT"]; pl != nil {
					var kept []config.PrefixListEntry
					for _, e := range pl.Entries {
						if e.Prefix != loopbacks {
							kept = append(kept, e)
						}
					}
					pl.Entries = kept
				}
			}
		}
		net, err := pipeline.Build(n.Routers)
		if err != nil {
			t.Fatal(err)
		}
		out := net.Analysis().Decide(tiered.Goal{Check: "reachability", Src: n.Access[len(n.Access)-1], Subnet: subnet, HasSubnet: true})
		switch {
		case narrow && (out.Decided || out.Reason != "external-influence"):
			t.Errorf("loopbacks unprotected: decided=%v reason=%s, want external-influence residue", out.Decided, out.Reason)
		case !narrow && (!out.Decided || !out.Verified || out.Reason != "stable-state"):
			t.Errorf("loopbacks protected: decided=%v verified=%v reason=%s, want verified by stable-state", out.Decided, out.Verified, out.Reason)
		}
	}
}

// TestRedistributedAnnouncementReachesIGPRouters: once BGP is
// redistributed into an IGP, an external announcement reaches routers
// that speak no BGP, so the prefix-length bound must hold at every router.
// The border B imports announcements up to /24 only and redistributes BGP
// into OSPF; its external link 198.51.100.0/30 is connected at B and in
// no IGP, so the OSPF-only router R has no route to it and is isolated
// from it in the empty environment. N announcing 198.51.100.0/24 gives R
// an OSPF route to B, which delivers: isolation is false, and the graph
// tier must not verify it.
func TestRedistributedAnnouncementReachesIGPRouters(t *testing.T) {
	net, err := pipeline.Load(map[string]string{
		"b.cfg": `hostname B
!
interface Eth0
 ip address 10.0.12.1 255.255.255.252
!
interface Ext0
 ip address 198.51.100.1 255.255.255.252
!
router ospf 1
 network 10.0.12.0 0.0.0.3 area 0
 redistribute bgp metric 20
!
router bgp 65001
 neighbor 198.51.100.2 remote-as 65100
 neighbor 198.51.100.2 description N
 neighbor 198.51.100.2 route-map SHORT in
!
ip prefix-list SHORT seq 5 permit 0.0.0.0/0 le 24
!
route-map SHORT permit 10
 match ip address prefix-list SHORT
!
`,
		"r.cfg": `hostname R
!
interface Eth0
 ip address 10.0.12.2 255.255.255.252
!
interface Loopback0
 ip address 10.100.2.1 255.255.255.0
!
router ospf 1
 network 10.0.12.0 0.0.0.3 area 0
 network 10.100.2.0 0.0.0.255 area 0
!
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	goal := tiered.Goal{Check: "isolation", Src: "R", Subnet: network.MustParsePrefix("198.51.100.0/30"), HasSubnet: true}
	if got := net.Analysis().DetReason(); got != "" {
		t.Fatalf("precondition %q, want the network inside the fragment", got)
	}
	out := net.Analysis().Decide(goal)
	if out.Decided || out.Reason != "external-influence" {
		t.Errorf("decided=%v verified=%v reason=%s, want external-influence residue", out.Decided, out.Verified, out.Reason)
	}
	var opts pipeline.Options
	opts.Core.Tiers = "sat"
	v, err := pipeline.Run(context.Background(), net, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Result.Verified {
		t.Fatal("the solver verifies isolation; the fixture wants an announcement that breaks it")
	}
}
