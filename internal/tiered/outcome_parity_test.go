package tiered_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/protograph"
	"repro/internal/provenance"
	"repro/internal/testnets"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

// aclChain is a five-router OSPF chain R1—…—R5 toward R5's stub subnet
// with two definite blocks on the way: R2's out-ACL toward R3 and R4's
// in-ACL from R3. So R1 and R2 are cut off by the first, R3 by the
// second, and R4 and R5 may reach: a goal over all five has some sources
// blocked (by different ACLs) and some not.
func aclChain(t *testing.T) *protograph.Graph {
	t.Helper()
	texts := testnets.OSPFChainTexts(5)
	block := func(i int, iface, dir, name string) {
		addr := fmt.Sprintf("interface %s\n ip address ", iface)
		at := strings.Index(texts[i], addr)
		eol := at + strings.IndexByte(texts[i][at+len(addr):], '\n') + len(addr)
		texts[i] = texts[i][:eol] + fmt.Sprintf("\n ip access-group %s %s", name, dir) + texts[i][eol:] +
			fmt.Sprintf("access-list %s deny ip any 10.100.5.0 0.0.0.255\naccess-list %s permit ip any any\n!\n", name, name)
	}
	block(1, "Eth1", "out", "NO-STUB5-OUT")
	block(3, "Eth0", "in", "NO-STUB5-IN")
	net, err := testnets.Build(texts...)
	if err != nil {
		t.Fatal(err)
	}
	return net.Graph
}

// staticScope is two routers with no routing protocol: R1 reaches R2's
// first stub by a static route and has no route to the second, so the
// may-edge R1→R2 exists but is scoped to the first stub only.
func staticScope(t *testing.T) *protograph.Graph {
	t.Helper()
	net, err := testnets.Build(
		"hostname R1\n!\ninterface Eth0\n ip address 10.0.12.1 255.255.255.252\n!\n"+
			"ip route 10.100.2.0 255.255.255.0 10.0.12.2\n!\n",
		"hostname R2\n!\ninterface Loopback1\n ip address 10.100.3.1 255.255.255.0\n!\n"+
			"interface Loopback0\n ip address 10.100.2.1 255.255.255.0\n!\n"+
			"interface Eth0\n ip address 10.0.12.2 255.255.255.252\n!\n")
	if err != nil {
		t.Fatal(err)
	}
	return net.Graph
}

// mayGoals spans the goal classes mayDecide answers, over every source
// (and for waypoints every via) the network has unless it is large.
func mayGoals(g *protograph.Graph, subnets []network.Prefix) []tiered.Goal {
	var names []string
	for _, n := range g.Topo.Nodes {
		names = append(names, n.Name)
	}
	some := names
	if len(some) > 6 {
		some = []string{names[0], names[len(names)/2], names[len(names)-1]}
	}
	var goals []tiered.Goal
	for _, sub := range subnets {
		with := func(g tiered.Goal) { g.Subnet, g.HasSubnet = sub, true; goals = append(goals, g) }
		with(tiered.Goal{Check: "reachability-all", Srcs: names})
		with(tiered.Goal{Check: "bounded-length-all", Srcs: names, Hops: 2})
		with(tiered.Goal{Check: "equal-lengths", Srcs: names})
		with(tiered.Goal{Check: "equal-lengths", Srcs: some})
		for _, src := range some {
			with(tiered.Goal{Check: "reachability", Src: src})
			with(tiered.Goal{Check: "isolation", Src: src})
			with(tiered.Goal{Check: "bounded-length", Src: src, Hops: 1})
			for _, via := range some {
				with(tiered.Goal{Check: "waypoint", Src: src, Via: via})
			}
		}
	}
	return goals
}

// ownSubnets picks destination regions that exercise every branch of the
// search: interface subnets (delivered somewhere), a host inside one, a
// region covering several, and one nothing routes.
func ownSubnets(g *protograph.Graph) []network.Prefix {
	seen := map[network.Prefix]bool{}
	var out []network.Prefix
	add := func(p network.Prefix) {
		if !seen[p] && len(out) < 7 {
			seen[p] = true
			out = append(out, p)
		}
	}
	add(network.MustParsePrefix("203.0.113.0/24"))
	add(network.MustParsePrefix("10.0.0.0/8"))
	for i := len(g.Topo.Nodes) - 1; i >= 0; i-- {
		for _, ifc := range g.Configs[g.Topo.Nodes[i].Name].Interfaces {
			add(ifc.Prefix)
			add(network.Prefix{Addr: ifc.Addr, Len: 32})
		}
	}
	return out
}

func compareMayDecide(t *testing.T, label string, a *tiered.Analysis, goal tiered.Goal) (decided bool) {
	t.Helper()
	got, want := a.MayDecide(goal), a.RefMayDecide(goal)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s %s src=%s srcs=%v via=%s subnet=%v:\n got %+v\nwant %+v",
			label, goal.Check, goal.Src, goal.Srcs, goal.Via, goal.Subnet, got, want)
	}
	return got.Decided
}

// TestMayDecideMatchesPerSourceReference holds the reverse-sweep
// mayDecide to the per-source forward search it replaced, Outcome for
// Outcome, on the soundness corpus (its recorded checks and a goal
// sweep), every fuzz family, operational networks and a fabric.
func TestMayDecideMatchesPerSourceReference(t *testing.T) {
	corpus, err := fuzz.LoadCorpus("../fuzz/testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*protograph.Graph{"acl-chain": aclChain(t), "static-scope": staticScope(t)}
	compared, decided := 0, 0
	count := func(d bool) {
		compared++
		if d {
			decided++
		}
	}
	for _, cs := range corpus {
		graphs["corpus-"+cs.Name] = cs.Net.Graph
		a := tiered.NewAnalysis(cs.Net.Graph)
		for _, ck := range cs.Checks {
			goal, err := ck.Goal()
			if err != nil {
				t.Fatal(err)
			}
			if goal.HasSubnet && len(goal.Sources()) > 0 {
				count(compareMayDecide(t, "corpus-"+cs.Name, a, goal))
			}
		}
	}
	for fam := 0; fam < fuzz.Families(); fam++ {
		s, _, err := fuzz.FromSeed([]byte{byte(fam), 14})
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("fuzz-%d-%s", fam, s.Name)] = s.Net.Graph
	}
	for _, size := range []int{3, 9, 17, 25} {
		p := netgen.DefaultParams()
		p.MinRouters, p.MaxRouters = size, size
		p.PACLException, p.PDeepDrop = 1, 1 // every ACL the generator knows
		n, err := netgen.Generate(fmt.Sprintf("netgen-size-%d", size), int64(300+size), p)
		if err != nil {
			t.Fatal(err)
		}
		net, err := pipeline.Build(n.Routers)
		if err != nil {
			t.Fatal(err)
		}
		graphs[n.Name] = net.Graph
	}
	ft, err := topogen.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := pipeline.Build(ft.Routers)
	if err != nil {
		t.Fatal(err)
	}
	graphs["pods-4"] = fab.Graph

	for name, g := range graphs {
		a := tiered.NewAnalysis(g)
		for _, goal := range mayGoals(g, ownSubnets(g)) {
			count(compareMayDecide(t, name, a, goal))
		}
	}
	if decided < compared/10 || decided == compared {
		t.Fatalf("%d of %d compared goals were decided by the may-graph; want a real mix of verdicts and residue", decided, compared)
	}
	t.Logf("%d goals compared on %d networks, %d decided by the may-graph", compared, len(graphs), decided)
}

// TestMayDecideSomeSourcesBlocked pins the outcomes the reverse sweep
// must reproduce on a goal whose sources split three ways: blocked by one
// ACL, blocked by another, not blocked.
func TestMayDecideSomeSourcesBlocked(t *testing.T) {
	a := tiered.NewAnalysis(aclChain(t))
	stub5 := network.MustParsePrefix("10.100.5.0/24")
	all := []string{"R5", "R3", "R1", "R4", "R2"}
	prop := provenance.Origin{Kind: "property"}
	out2 := provenance.Origin{Router: "R2", Kind: "acl", Name: "NO-STUB5-OUT"}
	in4 := provenance.Origin{Router: "R4", Kind: "acl", Name: "NO-STUB5-IN"}

	cases := []struct {
		goal     tiered.Goal
		decided  bool
		verified bool
		reason   string
		blame    []provenance.Origin
	}{
		// The first unreachable source in goal order names the verdict; the
		// blame is every unreachable source's blockers, sorted.
		{tiered.Goal{Check: "reachability-all", Srcs: all}, true, false, "may-unreachable:R3", []provenance.Origin{prop, out2, in4}},
		{tiered.Goal{Check: "reachability", Src: "R1"}, true, false, "may-unreachable:R1", []provenance.Origin{prop, out2}},
		{tiered.Goal{Check: "reachability", Src: "R4"}, false, false, "may-graph-inconclusive", nil},
		{tiered.Goal{Check: "isolation", Src: "R3"}, true, true, "may-unreachable", []provenance.Origin{prop, in4}},
		{tiered.Goal{Check: "bounded-length-all", Srcs: all, Hops: 9}, false, false, "may-graph-inconclusive", nil},
		{tiered.Goal{Check: "bounded-length-all", Srcs: []string{"R1", "R3"}, Hops: 9}, true, true, "may-unreachable", []provenance.Origin{prop, out2, in4}},
		{tiered.Goal{Check: "equal-lengths", Srcs: []string{"R1", "R2", "R5"}}, true, true, "may-unreachable", []provenance.Origin{prop, out2}},
		// Only R5 delivers, so avoiding R5 nothing is reachable; the search
		// from R4 walks down to R1 and meets no ACL (R4's filters what it
		// receives, R2's what it sends toward R3), so no ACL is blamed.
		{tiered.Goal{Check: "waypoint", Src: "R4", Via: "R5"}, true, true, "cannot-avoid-waypoint", []provenance.Origin{prop}},
		{tiered.Goal{Check: "waypoint", Src: "R4", Via: "R1"}, false, false, "may-graph-inconclusive", nil},
	}
	for _, tc := range cases {
		tc.goal.Subnet, tc.goal.HasSubnet = stub5, true
		got := a.MayDecide(tc.goal)
		if got.Decided != tc.decided || got.Verified != tc.verified || got.Reason != tc.reason || !reflect.DeepEqual(got.Blame, tc.blame) {
			t.Errorf("%s src=%s srcs=%v via=%s: decided=%v verified=%v reason=%q blame=%v, want %v %v %q %v",
				tc.goal.Check, tc.goal.Src, tc.goal.Srcs, tc.goal.Via,
				got.Decided, got.Verified, got.Reason, got.Blame, tc.decided, tc.verified, tc.reason, tc.blame)
		}
		if ref := a.RefMayDecide(tc.goal); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: differs from the per-source reference:\n got %+v\nwant %+v", tc.goal.Check, got, ref)
		}
	}
}

// TestMayDecideStaticScope: a scoped static edge carries its own prefix
// and nothing else, in the sweep as in the forward search.
func TestMayDecideStaticScope(t *testing.T) {
	a := tiered.NewAnalysis(staticScope(t))
	for _, tc := range []struct {
		subnet string
		reason string
	}{
		{"10.100.2.0/24", "may-graph-inconclusive"},
		{"10.100.3.0/24", "may-unreachable:R1"},
	} {
		goal := tiered.Goal{Check: "reachability", Src: "R1", Subnet: network.MustParsePrefix(tc.subnet), HasSubnet: true}
		got := a.MayDecide(goal)
		if got.Reason != tc.reason {
			t.Errorf("R1 to %s: reason %q, want %q", tc.subnet, got.Reason, tc.reason)
		}
		if ref := a.RefMayDecide(goal); !reflect.DeepEqual(got, ref) {
			t.Errorf("R1 to %s: differs from the per-source reference:\n got %+v\nwant %+v", tc.subnet, got, ref)
		}
	}
}
