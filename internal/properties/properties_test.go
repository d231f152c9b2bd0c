package properties

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/simulator"
	"repro/internal/smt"
	"repro/internal/testnets"
	"repro/internal/tiered"
)

func encode(t *testing.T, net *testnets.Net) *core.Model {
	t.Helper()
	m, err := core.Encode(net.Graph, core.DefaultOptions())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return m
}

func check(t *testing.T, m *core.Model, p *smt.Term, assumptions ...*smt.Term) *core.Result {
	t.Helper()
	res, err := m.CheckGoal(context.Background(), nil, p, assumptions...)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return res
}

func pfx(s string) network.Prefix { return network.MustParsePrefix(s) }
func ip(s string) network.IP      { return network.MustParseIP(s) }

func TestManagementHijackFoundAndReplays(t *testing.T) {
	net := testnets.Hijackable(false)
	m := encode(t, net)
	res := check(t, m, ManagementReachable(m), m.NoFailures())
	if res.Verified {
		t.Fatal("hijack not found")
	}
	cex := res.Counterexample
	if cex.Packet.DstIP != ip("192.168.50.1") {
		t.Fatalf("counterexample dst %v", cex.Packet.DstIP)
	}
	ann := cex.Env.Anns["N"]
	if ann == nil {
		t.Fatalf("counterexample has no hijack announcement: %v", cex.Env)
	}
	// Replay in the simulator: R2 must fail to deliver to the management
	// interface under the decoded environment.
	sim := simulator.New(net.Graph)
	simres, err := sim.Run(cex.Packet.DstIP, cex.Env)
	if err != nil {
		t.Fatal(err)
	}
	w := sim.Walk(simres, "R2", cex.Packet)
	if w.Outcomes[simulator.Delivered] {
		t.Fatalf("counterexample does not replay: %v under %v", w, cex.Env)
	}
}

func TestManagementHijackFixedByFilter(t *testing.T) {
	net := testnets.Hijackable(true)
	m := encode(t, net)
	res := check(t, m, ManagementReachable(m), m.NoFailures())
	if !res.Verified {
		t.Fatalf("filtered network still hijackable: %v", res.Counterexample)
	}
}

func TestReachabilityAndFaultTolerance(t *testing.T) {
	net := testnets.OSPFChain(4)
	m := encode(t, net)
	stub := pfx("10.100.4.0/24")
	p := Reachable(m, "R1", stub)

	if res := check(t, m, p, m.NoFailures()); !res.Verified {
		t.Fatalf("chain reachability failed: %v", res.Counterexample)
	}
	// A chain is not 1-fault tolerant.
	if res := check(t, m, p, m.AtMostFailures(1)); res.Verified {
		t.Fatal("chain should not tolerate failures")
	} else if res.Counterexample.Env.NumFailed() != 1 {
		t.Fatalf("expected a single failure, got %v", res.Counterexample.Env)
	}
}

func TestTriangleFaultTolerance(t *testing.T) {
	net := testnets.EBGPTriangle()
	m := encode(t, net)
	stub := pfx("10.100.3.0/24")
	p := Reachable(m, "R1", stub)
	if res := check(t, m, p, m.AtMostFailures(1)); !res.Verified {
		t.Fatalf("triangle should tolerate one failure: %v\nfwd: %v",
			res.Counterexample, m.DecodeForwarding(m.Main, res.Counterexample.Assignment))
	}
	if res := check(t, m, p, m.AtMostFailures(2)); res.Verified {
		t.Fatal("two failures must be able to cut R1 off")
	}
}

func TestIsolationOfUnknownPrefix(t *testing.T) {
	// The OSPF chain has no external peers, so an unknown prefix can never
	// become reachable in any environment.
	net := testnets.OSPFChain(3)
	m := encode(t, net)
	if res := check(t, m, Isolated(m, "R1", pfx("203.0.113.0/24"))); !res.Verified {
		t.Fatalf("unknown prefix reachable: %v", res.Counterexample)
	}
	// And the stub is NOT isolated.
	if res := check(t, m, Isolated(m, "R1", pfx("10.100.3.0/24")), m.NoFailures()); res.Verified {
		t.Fatal("stub wrongly isolated")
	}
}

func TestBoundedAndEqualLength(t *testing.T) {
	net := testnets.OSPFChain(4)
	m := encode(t, net)
	stub := pfx("10.100.4.0/24")
	if res := check(t, m, BoundedLength(m, "R1", stub, 3), m.NoFailures()); !res.Verified {
		t.Fatalf("3 hops should suffice: %v", res.Counterexample)
	}
	if res := check(t, m, BoundedLength(m, "R1", stub, 2), m.NoFailures()); res.Verified {
		t.Fatal("2 hops cannot suffice")
	}
	// R2 and R2 trivially equal; R1 vs R3 differ.
	m2 := encode(t, net)
	if res := check(t, m2, EqualLengths(m2, []string{"R1", "R3"}, stub), m2.NoFailures()); res.Verified {
		t.Fatal("R1 and R3 are at different distances")
	}
}

// TestBoundedLengthBeyondCounterWidth is repro 2 of benchmarks/README.md
// "Found while building": three routers count path lengths in three
// bits, and a bound of 8 used to be cut to 0 and reported violated. The
// graph tier never had the counter and is the reference.
func TestBoundedLengthBeyondCounterWidth(t *testing.T) {
	net := testnets.OSPFChain(3)
	stub := pfx("10.100.3.0/24")
	a := tiered.NewAnalysis(net.Graph)
	for _, hops := range []int{1, 2, 7, 8, 9, 64, 1 << 40, -1} {
		want := a.Decide(tiered.Goal{Check: "bounded-length", Src: "R1", Subnet: stub, HasSubnet: true, Hops: hops})
		if !want.Decided {
			t.Fatalf("hops %d: graph tier left it undecided (%s)", hops, want.Reason)
		}
		m := encode(t, net)
		got := check(t, m, BoundedLength(m, "R1", stub, hops), m.NoFailures(), DstIn(m, stub))
		if got.Verified != want.Verified {
			t.Errorf("hops %d: sat verified=%v, graph tier verified=%v", hops, got.Verified, want.Verified)
		}
		srcs := []string{"R1", "R2"}
		want = a.Decide(tiered.Goal{Check: "bounded-length-all", Srcs: srcs, Subnet: stub, HasSubnet: true, Hops: hops})
		if !want.Decided {
			t.Fatalf("hops %d: graph tier left the all-sources form undecided (%s)", hops, want.Reason)
		}
		m = encode(t, net)
		got = check(t, m, BoundedLengthAll(m, srcs, stub, hops), m.NoFailures(), DstIn(m, stub))
		if got.Verified != want.Verified {
			t.Errorf("hops %d: sat all-sources verified=%v, graph tier verified=%v", hops, got.Verified, want.Verified)
		}
	}
}

func TestWaypointing(t *testing.T) {
	net := testnets.OSPFChain(4)
	m := encode(t, net)
	stub := pfx("10.100.4.0/24")
	// All R1 traffic to the stub must pass R3 (it is on the only path).
	if res := check(t, m, Waypointed(m, "R1", "R3", stub)); !res.Verified {
		t.Fatalf("chain traffic avoids R3?! %v", res.Counterexample)
	}
	// In the triangle, R2 can be bypassed.
	tri := testnets.EBGPTriangle()
	mt := encode(t, tri)
	if res := check(t, mt, Waypointed(mt, "R1", "R2", pfx("10.100.3.0/24")), mt.NoFailures()); res.Verified {
		t.Fatal("triangle traffic need not pass R2")
	}
}

func TestMultipathConsistency(t *testing.T) {
	net := testnets.ACLSquare()
	m := encode(t, net)
	res := check(t, m, MultipathConsistent(m), m.NoFailures())
	if res.Verified {
		t.Fatal("ACLSquare is the canonical multipath-consistency violation")
	}
	if !pfx("10.50.0.0/24").Contains(res.Counterexample.Packet.DstIP) {
		t.Fatalf("violation should involve the blocked subnet, got %v", res.Counterexample.Packet.DstIP)
	}

	clean := testnets.OSPFChain(3)
	mc := encode(t, clean)
	if res := check(t, mc, MultipathConsistent(mc)); !res.Verified {
		t.Fatalf("chain should be consistent: %v", res.Counterexample)
	}
}

func TestNoBlackholesCatchesACLDrop(t *testing.T) {
	net := testnets.ACLSquare()
	m := encode(t, net)
	res := check(t, m, NoBlackholes(m), m.NoFailures())
	if res.Verified {
		t.Fatal("R3's ACL drop is a blackhole")
	}
	clean := testnets.OSPFChain(3)
	mc := encode(t, clean)
	if res := check(t, mc, NoBlackholes(mc)); !res.Verified {
		t.Fatalf("chain has no blackholes: %v", res.Counterexample)
	}
}

func TestDropsAtEdgeOnly(t *testing.T) {
	net := testnets.ACLSquare()
	m := encode(t, net)
	// Treat R1 and R5 as edge: the drop at interior R3 violates.
	isEdge := func(r string) bool { return r == "R1" || r == "R5" }
	if res := check(t, m, DropsAtEdgeOnly(m, isEdge), m.NoFailures()); res.Verified {
		t.Fatal("interior ACL drop undetected")
	}
	// Treating R3 as edge accepts the drop.
	isEdge2 := func(r string) bool { return r != "R2" }
	if res := check(t, m, DropsAtEdgeOnly(m, isEdge2)); !res.Verified {
		t.Fatalf("unexpected interior drop: %v", res.Counterexample)
	}
}

const staticLoopR1 = `
hostname R1
!
interface Eth0
 ip address 10.0.12.1 255.255.255.252
!
ip route 172.20.0.0 255.255.0.0 10.0.12.2
!
`

const staticLoopR2 = `
hostname R2
!
interface Eth0
 ip address 10.0.12.2 255.255.255.252
!
ip route 172.20.0.0 255.255.0.0 10.0.12.1
!
`

func TestForwardingLoops(t *testing.T) {
	loopy := testnets.MustBuild(staticLoopR1, staticLoopR2)
	m := encode(t, loopy)
	res := check(t, m, NoForwardingLoops(m, nil))
	if res.Verified {
		t.Fatal("static route loop undetected")
	}
	if !pfx("172.20.0.0/16").Contains(res.Counterexample.Packet.DstIP) {
		t.Fatalf("loop counterexample dst %v", res.Counterexample.Packet.DstIP)
	}
	clean := testnets.StaticNull()
	mc := encode(t, clean)
	if res := check(t, mc, NoForwardingLoops(mc, nil)); !res.Verified {
		t.Fatalf("no loop expected: %v", res.Counterexample)
	}
	if cands := LoopCandidates(m); len(cands) != 2 {
		t.Fatalf("loop candidates %v", cands)
	}
}

func TestNeighborPreferences(t *testing.T) {
	net := testnets.Figure2()
	m := encode(t, net)
	n1Silent := m.Ctx.Not(m.Main.Env["N1"].Valid)
	// Query a destination class away from the peering infrastructure, as
	// an operator would; otherwise connected /30s and longest-prefix
	// match legitimately override the egress preference.
	extDst := DstIn(m, pfx("8.0.0.0/8"))
	// Longest-prefix match lets a more specific announcement from a less
	// preferred neighbor take the traffic, so the preference property is
	// quantified over same-length announcements (the paper's records
	// compete for one destination prefix).
	samePlen := m.Ctx.Eq(m.Main.Env["N2"].PrefixLen, m.Main.Env["N3"].PrefixLen)
	// R2 prefers N2 (local-pref 110) over N3 (default 100).
	good := PrefersNeighbors(m, "R2", []string{"N2", "N3"})
	if res := check(t, m, good, m.NoFailures(), n1Silent, extDst, samePlen); !res.Verified {
		t.Fatalf("preference N2>N3 should hold: %v", res.Counterexample)
	}
	bad := PrefersNeighbors(m, "R2", []string{"N3", "N2"})
	if res := check(t, m, bad, m.NoFailures(), n1Silent, extDst, samePlen); res.Verified {
		t.Fatal("reversed preference should fail")
	}
	// Without the same-length restriction the property is genuinely
	// violated by a more-specific hijack.
	if res := check(t, m, good, m.NoFailures(), n1Silent, extDst); res.Verified {
		t.Fatal("longest-prefix hijack should break naive preference")
	}
}

func TestNoLeak(t *testing.T) {
	net := testnets.Figure2()
	m := encode(t, net)
	// The /30 link subnets and /24 loopbacks leak beyond /16.
	if res := check(t, m, NoLeak(m, nil, 16), m.NoFailures()); res.Verified {
		t.Fatal("specifics should leak in Figure 2")
	}
	if res := check(t, m, NoLeak(m, nil, 32)); !res.Verified {
		t.Fatalf("nothing can be longer than /32: %v", res.Counterexample)
	}
}

// cleanDiamond is ACLSquare without the ACL: a true ECMP diamond.
func cleanDiamond() *testnets.Net {
	net := testnets.ACLSquare()
	r3 := net.Routers["R3"]
	r3.Iface("Eth1").OutACL = ""
	return net
}

func TestLoadBalanced(t *testing.T) {
	clean := cleanDiamond()
	m := encode(t, clean)
	dst := pfx("10.50.0.0/24")
	p := LoadBalanced(m, []string{"R1"}, "R2", "R3", 1000, 0)
	if res := check(t, m, p, m.NoFailures(), DstIn(m, dst)); !res.Verified {
		t.Fatalf("diamond should balance evenly: %v", res.Counterexample)
	}

	skewed := testnets.ACLSquare()
	ms := encode(t, skewed)
	ps := LoadBalanced(ms, []string{"R1"}, "R2", "R3", 1000, 100)
	if res := check(t, ms, ps, ms.NoFailures(), DstIn(ms, dst)); res.Verified {
		t.Fatal("ACL-skewed diamond cannot balance")
	}
}

const twinA = `
hostname A1
!
interface Eth0
 ip address 10.0.1.1 255.255.255.252
!
router bgp 65001
 neighbor 10.0.1.2 remote-as 65100
 neighbor 10.0.1.2 route-map IMP in
!
ip prefix-list BLOCK seq 5 deny 192.168.0.0/16 le 32
ip prefix-list BLOCK seq 10 permit 0.0.0.0/0 le 32
!
route-map IMP permit 10
 match ip address prefix-list BLOCK
 set local-preference 120
!
access-list 9 deny ip any host 172.18.0.1
access-list 9 permit ip any any
!
interface Eth1
 ip address 10.1.1.1 255.255.255.0
 ip access-group 9 in
!
`

func twinB(aclException bool) string {
	s := strings.ReplaceAll(twinA, "A1", "B1")
	s = strings.ReplaceAll(s, "10.0.1.1", "10.0.2.1")
	s = strings.ReplaceAll(s, "10.0.1.2", "10.0.2.2")
	s = strings.ReplaceAll(s, "10.1.1.1", "10.1.2.1")
	if aclException {
		// The §8.1 violation class: one extra ACL entry.
		s = strings.Replace(s, "access-list 9 deny ip any host 172.18.0.1",
			"access-list 9 deny ip any host 172.18.0.1\naccess-list 9 deny ip any host 172.18.0.2", 1)
	}
	return s
}

func TestLocalEquivalence(t *testing.T) {
	same := testnets.MustBuild(twinA, twinB(false))
	res, err := core.CheckLocalEquivalence(same.Graph, "A1", "B1", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("twins should be equivalent: %s", res.Difference)
	}

	diff := testnets.MustBuild(twinA, twinB(true))
	res2, err := core.CheckLocalEquivalence(diff.Graph, "A1", "B1", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Equivalent {
		t.Fatal("ACL exception should break equivalence")
	}
	if !strings.Contains(res2.Difference, "ACL") {
		t.Fatalf("difference should implicate the ACL: %s", res2.Difference)
	}
}

func TestFullEquivalence(t *testing.T) {
	a := testnets.Hijackable(false)
	b := testnets.Hijackable(false)
	pair, err := core.EncodePair(a.Graph, b.Graph, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := pair.LinkEnvironments(); err != nil {
		t.Fatal(err)
	}
	pair.LinkFailures()
	res, err := pair.Check(context.Background(), pair.FullEquivalence())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("identical networks must be equivalent: %v", res.Counterexample)
	}

	// The filtered variant behaves differently (it drops the hijack).
	c := testnets.Hijackable(true)
	pair2, err := core.EncodePair(a.Graph, c.Graph, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := pair2.LinkEnvironments(); err != nil {
		t.Fatal(err)
	}
	pair2.LinkFailures()
	res2, err := pair2.Check(context.Background(), pair2.FullEquivalence())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verified {
		t.Fatal("filtered and unfiltered networks must differ")
	}
}

func TestFaultInvariance(t *testing.T) {
	// The triangle tolerates any single failure: reachability unchanged.
	tri := testnets.EBGPTriangle()
	pair, prop, err := core.FaultInvariance(tri.Graph, core.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pair.Check(context.Background(), prop)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("triangle should be fault-invariant: %v", res.Counterexample)
	}

	// A chain is not.
	chain := testnets.OSPFChain(3)
	pair2, prop2, err := core.FaultInvariance(chain.Graph, core.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := pair2.Check(context.Background(), prop2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verified {
		t.Fatal("chain cannot be fault-invariant")
	}
}

func TestDescribe(t *testing.T) {
	net := testnets.OSPFChain(2)
	m := encode(t, net)
	res := check(t, m, Reachable(m, "R1", pfx("10.100.2.0/24")), m.NoFailures())
	s := Describe("reach", res)
	if !strings.Contains(s, "verified") {
		t.Fatalf("describe: %s", s)
	}
}

func TestReachableAllAndExternally(t *testing.T) {
	net := testnets.Figure2()
	m := encode(t, net)
	s3 := pfx("10.3.3.0/24")
	// Over ALL environments, S3 reachability is violated: Figure 2 has no
	// inbound filters for internal address space, so an external neighbor
	// can hijack S3 with a more-specific announcement — the same
	// vulnerability class as the paper's management-interface finding.
	res0 := check(t, m, ReachableAll(m, []string{"R1", "R2"}, s3), m.NoFailures())
	if res0.Verified {
		t.Fatal("expected the more-specific hijack of S3 to be found")
	}
	// The diversion works either with a more-specific prefix (LPM) or an
	// equal-length one (eBGP's administrative distance beats OSPF's).
	hijacked := false
	for _, ann := range res0.Counterexample.Env.Anns {
		if ann.Prefix.Contains(res0.Counterexample.Packet.DstIP) && s3.Contains(res0.Counterexample.Packet.DstIP) {
			hijacked = true
		}
	}
	if !hijacked {
		t.Fatalf("counterexample is not a hijack: %v", res0.Counterexample)
	}
	// With silent neighbors, S3 is reachable from everywhere.
	var silent []*smt.Term
	for _, name := range []string{"N1", "N2", "N3"} {
		silent = append(silent, m.Ctx.Not(m.Main.Env[name].Valid))
	}
	assumptions := append([]*smt.Term{m.NoFailures()}, silent...)
	if res := check(t, m, ReachableAll(m, []string{"R1", "R2"}, s3), assumptions...); !res.Verified {
		t.Fatalf("S3 should be reachable with silent peers: %v", res.Counterexample)
	}
	// External reachability of 8.8.8.0/24 requires an announcement: with a
	// fully symbolic environment the peers may stay silent, so the
	// property is violated — and the counterexample env must be silent.
	ext := pfx("8.8.8.0/24")
	res := check(t, m, ReachesExternally(m, "R3", ext), m.NoFailures())
	if res.Verified {
		t.Fatal("silence must break external reachability")
	}
	if len(res.Counterexample.Env.Anns) != 0 {
		// Any announcements present must not provide the destination —
		// decoded environments always cover the destination, so none
		// should appear.
		t.Fatalf("expected silent environment, got %v", res.Counterexample.Env)
	}
}

func TestWaypointChainOrder(t *testing.T) {
	// On the chain R1—R2—R3—R4, traffic from R1 to R4's stub passes R2
	// then R3 — in that order only.
	net := testnets.OSPFChain(4)
	stub := pfx("10.100.4.0/24")

	m := encode(t, net)
	if res := check(t, m, WaypointedChain(m, "R1", []string{"R2", "R3"}, stub), m.NoFailures()); !res.Verified {
		t.Fatalf("R2→R3 order should hold: %v", res.Counterexample)
	}
	m2 := encode(t, net)
	if res := check(t, m2, WaypointedChain(m2, "R1", []string{"R3", "R2"}, stub), m2.NoFailures()); res.Verified {
		t.Fatal("R3→R2 order is impossible on the chain and must be violated")
	}
	// A chain with an unrelated router is violated too.
	m3 := encode(t, net)
	if res := check(t, m3, WaypointedChain(m3, "R2", []string{"R1"}, stub), m3.NoFailures()); res.Verified {
		t.Fatal("R1 is not on the R2→R4 path")
	}
}

func TestDisjointPaths(t *testing.T) {
	net := testnets.ACLSquare()
	dst := pfx("10.50.0.0/24")
	// R2 and R3 reach R5 over distinct links.
	m := encode(t, net)
	if res := check(t, m, DisjointPaths(m, "R2", "R3", dst), m.NoFailures()); !res.Verified {
		t.Fatalf("R2/R3 paths should be edge-disjoint: %v", res.Counterexample)
	}
	// R1's traffic rides through R2, sharing the R2→R5 link.
	m2 := encode(t, net)
	if res := check(t, m2, DisjointPaths(m2, "R1", "R2", dst), m2.NoFailures()); res.Verified {
		t.Fatal("R1 and R2 share the R2→R5 link")
	}
}

func TestAlwaysExportsCommunity(t *testing.T) {
	mk := func(tagged bool) string {
		out := ""
		if tagged {
			out = ` neighbor 10.9.1.2 route-map TAG out
`
		}
		return `
hostname R1
!
interface Serial0
 ip address 10.9.1.1 255.255.255.252
!
interface Loopback0
 ip address 10.100.1.1 255.255.255.0
!
router bgp 65001
 bgp router-id 1.1.1.1
 neighbor 10.9.1.2 remote-as 65100
 neighbor 10.9.1.2 description N1
` + out + ` network 10.100.1.0 mask 255.255.255.0
!
route-map TAG permit 10
 set community 65001:7 additive
!
`
	}
	opts := core.DefaultOptions()
	opts.KeepAllCommunities = true
	tagged := testnets.MustBuild(mk(true))
	m, err := core.Encode(tagged.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := AlwaysExportsCommunity(m, []string{"N1"}, "65001:7")
	if res := check(t, m, p, m.NoFailures()); !res.Verified {
		t.Fatalf("export map should tag everything: %v", res.Counterexample)
	}
	plain := testnets.MustBuild(mk(false))
	m2, err := core.Encode(plain.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2 := AlwaysExportsCommunity(m2, []string{"N1"}, "65001:7")
	if res := check(t, m2, p2, m2.NoFailures()); res.Verified {
		t.Fatal("untagged exports must violate")
	}
}
