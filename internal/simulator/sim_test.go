package simulator

import (
	"testing"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/testnets"
)

func mustRun(t *testing.T, s *Simulator, dst network.IP, env *Environment) *Result {
	t.Helper()
	res, err := s.Run(dst, env)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return res
}

func pkt(dst network.IP) config.Packet {
	return config.Packet{DstIP: dst, Protocol: 6, SrcPort: 1234, DstPort: 80}
}

func TestOSPFChainReachability(t *testing.T) {
	net := testnets.OSPFChain(4)
	s := New(net.Graph)
	dst := testnets.StubIP(4)
	res := mustRun(t, s, dst, NewEnvironment())

	// Every router should reach R4's stub.
	for _, from := range []string{"R1", "R2", "R3"} {
		w := s.Walk(res, from, pkt(dst))
		if !w.AllDelivered() {
			t.Fatalf("%s -> %v: %v (fib: %s)", from, dst, w, FIBEntry(res, from))
		}
	}
	// R1's path is R1-R2-R3-R4: 3 hops.
	w := s.Walk(res, "R1", pkt(dst))
	if w.MaxHops != 3 {
		t.Fatalf("hops = %d, want 3", w.MaxHops)
	}
	// Metric at R1: 3 links with cost 1 each... the stub is a /24 with
	// metric accumulated over 3 hops.
	best := res.States["R1"].Best
	if best.Proto != config.OSPF || best.Metric != 3 {
		t.Fatalf("R1 best %v", best)
	}
	// R4 delivers locally via connected.
	if !res.States["R4"].DeliveredLocal {
		t.Fatal("R4 should deliver locally")
	}
}

func TestOSPFChainLinkFailure(t *testing.T) {
	net := testnets.OSPFChain(4)
	s := New(net.Graph)
	dst := testnets.StubIP(4)
	// A link's id does not depend on the order its ends are named in:
	// the encoder names its failure bits with the same LinkID.
	for _, env := range []*Environment{NewEnvironment().Fail("R2", "R3"), NewEnvironment().Fail("R3", "R2")} {
		res := mustRun(t, s, dst, env)
		w := s.Walk(res, "R1", pkt(dst))
		if w.Reaches() {
			t.Fatalf("%v: chain cut but still reaches: %v", env, w)
		}
		if !w.Outcomes[Blackhole] {
			t.Fatalf("%v: expected blackhole, got %v", env, w)
		}
	}
}

func TestRIPChain(t *testing.T) {
	net := testnets.RIPChain(5)
	s := New(net.Graph)
	dst := testnets.StubIP(5)
	res := mustRun(t, s, dst, NewEnvironment())
	w := s.Walk(res, "R1", pkt(dst))
	if !w.AllDelivered() || w.MaxHops != 4 {
		t.Fatalf("walk %v hops=%d", w, w.MaxHops)
	}
	if res.States["R1"].Best.Proto != config.RIP {
		t.Fatalf("R1 best %v", res.States["R1"].Best)
	}
}

func TestRIPInfinity(t *testing.T) {
	// RIP counts to 16: an 18-router chain leaves the far end unreachable.
	net := testnets.RIPChain(18)
	s := New(net.Graph)
	dst := testnets.StubIP(18)
	res := mustRun(t, s, dst, NewEnvironment())
	if res.States["R1"].Best.Valid {
		t.Fatalf("R1 has a route beyond RIP infinity: %v", res.States["R1"].Best)
	}
	if !res.States["R5"].Best.Valid {
		t.Fatalf("R5 should still have a route")
	}
}

func TestEBGPTriangle(t *testing.T) {
	net := testnets.EBGPTriangle()
	s := New(net.Graph)
	dst := testnets.StubIP(3)
	res := mustRun(t, s, dst, NewEnvironment())
	// R1 reaches R3's stub directly (1 AS hop beats 2).
	w := s.Walk(res, "R1", pkt(dst))
	if !w.AllDelivered() || w.MaxHops != 1 {
		t.Fatalf("walk %v hops=%d fib=%s", w, w.MaxHops, FIBEntry(res, "R1"))
	}
	best := res.States["R1"].Best
	if best.Proto != config.BGP || best.Metric != 1 || best.FromNode != "R3" {
		t.Fatalf("R1 best %v", best)
	}
	// Failing R1-R3 reroutes through R2.
	env := NewEnvironment().Fail("R1", "R3")
	res2 := mustRun(t, s, dst, env)
	w2 := s.Walk(res2, "R1", pkt(dst))
	if !w2.AllDelivered() || w2.MaxHops != 2 {
		t.Fatalf("after failure: %v hops=%d", w2, w2.MaxHops)
	}
	if res2.States["R1"].Best.FromNode != "R2" {
		t.Fatalf("detour best %v", res2.States["R1"].Best)
	}
}

func TestFigure2EgressPreference(t *testing.T) {
	net := testnets.Figure2()
	s := New(net.Graph)
	ext := network.MustParseIP("8.8.8.8")
	extPfx := network.MustParsePrefix("8.8.8.0/24")

	// All three neighbors announce: R3 must exit via N1 (local-pref 120
	// at R1 beats 110 via N2 and 100 via N3) — the paper's walkthrough.
	env := NewEnvironment().
		Announce("N1", Announcement{Prefix: extPfx, PathLen: 3}).
		Announce("N2", Announcement{Prefix: extPfx, PathLen: 3}).
		Announce("N3", Announcement{Prefix: extPfx, PathLen: 3})
	res := mustRun(t, s, ext, env)
	w := s.Walk(res, "R3", pkt(ext))
	if !w.Outcomes[Exited] || !w.ExitedVia["N1"] || len(w.ExitedVia) != 1 {
		t.Fatalf("R3 egress %v via %v (R3 fib %s; R1 fib %s)", w, w.ExitedVia, FIBEntry(res, "R3"), FIBEntry(res, "R1"))
	}

	// Only N2 and N3 announce: egress via N2 (lp 110 > 100).
	env2 := NewEnvironment().
		Announce("N2", Announcement{Prefix: extPfx, PathLen: 3}).
		Announce("N3", Announcement{Prefix: extPfx, PathLen: 3})
	res2 := mustRun(t, s, ext, env2)
	w2 := s.Walk(res2, "R3", pkt(ext))
	if !w2.Outcomes[Exited] || !w2.ExitedVia["N2"] || len(w2.ExitedVia) != 1 {
		t.Fatalf("R3 egress %v via %v", w2, w2.ExitedVia)
	}

	// Nobody announces: no route at R3.
	res3 := mustRun(t, s, ext, NewEnvironment())
	w3 := s.Walk(res3, "R3", pkt(ext))
	if w3.Reaches() {
		t.Fatalf("unexpected reachability: %v", w3)
	}
}

func TestFigure2InternalReachability(t *testing.T) {
	net := testnets.Figure2()
	s := New(net.Graph)
	// R3's subnet S3 is reachable from R1 and R2 via OSPF.
	dst := network.MustParseIP("10.3.3.1")
	res := mustRun(t, s, dst, NewEnvironment())
	for _, from := range []string{"R1", "R2"} {
		w := s.Walk(res, from, pkt(dst))
		if !w.AllDelivered() {
			t.Fatalf("%s: %v", from, w)
		}
	}
	// Exports to external neighbors carry S3 (OSPF redistributed into
	// BGP, then exported).
	for _, n := range []string{"N1", "N2", "N3"} {
		if !res.ExportsToExt[n].Valid {
			t.Fatalf("S3 not exported to %s", n)
		}
	}
}

func TestACLSquareMultipathInconsistency(t *testing.T) {
	net := testnets.ACLSquare()
	s := New(net.Graph)
	dst := network.MustParseIP("10.50.0.1")
	res := mustRun(t, s, dst, NewEnvironment())
	// R1 load-balances to R2 and R3.
	if len(res.States["R1"].Hops) != 2 {
		t.Fatalf("R1 hops %v", res.States["R1"].Hops)
	}
	w := s.Walk(res, "R1", pkt(dst))
	if !w.Outcomes[Delivered] || !w.Outcomes[DroppedACL] {
		t.Fatalf("want split fate, got %v", w)
	}
	// Other traffic is not dropped.
	other := network.MustParseIP("10.0.25.2")
	res2 := mustRun(t, s, other, NewEnvironment())
	w2 := s.Walk(res2, "R1", pkt(other))
	if w2.Outcomes[DroppedACL] {
		t.Fatalf("unrelated traffic dropped: %v", w2)
	}
}

func TestStaticAndNull(t *testing.T) {
	net := testnets.StaticNull()
	s := New(net.Graph)
	dst := network.MustParseIP("10.100.2.1")
	res := mustRun(t, s, dst, NewEnvironment())
	if res.States["R1"].Best.Proto != config.Static {
		t.Fatalf("R1 best %v", res.States["R1"].Best)
	}
	w := s.Walk(res, "R1", pkt(dst))
	if !w.AllDelivered() {
		t.Fatalf("static route walk %v", w)
	}
	// Null0 blackhole.
	drop := network.MustParseIP("172.16.9.9")
	res2 := mustRun(t, s, drop, NewEnvironment())
	w2 := s.Walk(res2, "R1", pkt(drop))
	if !w2.Outcomes[DroppedNull] {
		t.Fatalf("null0 walk %v", w2)
	}
	// Static next hop dies with the link.
	env := NewEnvironment().Fail("R1", "R2")
	res3 := mustRun(t, s, dst, env)
	if res3.States["R1"].Best.Valid {
		t.Fatalf("static survived link failure: %v", res3.States["R1"].Best)
	}
}

func TestHijack(t *testing.T) {
	mgmt := network.MustParseIP("192.168.50.1")
	hijack := Announcement{Prefix: network.MustParsePrefix("192.168.50.1/32"), PathLen: 1}

	// Unfiltered: the external announcement diverts R2's traffic.
	open := testnets.Hijackable(false)
	s := New(open.Graph)
	res := mustRun(t, s, mgmt, NewEnvironment().Announce("N", hijack))
	w := s.Walk(res, "R2", pkt(mgmt))
	if !w.Outcomes[Exited] || w.Outcomes[Delivered] {
		t.Fatalf("expected hijack, got %v (fib %s)", w, FIBEntry(res, "R2"))
	}
	// Without the announcement, management is reachable.
	resQuiet := mustRun(t, s, mgmt, NewEnvironment())
	if !s.Walk(resQuiet, "R2", pkt(mgmt)).AllDelivered() {
		t.Fatal("management unreachable even without hijack")
	}

	// Filtered: the prefix list blocks the hijack.
	closed := testnets.Hijackable(true)
	s2 := New(closed.Graph)
	res2 := mustRun(t, s2, mgmt, NewEnvironment().Announce("N", hijack))
	w2 := s2.Walk(res2, "R2", pkt(mgmt))
	if !w2.AllDelivered() {
		t.Fatalf("filter did not stop hijack: %v (fib %s)", w2, FIBEntry(res2, "R2"))
	}
}

func TestEnvironmentString(t *testing.T) {
	env := NewEnvironment().
		Announce("N1", Announcement{Prefix: network.MustParsePrefix("8.8.8.0/24"), PathLen: 2, MED: 5, Communities: []string{"65001:1"}}).
		Fail("R1", "R2")
	s := env.String()
	if s == "" || s == "<empty environment>" {
		t.Fatalf("env string %q", s)
	}
	if NewEnvironment().String() != "<empty environment>" {
		t.Fatal("empty env string")
	}
}

func TestRecordString(t *testing.T) {
	if Invalid().String() != "<no route>" {
		t.Fatal("invalid record string")
	}
	r := Record{Valid: true, Proto: config.BGP, PrefixLen: 24, AD: 20, LocalPref: 100,
		Metric: 2, MED: 7, Internal: true, Comms: map[string]bool{"65001:1": true}, Origin: "x"}
	if r.String() == "" {
		t.Fatal("record string")
	}
}

func TestCompareOrders(t *testing.T) {
	mode := CompareMode{}
	base := Record{Valid: true, PrefixLen: 24, AD: 20, LocalPref: 100, Metric: 2, RID: 5}
	longer := base
	longer.PrefixLen = 32
	if !Better(longer, base, mode) || !BetterIntra(longer, base, mode) {
		t.Fatal("longest prefix first")
	}
	lowAD := base
	lowAD.AD = 1
	lowAD.LocalPref = 1 // worse on later keys
	if !Better(lowAD, base, mode) {
		t.Fatal("AD should dominate cross-protocol order")
	}
	if BetterIntra(lowAD, base, mode) {
		t.Fatal("AD must not be compared within a protocol")
	}
	hiLP := base
	hiLP.LocalPref = 200
	hiLP.Metric = 99
	if !BetterIntra(hiLP, base, mode) {
		t.Fatal("local pref beats metric")
	}
	ebgp := base
	ibgp := base
	ibgp.Internal = true
	ibgp.RID = 1
	if !BetterIntra(ebgp, ibgp, mode) {
		t.Fatal("eBGP over iBGP")
	}
	// MED only compared for the same neighbor AS by default.
	m1 := base
	m1.NbrASN, m1.MED = 1, 10
	m2 := base
	m2.NbrASN, m2.MED = 2, 5
	if BetterIntra(m2, m1, mode) != (m2.RID < m1.RID) {
		t.Fatal("MED compared across different ASes")
	}
	m2.NbrASN = 1
	if !BetterIntra(m2, m1, mode) {
		t.Fatal("MED not compared for same AS")
	}
	m2.NbrASN = 2
	if !BetterIntra(m2, m1, CompareMode{AlwaysCompareMED: true}) {
		t.Fatal("always-compare-med ignored")
	}
	// EquallyGood ignores rid.
	r2 := base
	r2.RID = 99
	if !EquallyGood(base, r2, mode) {
		t.Fatal("equally good with different rid")
	}
	if EquallyGood(base, longer, mode) {
		t.Fatal("different plen equally good")
	}
}

// TestCrossProtocolTieTakesProtocolOrder: R1 hears R2's 10.2.2.0/24 over
// OSPF (distance 20, cost 1) and over eBGP (distance 20, one AS hop), and
// neither route is strictly better. The encoder folds the per-protocol
// bests in Protocol order and keeps the first of a tie, so OSPF wins; the
// simulator must pick it too, every run, not by map order.
func TestCrossProtocolTieTakesProtocolOrder(t *testing.T) {
	net := testnets.MustBuild(
		"hostname R1\n!\ninterface Eth0\n ip address 10.0.12.1 255.255.255.252\n ip ospf cost 1\n!\n"+
			"router ospf 1\n network 10.0.12.0 0.0.0.3 area 0\n distance 20\n!\n"+
			"router bgp 65001\n neighbor 10.0.12.2 remote-as 65002\n!\n",
		"hostname R2\n!\ninterface Eth0\n ip address 10.0.12.2 255.255.255.252\n ip ospf cost 1\n!\n"+
			"interface Loopback0\n ip address 10.2.2.1 255.255.255.0\n!\n"+
			"router ospf 1\n network 10.0.12.0 0.0.0.3 area 0\n network 10.2.2.0 0.0.0.255 area 0\n!\n"+
			"router bgp 65002\n neighbor 10.0.12.1 remote-as 65001\n network 10.2.2.0 mask 255.255.255.0\n!\n")
	dst := network.MustParseIP("10.2.2.1")
	for i := 0; i < 200; i++ {
		res := mustRun(t, New(net.Graph), dst, NewEnvironment())
		st := res.States["R1"]
		ospf, bgp := st.PerProto[config.OSPF], st.PerProto[config.BGP]
		if !ospf.Valid || !bgp.Valid || Better(ospf, bgp, CompareMode{}) || Better(bgp, ospf, CompareMode{}) {
			t.Fatalf("want tied OSPF and BGP records at R1, got %v and %v", ospf, bgp)
		}
		if st.Best.Proto != config.OSPF {
			t.Fatalf("run %d: R1's best is %v, want the OSPF record (Protocol order)", i, st.Best)
		}
	}
}
