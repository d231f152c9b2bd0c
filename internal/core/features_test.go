package core

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/simulator"
	"repro/internal/smt"
	"repro/internal/testnets"
)

// noLeak and dstIn inline the corresponding internal/properties builders
// (importing that package from here would be a test import cycle).
func noLeak(m *Model, maxLen int) *smt.Term {
	c := m.Ctx
	out := c.True()
	for _, rec := range m.Main.ExtExports {
		out = c.And(out, c.Implies(rec.Valid,
			c.Ule(rec.PrefixLen, c.BV(uint64(maxLen), WidthPrefixLen))))
	}
	return out
}

func dstIn(m *Model, p network.Prefix) *smt.Term {
	return m.Ctx.InRange(m.DstIP, uint64(p.First()), uint64(p.Last()))
}

// aggNet: border router with a summary-only aggregate for 10.100.0.0/16;
// two stub /24s live behind it on R2.
func aggNet(summarize bool) *testnets.Net {
	agg := ""
	if summarize {
		agg = " aggregate-address 10.100.0.0 255.255.0.0 summary-only\n"
	}
	r1 := `
hostname R1
!
interface Eth0
 ip address 10.0.12.1 255.255.255.252
!
interface Serial0
 ip address 10.9.1.1 255.255.255.252
!
router ospf 1
 network 10.0.12.0 0.0.0.3 area 0
!
router bgp 65001
 neighbor 10.9.1.2 remote-as 65100
 neighbor 10.9.1.2 description N1
 redistribute ospf
` + agg + `!
`
	r2 := `
hostname R2
!
interface Eth0
 ip address 10.0.12.2 255.255.255.252
!
interface Loopback0
 ip address 10.100.1.1 255.255.255.0
!
interface Loopback1
 ip address 10.100.2.1 255.255.255.0
!
router ospf 1
 network 10.0.12.0 0.0.0.3 area 0
 network 10.100.1.0 0.0.0.255 area 0
 network 10.100.2.0 0.0.0.255 area 0
!
`
	return testnets.MustBuild(r1, r2)
}

func TestAggregationSuppressesSpecifics(t *testing.T) {
	dst := ip("10.100.1.1")

	// Simulator view: without the aggregate, the /24 leaks; with it, the
	// export is shortened to /16.
	for _, summarize := range []bool{false, true} {
		net := aggNet(summarize)
		sim := simulator.New(net.Graph)
		res, err := sim.Run(dst, simulator.NewEnvironment())
		if err != nil {
			t.Fatal(err)
		}
		exp := res.ExportsToExt["N1"]
		if !exp.Valid {
			t.Fatalf("summarize=%v: nothing exported", summarize)
		}
		wantLen := 24
		if summarize {
			wantLen = 16
		}
		if exp.PrefixLen != wantLen {
			t.Fatalf("summarize=%v: exported /%d, want /%d", summarize, exp.PrefixLen, wantLen)
		}
	}

	// Verifier view: the §5 leak property. Without aggregation NoLeak(16)
	// is violated; with it, verified.
	leaky, err := Encode(aggNet(false).Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := leaky.CheckGoal(context.Background(), nil, noLeak(leaky, 16), leaky.NoFailures(), dstIn(leaky, pfx("10.100.0.0/16")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified {
		t.Fatal("specifics should leak without aggregation")
	}
	clean, err := Encode(aggNet(true).Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := clean.CheckGoal(context.Background(), nil, noLeak(clean, 16), clean.NoFailures(), dstIn(clean, pfx("10.100.0.0/16")))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Verified {
		t.Fatalf("aggregate should cap exports at /16: %v", res2.Counterexample)
	}

	// Differential sanity on the aggregating network.
	runDifferential(t, aggNet(true), DefaultOptions(),
		[]network.IP{dst, ip("10.100.2.1")}, []*simulator.Environment{newEnv()})
}

// rrNet: hub-and-spoke iBGP. c1 has the only eBGP exit; c2 learns the
// external route only if the hub reflects (withRR).
func rrNet(withRR bool) *testnets.Net {
	client := ""
	if withRR {
		client = " neighbor 10.0.1.2 route-reflector-client\n neighbor 10.0.2.2 route-reflector-client\n"
	}
	rr := `
hostname hub
!
interface Eth0
 ip address 10.0.1.1 255.255.255.252
!
interface Eth1
 ip address 10.0.2.1 255.255.255.252
!
router bgp 65001
 bgp router-id 9.9.9.9
 neighbor 10.0.1.2 remote-as 65001
 neighbor 10.0.2.2 remote-as 65001
` + client + `!
`
	c1 := `
hostname spokeA
!
interface Eth0
 ip address 10.0.1.2 255.255.255.252
!
interface Serial0
 ip address 10.9.1.1 255.255.255.252
!
router bgp 65001
 bgp router-id 1.1.1.1
 neighbor 10.0.1.1 remote-as 65001
 neighbor 10.9.1.2 remote-as 65100
 neighbor 10.9.1.2 description N1
!
`
	c2 := `
hostname spokeB
!
interface Eth0
 ip address 10.0.2.2 255.255.255.252
!
router bgp 65001
 bgp router-id 2.2.2.2
 neighbor 10.0.2.1 remote-as 65001
!
`
	return testnets.MustBuild(rr, c1, c2)
}

func TestRouteReflection(t *testing.T) {
	dst := ip("8.8.8.8")
	env := newEnv().Announce("N1", simulator.Announcement{Prefix: pfx("8.8.8.0/24"), PathLen: 2})

	for _, withRR := range []bool{false, true} {
		net := rrNet(withRR)
		sim := simulator.New(net.Graph)
		res, err := sim.Run(dst, env)
		if err != nil {
			t.Fatal(err)
		}
		gotB := res.States["spokeB"].Best.Valid
		if gotB != withRR {
			t.Fatalf("withRR=%v: spokeB has route=%v", withRR, gotB)
		}
		if withRR {
			// spokeB forwards toward the hub, the hub toward spokeA.
			if len(res.States["spokeB"].Hops) != 1 || res.States["spokeB"].Hops[0].Node != "hub" {
				t.Fatalf("spokeB hops %v", res.States["spokeB"].Hops)
			}
			if len(res.States["hub"].Hops) != 1 || res.States["hub"].Hops[0].Node != "spokeA" {
				t.Fatalf("hub hops %v", res.States["hub"].Hops)
			}
		}
		// Symbolic model agrees, over several environments.
		runDifferential(t, net, DefaultOptions(), []network.IP{dst},
			[]*simulator.Environment{env, newEnv(), newEnv().Fail("hub", "spokeA")})
	}
}

// commNet: the border tags customer routes and filters on communities.
func commNet() *testnets.Net {
	r1 := `
hostname R1
!
interface Eth0
 ip address 10.0.12.1 255.255.255.252
!
interface Serial0
 ip address 10.9.1.1 255.255.255.252
!
router bgp 65001
 bgp router-id 1.1.1.1
 neighbor 10.9.1.2 remote-as 65100
 neighbor 10.9.1.2 description N1
 neighbor 10.9.1.2 route-map IMPORT in
 neighbor 10.0.12.2 remote-as 65001
!
ip community-list BLACKHOLE permit 65100:666
ip community-list CUSTOMER permit 65100:100
!
route-map IMPORT deny 10
 match community BLACKHOLE
!
route-map IMPORT permit 20
 match community CUSTOMER
 set local-preference 200
 set community 65001:1 additive
!
route-map IMPORT permit 30
!
`
	r2 := `
hostname R2
!
interface Eth0
 ip address 10.0.12.2 255.255.255.252
!
router bgp 65001
 bgp router-id 2.2.2.2
 neighbor 10.0.12.1 remote-as 65001
!
`
	return testnets.MustBuild(r1, r2)
}

func TestCommunities(t *testing.T) {
	net := commNet()
	dst := ip("8.8.8.8")
	p := pfx("8.8.8.0/24")

	cases := []struct {
		comms   []string
		wantLP  int
		blocked bool
	}{
		{nil, 100, false},
		{[]string{"65100:100"}, 200, false},
		{[]string{"65100:666"}, 0, true},
		{[]string{"65100:100", "65100:666"}, 0, true}, // deny clause first
	}
	sim := simulator.New(net.Graph)
	for _, c := range cases {
		env := newEnv().Announce("N1", simulator.Announcement{Prefix: p, PathLen: 2, Communities: c.comms})
		res, err := sim.Run(dst, env)
		if err != nil {
			t.Fatal(err)
		}
		best := res.States["R1"].Best
		if best.Valid == c.blocked {
			t.Fatalf("comms %v: valid=%v want blocked=%v", c.comms, best.Valid, c.blocked)
		}
		if !c.blocked && best.LocalPref != c.wantLP {
			t.Fatalf("comms %v: lp=%d want %d", c.comms, best.LocalPref, c.wantLP)
		}
		if !c.blocked && c.wantLP == 200 && !best.HasComm("65001:1") {
			t.Fatalf("customer route not tagged: %v", best)
		}
		runDifferential(t, net, DefaultOptions(), []network.IP{dst}, []*simulator.Environment{env})
	}

	// Symbolically: a blackhole-tagged announcement can NEVER install at
	// R1 — for any prefix, any path length.
	m, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tagged := m.Main.Env["N1"].Comms["65100:666"]
	neverInstalled := m.Ctx.Implies(tagged, m.Ctx.Not(m.Main.ExtImports["N1"].Valid))
	res, err := m.CheckGoal(context.Background(), nil, neverInstalled, m.NoFailures())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("blackhole community bypassed the filter: %v", res.Counterexample)
	}
}

// medNet: one router, two sessions to the same external AS.
func medNet(alwaysCompare bool) *testnets.Net {
	cmp := ""
	if alwaysCompare {
		cmp = " bgp always-compare-med\n"
	}
	r1 := `
hostname R1
!
interface Serial0
 ip address 10.9.1.1 255.255.255.252
!
interface Serial1
 ip address 10.9.2.1 255.255.255.252
!
router bgp 65001
` + cmp + ` bgp router-id 1.1.1.1
 neighbor 10.9.1.2 remote-as 65100
 neighbor 10.9.1.2 description NA
 neighbor 10.9.2.2 remote-as 65100
 neighbor 10.9.2.2 description NB
!
`
	return testnets.MustBuild(r1)
}

func TestMEDComparison(t *testing.T) {
	dst := ip("8.8.8.8")
	p := pfx("8.8.8.0/24")
	// Same AS announces via two sessions with different MEDs: the lower
	// MED must win even though NB has the higher session address (worse
	// rid tie-break).
	env := newEnv().
		Announce("NA", simulator.Announcement{Prefix: p, PathLen: 3, MED: 50}).
		Announce("NB", simulator.Announcement{Prefix: p, PathLen: 3, MED: 10})
	net := medNet(false)
	sim := simulator.New(net.Graph)
	res, err := sim.Run(dst, env)
	if err != nil {
		t.Fatal(err)
	}
	if hops := res.States["R1"].Hops; len(hops) != 1 || hops[0].Ext != "NB" {
		t.Fatalf("MED should pick NB: %v", hops)
	}
	runDifferential(t, net, DefaultOptions(), []network.IP{dst}, []*simulator.Environment{env})

	// always-compare-med differential coverage.
	runDifferential(t, medNet(true), DefaultOptions(), []network.IP{dst}, []*simulator.Environment{env})
}

func TestWrapVarRoundTrip(t *testing.T) {
	// The unsliced encoding interposes variable records everywhere; the
	// stable states must be identical. Compare optimized vs naive on the
	// RR network (exercises iBGP fields through wrapped records).
	net := rrNet(true)
	env := newEnv().Announce("N1", simulator.Announcement{Prefix: pfx("8.8.8.0/24"), PathLen: 2})
	for name, opts := range allOpts() {
		t.Run(name, func(t *testing.T) {
			runDifferential(t, net, opts, []network.IP{ip("8.8.8.8")}, []*simulator.Environment{env})
		})
	}
}

func TestMultihopIBGPDifferential(t *testing.T) {
	// Exercises the per-address network copies (§4): the iBGP session
	// rides the routers' loopbacks, so its up/down state depends on IGP
	// reachability of the peering addresses — symbolically via SessUp
	// bits gated on the address slices.
	net := testnets.MultihopIBGP()
	ann := simulator.Announcement{Prefix: pfx("8.8.8.0/24"), PathLen: 2}
	envs := []*simulator.Environment{
		newEnv(),
		newEnv().Announce("N1", ann),
		newEnv().Announce("N1", ann).Fail("B1", "B2"),
		newEnv().Announce("N1", ann).FailExternal("B1", "N1"),
	}
	dsts := []network.IP{ip("8.8.8.8"), ip("192.168.0.2")}
	runDifferential(t, net, DefaultOptions(), dsts, envs)

	// The model must prove: if the internal link is down, B2 never has a
	// BGP route (the session transport is gone) — for any announcements.
	m, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	linkDown := m.Failed["B1~B2"]
	noRoute := m.Ctx.Implies(linkDown, m.Ctx.Not(m.Main.BestProto["B2"][config.BGP].Valid))
	res, err := m.CheckGoal(context.Background(), nil, noRoute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("iBGP session survived transport failure: %v", res.Counterexample)
	}
}

// TestReachEncodersStampTheirOrigin: every assert of the three
// reachability instrumentations names its router under kind "reach", so
// blame on a verdict that leans on one (waypoint leans on ReachAvoiding)
// can say so.
func TestReachEncodersStampTheirOrigin(t *testing.T) {
	m := encodeNet(t, testnets.OSPFChain(4), DefaultOptions())
	for name, build := range map[string]func(){
		"reachx":         func() { m.Reach(m.Main, true) },
		"avoid.R2.false": func() { m.ReachAvoiding(m.Main, "R2", false) },
		"reachvia":       func() { m.ReachVia(m.Main, nil) },
	} {
		from := len(m.Asserts)
		build()
		if len(m.Asserts) == from {
			t.Fatalf("%s asserted nothing", name)
		}
		for i := from; i < len(m.Asserts); i++ {
			if o := m.AssertOrigins[i]; o.Kind != "reach" || o.Name != name || o.Router == "" {
				t.Fatalf("%s: assert %d has origin %+v", name, i, o)
			}
		}
	}
}
