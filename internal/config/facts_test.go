package config

import (
	"testing"

	"repro/internal/network"
)

// TestConfigFacts pins every fact facts.go resolves: distance defaults
// and overrides, the router-id fallback, ownership, IGP activation, seed
// metrics and the redistribution predicates.
func TestConfigFacts(t *testing.T) {
	pfx := network.MustParsePrefix
	// unaligned is a network statement with host bits set: it covers no
	// prefix, so only equality can activate the interface carrying it.
	unaligned := network.Prefix{Addr: network.MustParseIP("10.9.9.1"), Len: 24}
	up := &Interface{Name: "up", Prefix: pfx("10.0.1.0/24")}
	down := &Interface{Name: "down", Prefix: pfx("10.0.2.0/24"), Shutdown: true}
	odd := &Interface{Name: "odd", Prefix: unaligned}
	other := &Interface{Name: "other", Prefix: pfx("10.9.8.0/24")}

	bare := NewRouter("bare")
	bare.Interfaces = []*Interface{up, down}

	set := NewRouter("set")
	set.Interfaces = []*Interface{up, down, odd, other}
	set.Statics = []*StaticRoute{{Prefix: pfx("192.168.0.0/16"), AdminDistance: 7}, {Prefix: pfx("172.16.0.0/12")}}
	set.OSPF = &OSPFConfig{Networks: []network.Prefix{pfx("10.0.0.0/16"), unaligned}, AdminDistance: 90}
	set.RIP = &RIPConfig{Networks: []network.Prefix{pfx("10.0.1.0/24")}, AdminDistance: 100,
		Redistribute: []Redistribution{{From: Static}}}
	set.BGP = &BGPConfig{ASN: 65001, RouterID: network.MustParseIP("1.2.3.4"), AdminDistance: 30}

	defaults := NewRouter("defaults")
	defaults.Interfaces = []*Interface{up}
	defaults.OSPF = &OSPFConfig{Networks: []network.Prefix{pfx("10.0.0.0/8")},
		Redistribute: []Redistribution{{From: Connected}}}
	defaults.RIP = &RIPConfig{}
	defaults.BGP = &BGPConfig{ASN: 65002, Redistribute: []Redistribution{{From: OSPF}}}

	for _, tc := range []struct {
		name      string
		got, want any
	}{
		{"static default", set.Statics[1].Distance(), 1},
		{"static override", set.Statics[0].Distance(), 7},
		{"ospf default", defaults.OSPFDistance(), 110},
		{"ospf unconfigured", bare.OSPFDistance(), 110},
		{"ospf override", set.OSPFDistance(), 90},
		{"rip default", defaults.RIPDistance(), 120},
		{"rip unconfigured", bare.RIPDistance(), 120},
		{"rip override", set.RIPDistance(), 100},
		{"ebgp default", defaults.BGPDistance(false), 20},
		{"ibgp default", defaults.BGPDistance(true), 200},
		{"bgp unconfigured", bare.BGPDistance(true), 200},
		{"ebgp override", set.BGPDistance(false), 30},
		{"ibgp override", set.BGPDistance(true), 30},

		{"router id configured", set.RouterID(4), uint32(network.MustParseIP("1.2.3.4"))},
		{"router id fallback", defaults.RouterID(4), uint32(5)},
		{"router id without bgp", bare.RouterID(0), uint32(1)},

		{"owns up interface", set.Owns(up.Prefix), true},
		{"owns shutdown interface", set.Owns(down.Prefix), false},
		{"owns static", set.Owns(pfx("172.16.0.0/12")), true},
		{"owns a covered prefix", set.Owns(pfx("10.0.1.0/25")), false},

		{"ospf covers", set.RunsOSPF(up), true},
		{"ospf shutdown", set.RunsOSPF(down), false},
		{"ospf unaligned equal", set.RunsOSPF(odd), true},
		{"ospf unaligned covers nothing", set.RunsOSPF(other), false},
		{"ospf unconfigured", bare.RunsOSPF(up), false},
		{"rip exact", set.RunsRIP(up), true},
		{"rip uncovered", set.RunsRIP(other), false},
		{"rip without networks", defaults.RunsRIP(up), false},

		{"seed into ospf", Redistribution{}.SeedMetric(OSPF), 20},
		{"seed into rip", Redistribution{}.SeedMetric(RIP), 1},
		{"seed into bgp", Redistribution{}.SeedMetric(BGP), 0},
		{"seed configured", Redistribution{Metric: 5}.SeedMetric(OSPF), 5},

		{"redistributes static", set.Redistributes(), true},
		{"static is not dynamic", set.RedistributesDynamic(), false},
		{"redistributes connected and ospf", defaults.Redistributes(), true},
		{"ospf is dynamic", defaults.RedistributesDynamic(), true},
		{"no redistribution", bare.Redistributes(), false},
		{"no dynamic redistribution", bare.RedistributesDynamic(), false},

		{"loop via statics and redistribution", set.MayLoop(), true},
		{"loop via redistribution", defaults.MayLoop(), true},
		{"no loop", bare.MayLoop(), false},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}

	// Each dynamic source counts on its own; a static-only router loops.
	for _, from := range []Protocol{OSPF, RIP, BGP} {
		r := NewRouter("r")
		r.RIP = &RIPConfig{Redistribute: []Redistribution{{From: from}}}
		if !r.RedistributesDynamic() {
			t.Errorf("redistribution from %v is dynamic", from)
		}
	}
	statics := NewRouter("statics")
	statics.Statics = []*StaticRoute{{Prefix: pfx("0.0.0.0/0")}}
	if !statics.MayLoop() || statics.Redistributes() {
		t.Error("statics alone may loop and redistribute nothing")
	}
}
