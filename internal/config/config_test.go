package config

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/network"
)

const sampleR1 = `
hostname R1
!
interface GigabitEthernet0/0
 ip address 10.0.12.1 255.255.255.0
 ip ospf cost 10
!
interface GigabitEthernet0/1
 ip address 10.0.13.1 255.255.255.0
!
interface Loopback0
 ip address 192.168.1.1 255.255.255.255
 management
!
interface Serial0/0
 ip address 10.1.1.1 255.255.255.252
!
router ospf 1
 network 10.0.12.0 0.0.0.255 area 0
 network 10.0.13.0 0.0.0.255 area 0
 redistribute bgp metric 20
 maximum-paths 4
!
router bgp 65001
 bgp router-id 1.1.1.1
 neighbor 10.1.1.2 remote-as 65100
 neighbor 10.1.1.2 description N1
 neighbor 10.1.1.2 route-map IMPORT in
 neighbor 10.1.1.2 route-map EXPORT out
 neighbor 10.0.12.2 remote-as 65001
 network 192.168.1.1 mask 255.255.255.255
 redistribute ospf
!
ip route 172.16.0.0 255.255.0.0 10.0.12.2
ip route 172.17.0.0 255.255.0.0 null0
!
ip prefix-list BOGONS seq 5 deny 192.168.0.0/16 le 32
ip prefix-list BOGONS seq 10 permit 0.0.0.0/0 le 32
!
ip community-list CUST permit 65001:100
!
route-map IMPORT permit 10
 match ip address prefix-list BOGONS
 set local-preference 120
 set community 65001:100 additive
!
route-map EXPORT permit 10
 set med 50
!
access-list 101 deny ip any host 172.18.0.1
access-list 101 permit ip any any
`

func TestParseSample(t *testing.T) {
	r, err := Parse(sampleR1)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if r.Name != "R1" {
		t.Fatalf("hostname %q", r.Name)
	}
	if len(r.Interfaces) != 4 {
		t.Fatalf("interfaces: %d", len(r.Interfaces))
	}
	gi := r.Iface("GigabitEthernet0/0")
	if gi == nil || gi.OSPFCost != 10 {
		t.Fatalf("gi0/0 = %+v", gi)
	}
	if gi.Prefix.String() != "10.0.12.0/24" || gi.Addr.String() != "10.0.12.1" {
		t.Fatalf("gi0/0 addressing %v %v", gi.Prefix, gi.Addr)
	}
	lo := r.Iface("Loopback0")
	if lo == nil || !lo.Management || lo.Prefix.Len != 32 {
		t.Fatalf("loopback %+v", lo)
	}
	if len(r.ManagementInterfaces()) != 1 {
		t.Fatal("management interface count")
	}

	if r.OSPF == nil || len(r.OSPF.Networks) != 2 || r.OSPF.MaxPaths != 4 {
		t.Fatalf("ospf %+v", r.OSPF)
	}
	if len(r.OSPF.Redistribute) != 1 || r.OSPF.Redistribute[0].From != BGP || r.OSPF.Redistribute[0].Metric != 20 {
		t.Fatalf("ospf redistribute %+v", r.OSPF.Redistribute)
	}

	if r.BGP == nil || r.BGP.ASN != 65001 || r.BGP.RouterID.String() != "1.1.1.1" {
		t.Fatalf("bgp %+v", r.BGP)
	}
	if len(r.BGP.Neighbors) != 2 {
		t.Fatalf("neighbors %d", len(r.BGP.Neighbors))
	}
	n1 := FindBGPNeighbor(r, network.MustParseIP("10.1.1.2"))
	if n1 == nil || n1.RemoteAS != 65100 || n1.InMap != "IMPORT" || n1.OutMap != "EXPORT" || n1.Description != "N1" {
		t.Fatalf("n1 %+v", n1)
	}
	ib := FindBGPNeighbor(r, network.MustParseIP("10.0.12.2"))
	if ib == nil || !ib.IsInternal(r.BGP.ASN) {
		t.Fatalf("iBGP neighbor %+v", ib)
	}

	if len(r.Statics) != 2 || r.Statics[0].NextHop.String() != "10.0.12.2" || !r.Statics[1].Drop {
		t.Fatalf("statics %+v", r.Statics)
	}

	pl := r.PrefixLists["BOGONS"]
	if pl == nil || len(pl.Entries) != 2 || pl.Entries[0].Action != Deny || pl.Entries[0].Le != 32 {
		t.Fatalf("prefix list %+v", pl)
	}

	rm := r.RouteMaps["IMPORT"]
	if rm == nil || len(rm.Clauses) != 1 {
		t.Fatalf("route map %+v", rm)
	}
	cl := rm.Clauses[0]
	if cl.MatchPrefixList != "BOGONS" || cl.SetLocalPref != 120 || len(cl.SetCommunity) != 1 {
		t.Fatalf("clause %+v", cl)
	}
	if r.RouteMaps["EXPORT"].Clauses[0].SetMED != 50 {
		t.Fatal("export med")
	}

	acl := r.ACLs["101"]
	if acl == nil || len(acl.Entries) != 2 {
		t.Fatalf("acl %+v", acl)
	}
	if acl.Entries[0].Action != Deny || acl.Entries[0].DstPrefix.String() != "172.18.0.1/32" {
		t.Fatalf("acl entry %+v", acl.Entries[0])
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	r1, err := Parse(sampleR1)
	if err != nil {
		t.Fatal(err)
	}
	text := Print(r1)
	r2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse printed config: %v\n%s", err, text)
	}
	if Print(r2) != text {
		t.Fatal("print is not a fixed point of parse∘print")
	}
}

func TestLinesCountsNonEmpty(t *testing.T) {
	r := MustParse(sampleR1)
	n := Lines(r)
	if n < 30 {
		t.Fatalf("suspicious line count %d", n)
	}
	if TotalLines([]*Router{r, r}) != 2*n {
		t.Fatal("TotalLines")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text string
		// msg, when set, is the ParseError the text must be refused with.
		msg string
	}{
		{name: "no hostname", text: "interface Eth0\n ip address 10.0.0.1 255.255.255.0\n"},
		{name: "bad ip", text: "hostname R\ninterface E0\n ip address 10.0.0.300 255.255.255.0\n"},
		{name: "bad mask", text: "hostname R\ninterface E0\n ip address 10.0.0.1 255.0.255.0\n"},
		{name: "unknown directive", text: "hostname R\nfrobnicate\n"},
		{name: "unknown iface directive", text: "hostname R\ninterface E0\n ip address 10.0.0.1 255.255.255.0\n spanning-tree on\n"},
		{name: "bad asn", text: "hostname R\nrouter bgp banana\n"},
		{name: "neighbor before remote-as", text: "hostname R\nrouter bgp 1\n neighbor 10.0.0.2 route-map M in\n"},
		{name: "undefined route map", text: "hostname R\ninterface E0\n ip address 10.0.1.1 255.255.255.0\nrouter bgp 1\n neighbor 10.0.1.2 remote-as 2\n neighbor 10.0.1.2 route-map NOPE in\n"},
		{name: "undefined acl", text: "hostname R\ninterface E0\n ip address 10.0.0.1 255.255.255.0\n ip access-group NOPE in\n"},
		{name: "prefix list ge below len", text: "hostname R\nip prefix-list L permit 10.0.0.0/16 ge 8\n"},
		{name: "dup interface", text: "hostname R\ninterface E0\n ip address 10.0.0.1 255.255.255.0\ninterface E0\n ip address 10.0.1.1 255.255.255.0\n"},
		{name: "dup bgp neighbor", text: "hostname R\ninterface E0\n ip address 10.0.0.1 255.255.255.0\nrouter bgp 1\n neighbor 10.0.0.2 remote-as 2\n neighbor 10.0.0.2 remote-as 3\n"},
		// A directive cut short of an argument it reads: each of these
		// indexed past the line's fields and panicked.
		{name: "ospf maximum-paths, no value", text: "hostname r\nrouter ospf\n maximum-paths", msg: "bad maximum-paths"},
		{name: "ospf distance, no value", text: "hostname r\nrouter ospf\n distance", msg: "bad distance"},
		{name: "rip network, no prefix", text: "hostname r\nrouter rip\n network", msg: "network PREFIX"},
		{name: "bgp router-id, no address", text: "hostname r\nrouter bgp 1\n bgp router-id", msg: "bgp router-id A.B.C.D"},
		{name: "bgp maximum-paths, no value", text: "hostname r\nrouter bgp 1\n maximum-paths", msg: "bad maximum-paths"},
		{name: "bgp distance, no value", text: "hostname r\nrouter bgp 1\n distance", msg: "bad distance"},
		{name: "set local-preference, no value", text: "hostname r\nroute-map M permit 10\n set local-preference", msg: "set local-preference needs a value"},
		{name: "set metric, no value", text: "hostname r\nroute-map M permit 10\n set metric", msg: "set metric needs a value"},
		{name: "set med, no value", text: "hostname r\nroute-map M permit 10\n set med", msg: "set med needs a value"},
		{name: "set ip next-hop, no address", text: "hostname r\nroute-map M permit 10\n set ip next-hop", msg: "set ip next-hop A.B.C.D"},
		{name: "maximum-paths, trailing tokens", text: "hostname r\nrouter ospf\n maximum-paths 4 5", msg: "bad maximum-paths"},
	}
	for _, c := range cases {
		_, err := Parse(c.text)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		var pe *ParseError
		if c.msg != "" && (!errors.As(err, &pe) || pe.Msg != c.msg) {
			t.Errorf("%s: got %v, want a ParseError saying %q", c.name, err, c.msg)
		}
	}
}

func TestPrefixListSemantics(t *testing.T) {
	e := PrefixListEntry{Action: Permit, Prefix: network.MustParsePrefix("192.168.0.0/16"), Ge: 24, Le: 32}
	cases := []struct {
		p    string
		want bool
	}{
		{"192.168.1.0/24", true},
		{"192.168.0.0/16", false}, // length below ge
		{"192.168.1.128/25", true},
		{"192.168.1.1/32", true},
		{"10.0.0.0/24", false}, // first bits differ
	}
	for _, c := range cases {
		if got := e.Matches(network.MustParsePrefix(c.p)); got != c.want {
			t.Errorf("match %s = %v, want %v", c.p, got, c.want)
		}
	}

	// Unset ge/le means exact length.
	exact := PrefixListEntry{Action: Permit, Prefix: network.MustParsePrefix("10.0.0.0/8")}
	if !exact.Matches(network.MustParsePrefix("10.0.0.0/8")) {
		t.Error("exact match failed")
	}
	if exact.Matches(network.MustParsePrefix("10.1.0.0/16")) {
		t.Error("longer prefix matched exact entry")
	}

	// le without ge: lengths from Prefix.Len to le.
	le := PrefixListEntry{Action: Permit, Prefix: network.MustParsePrefix("0.0.0.0/0"), Le: 32}
	if !le.Matches(network.MustParsePrefix("1.2.3.0/24")) {
		t.Error("default le 32 should match everything")
	}

	l := &PrefixList{Entries: []PrefixListEntry{
		{Action: Deny, Prefix: network.MustParsePrefix("192.168.0.0/16"), Le: 32},
		{Action: Permit, Prefix: network.MustParsePrefix("0.0.0.0/0"), Le: 32},
	}}
	if l.Permits(network.MustParsePrefix("192.168.5.0/24")) {
		t.Error("bogon permitted")
	}
	if !l.Permits(network.MustParsePrefix("8.8.8.0/24")) {
		t.Error("normal prefix denied")
	}
	empty := &PrefixList{}
	if empty.Permits(network.MustParsePrefix("8.8.8.0/24")) {
		t.Error("implicit deny violated")
	}

	// The hoisted reading: an unmasked destination address with a
	// record's length. The first bits are read from the destination, the
	// ge/le bounds from the length alone.
	dst := network.MustParseIP("192.168.1.77")
	for _, c := range []struct {
		plen int
		want bool
	}{
		{24, true},
		{16, false}, // length below ge, whatever the address
		{32, true},
	} {
		if got := e.Matches(network.Prefix{Addr: dst, Len: c.plen}); got != c.want {
			t.Errorf("match %v/%d = %v, want %v", dst, c.plen, got, c.want)
		}
	}
	if e.Matches(network.Prefix{Addr: network.MustParseIP("10.1.2.3"), Len: 24}) {
		t.Error("unmasked destination outside the entry matched")
	}
	if l.Permits(network.Prefix{Addr: dst, Len: 24}) {
		t.Error("unmasked bogon destination permitted")
	}
	if !l.Permits(network.Prefix{Addr: network.MustParseIP("8.8.8.8"), Len: 24}) {
		t.Error("unmasked normal destination denied")
	}
}

func TestACLSemantics(t *testing.T) {
	acl := &ACL{Entries: []ACLEntry{
		{Action: Deny, DstPrefix: network.MustParsePrefix("172.16.1.0/24"), Protocol: -1, SrcPortHi: 65535, DstPortHi: 65535},
		{Action: Permit, Protocol: 6, SrcPortHi: 65535, DstPortLo: 80, DstPortHi: 80},
		AnyACLEntry(Deny),
	}}
	deny1 := Packet{DstIP: network.MustParseIP("172.16.1.7"), Protocol: 6, DstPort: 80}
	if acl.Permits(deny1) {
		t.Error("blocked subnet permitted")
	}
	ok := Packet{DstIP: network.MustParseIP("8.8.8.8"), Protocol: 6, DstPort: 80}
	if !acl.Permits(ok) {
		t.Error("web traffic denied")
	}
	udp := Packet{DstIP: network.MustParseIP("8.8.8.8"), Protocol: 17, DstPort: 80}
	if acl.Permits(udp) {
		t.Error("udp should fall through to deny")
	}
}

// TestRouterPermits: an interface's filter applies in its direction only,
// and no interface, no ACL name or an unknown ACL permits.
func TestRouterPermits(t *testing.T) {
	r := NewRouter("R")
	r.ACLs["none"] = &ACL{Entries: []ACLEntry{AnyACLEntry(Deny)}}
	r.Interfaces = []*Interface{
		{Name: "in", InACL: "none"},
		{Name: "out", OutACL: "none"},
		{Name: "ghost", InACL: "missing", OutACL: "missing"},
	}
	pkt := Packet{DstIP: network.MustParseIP("8.8.8.8")}
	for _, c := range []struct {
		iface   string
		inbound bool
		want    bool
	}{
		{"in", true, false}, {"in", false, true},
		{"out", false, false}, {"out", true, true},
		{"ghost", true, true}, {"unknown", false, true}, {"", true, true},
	} {
		if got := r.Permits(c.iface, c.inbound, pkt); got != c.want {
			t.Errorf("Permits(%q, inbound=%v) = %v, want %v", c.iface, c.inbound, got, c.want)
		}
	}
}

func TestOriginatedPrefixes(t *testing.T) {
	r := MustParse(sampleR1)
	ps := r.OriginatedPrefixes()
	want := map[string]bool{}
	for _, p := range ps {
		want[p.String()] = true
	}
	for _, expect := range []string{"10.0.12.0/24", "10.0.13.0/24", "192.168.1.1/32", "172.16.0.0/16", "172.17.0.0/16", "10.1.1.0/30"} {
		if !want[expect] {
			t.Errorf("missing originated prefix %s (have %v)", expect, ps)
		}
	}
}

const sampleR2 = `
hostname R2
!
interface GigabitEthernet0/0
 ip address 10.0.12.2 255.255.255.0
!
router ospf 1
 network 10.0.12.0 0.0.0.255 area 0
!
router bgp 65001
 neighbor 10.0.12.1 remote-as 65001
!
`

func TestBuildTopology(t *testing.T) {
	r1 := MustParse(sampleR1)
	r2 := MustParse(sampleR2)
	topo, err := BuildTopology([]*Router{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Nodes) != 2 {
		t.Fatalf("nodes %d", len(topo.Nodes))
	}
	l := topo.FindLink("R1", "R2")
	if l == nil {
		t.Fatal("missing R1-R2 link")
	}
	if l.Subnet.String() != "10.0.12.0/24" {
		t.Fatalf("link subnet %v", l.Subnet)
	}
	// External neighbor of R1 at 10.1.1.2.
	exts := topo.ExternalsOf(topo.Node("R1"))
	if len(exts) != 1 || exts[0].Name != "N1" || exts[0].ASN != 65100 {
		t.Fatalf("externals %+v", exts)
	}
	if !topo.Connected() {
		t.Fatal("topology should be connected")
	}
	// Neighbor address on no subnet is an error.
	bad := MustParse(strings.Replace(sampleR2, "neighbor 10.0.12.1", "neighbor 99.9.9.9", 1))
	if _, err := BuildTopology([]*Router{r1, bad}); err == nil {
		t.Fatal("expected error for unreachable neighbor")
	}
	// Duplicate address across routers is an error.
	dup := MustParse(strings.Replace(sampleR2, "10.0.12.2", "10.0.12.1", 1))
	if _, err := BuildTopology([]*Router{r1, dup}); err == nil {
		t.Fatal("expected duplicate-address error")
	}
}

func TestProtocolsAndDefaults(t *testing.T) {
	r := MustParse(sampleR1)
	ps := r.Protocols()
	if len(ps) != 4 || ps[0] != Connected {
		t.Fatalf("protocols %v", ps)
	}
	if DefaultAdminDistance(Connected) != 0 || DefaultAdminDistance(Static) != 1 ||
		DefaultAdminDistance(OSPF) != 110 || DefaultAdminDistance(BGP) != 20 {
		t.Fatal("admin distances")
	}
	if Connected.String() != "connected" || BGP.String() != "bgp" {
		t.Fatal("protocol strings")
	}
}

func TestAggregateParsing(t *testing.T) {
	r := MustParse(`
hostname R
!
interface E0
 ip address 10.0.0.1 255.255.255.0
!
router bgp 65001
 neighbor 10.0.0.2 remote-as 65002
 aggregate-address 10.0.0.0 255.0.0.0 summary-only
 aggregate-address 172.16.0.0 255.240.0.0
!
`)
	if len(r.BGP.Aggregates) != 2 {
		t.Fatalf("aggregates %+v", r.BGP.Aggregates)
	}
	if !r.BGP.Aggregates[0].SummaryOnly || r.BGP.Aggregates[0].Prefix.String() != "10.0.0.0/8" {
		t.Fatalf("first aggregate %+v", r.BGP.Aggregates[0])
	}
	if r.BGP.Aggregates[1].SummaryOnly || r.BGP.Aggregates[1].Prefix.Len != 12 {
		t.Fatalf("second aggregate %+v", r.BGP.Aggregates[1])
	}
	// Round trip.
	again := MustParse(Print(r))
	if len(again.BGP.Aggregates) != 2 || Print(again) != Print(r) {
		t.Fatal("aggregate round trip")
	}
	// Bad options rejected.
	if _, err := Parse("hostname R\nrouter bgp 1\n aggregate-address 10.0.0.0 255.0.0.0 frob\n"); err == nil {
		t.Fatal("bad aggregate option accepted")
	}
}
