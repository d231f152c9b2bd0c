package network

import (
	"testing"
	"testing/quick"
)

func TestParseIP(t *testing.T) {
	cases := []struct {
		s    string
		want uint32
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xFFFFFFFF, true},
		{"10.0.0.1", 0x0A000001, true},
		{"192.168.1.2", 0xC0A80102, true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.1", 0, false},
		{"1.2.3.x", 0, false},
		{"01.2.3.4", 0, false},
		{"-1.2.3.4", 0, false},
	}
	for _, c := range cases {
		got, err := ParseIP(c.s)
		if (err == nil) != c.ok {
			t.Errorf("ParseIP(%q) err=%v, want ok=%v", c.s, err, c.ok)
			continue
		}
		if c.ok && uint32(got) != c.want {
			t.Errorf("ParseIP(%q) = %x, want %x", c.s, uint32(got), c.want)
		}
	}
}

func TestIPStringRoundTrip(t *testing.T) {
	err := quick.Check(func(x uint32) bool {
		ip := IP(x)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("10.1.2.3/24")
	if p.Addr.String() != "10.1.2.0" || p.Len != 24 {
		t.Fatalf("canonicalization: %v", p)
	}
	if _, err := ParsePrefix("10.0.0.0"); err == nil {
		t.Fatal("missing /len accepted")
	}
	if _, err := ParsePrefix("10.0.0.0/33"); err == nil {
		t.Fatal("bad length accepted")
	}
	if p.String() != "10.1.2.0/24" {
		t.Fatalf("string %q", p)
	}
}

func TestMasks(t *testing.T) {
	if MaskOf(0) != 0 || MaskOf(32) != 0xFFFFFFFF || MaskOf(24) != 0xFFFFFF00 {
		t.Fatal("MaskOf")
	}
	if l, ok := MaskLen(MustParseIP("255.255.255.0")); !ok || l != 24 {
		t.Fatal("MaskLen /24")
	}
	if l, ok := MaskLen(MustParseIP("255.255.255.252")); !ok || l != 30 {
		t.Fatal("MaskLen /30")
	}
	if _, ok := MaskLen(MustParseIP("255.0.255.0")); ok {
		t.Fatal("non-contiguous accepted")
	}
	if l, ok := WildcardLen(MustParseIP("0.0.0.255")); !ok || l != 24 {
		t.Fatal("WildcardLen")
	}
	// MaskOf and MaskLen are inverses.
	for l := 0; l <= 32; l++ {
		got, ok := MaskLen(MaskOf(l))
		if !ok || got != l {
			t.Fatalf("MaskLen(MaskOf(%d)) = %d,%v", l, got, ok)
		}
	}
}

func TestContainsCoversOverlaps(t *testing.T) {
	p16 := MustParsePrefix("172.16.0.0/16")
	p24 := MustParsePrefix("172.16.5.0/24")
	other := MustParsePrefix("10.0.0.0/8")
	if !p16.Contains(MustParseIP("172.16.200.1")) {
		t.Fatal("contains")
	}
	if p16.Contains(MustParseIP("172.17.0.1")) {
		t.Fatal("contains false positive")
	}
	if !p16.Covers(p24) || p24.Covers(p16) {
		t.Fatal("covers")
	}
	if !p16.Overlaps(p24) || !p24.Overlaps(p16) || p16.Overlaps(other) {
		t.Fatal("overlaps")
	}
	def := MustParsePrefix("0.0.0.0/0")
	if !def.IsDefault() || !def.Contains(MustParseIP("1.2.3.4")) {
		t.Fatal("default route")
	}
	if p24.First().String() != "172.16.5.0" || p24.Last().String() != "172.16.5.255" {
		t.Fatalf("range %v-%v", p24.First(), p24.Last())
	}
	host := MustParsePrefix("1.2.3.4/32")
	if host.First() != host.Last() {
		t.Fatal("host range")
	}
}

func buildTestTopology() *Topology {
	t := NewTopology([]string{"R1", "R2", "R3"})
	t.AddLink("R1", "e0", "R2", "e0", MustParsePrefix("10.0.12.0/24"),
		MustParseIP("10.0.12.1"), MustParseIP("10.0.12.2"))
	t.AddLink("R1", "e1", "R3", "e0", MustParsePrefix("10.0.13.0/24"),
		MustParseIP("10.0.13.1"), MustParseIP("10.0.13.3"))
	t.AddExternal("R1", "s0", "N1", MustParseIP("10.1.1.2"), MustParseIP("10.1.1.1"), 65100)
	return t
}

func TestTopologyQueries(t *testing.T) {
	topo := buildTestTopology()
	r1 := topo.Node("R1")
	if r1 == nil || r1.Name != "R1" {
		t.Fatal("node lookup")
	}
	if topo.Node("nope") != nil {
		t.Fatal("phantom node")
	}
	if len(topo.LinksOf(r1)) != 2 || len(topo.LinksOf(topo.Node("R2"))) != 1 {
		t.Fatal("links of")
	}
	if len(topo.Neighbors(r1)) != 2 {
		t.Fatal("neighbors")
	}
	l := topo.FindLink("R2", "R1")
	if l == nil {
		t.Fatal("find link reversed")
	}
	if l.Peer(r1).Name != "R2" || l.Peer(topo.Node("R2")).Name != "R1" {
		t.Fatal("peer")
	}
	if l.Peer(topo.Node("R3")) != nil {
		t.Fatal("peer of non-endpoint")
	}
	if l.IfaceOf(r1) != "e0" || l.AddrOf(r1).String() != "10.0.12.1" {
		t.Fatal("iface/addr of")
	}
	if len(topo.ExternalsOf(r1)) != 1 || len(topo.ExternalsOf(topo.Node("R2"))) != 0 {
		t.Fatal("externals of")
	}
	if topo.ExternalIface(r1, "N1") != "s0" || topo.ExternalIface(r1, "N2") != "" || topo.ExternalIface(topo.Node("R2"), "N1") != "" {
		t.Fatal("external iface")
	}
	if !topo.Connected() {
		t.Fatal("connected")
	}
}

func TestDisconnected(t *testing.T) {
	topo := NewTopology([]string{"A", "B"})
	if topo.Connected() {
		t.Fatal("two isolated nodes reported connected")
	}
	if !NewTopology(nil).Connected() {
		t.Fatal("empty topology should be connected")
	}
}

func TestDuplicateRouterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTopology([]string{"A", "A"})
}
