package topogen

import (
	"testing"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/protograph"
	"repro/internal/simulator"
)

func build(t *testing.T, k int) (*FatTree, *protograph.Graph) {
	t.Helper()
	ft, err := Generate(k)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := config.BuildTopology(ft.Routers)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*config.Router{}
	for _, r := range ft.Routers {
		byName[r.Name] = r
	}
	g, err := protograph.Build(topo, byName)
	if err != nil {
		t.Fatal(err)
	}
	return ft, g
}

func TestSizesMatchPaper(t *testing.T) {
	// Figure 8's series: routers (pods).
	want := map[int]int{2: 5, 6: 45, 10: 125, 14: 245, 18: 405}
	for k, n := range want {
		if NumRouters(k) != n {
			t.Fatalf("NumRouters(%d) = %d, want %d", k, NumRouters(k), n)
		}
	}
	ft, _ := build(t, 2)
	if len(ft.Routers) != 5 {
		t.Fatalf("k=2 has %d routers", len(ft.Routers))
	}
	ft4, _ := build(t, 4)
	if len(ft4.Routers) != NumRouters(4) {
		t.Fatalf("k=4 has %d routers, want %d", len(ft4.Routers), NumRouters(4))
	}
}

func TestRejectsOddPods(t *testing.T) {
	if _, err := Generate(3); err == nil {
		t.Fatal("odd k accepted")
	}
	if _, err := Generate(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestTopologyShape(t *testing.T) {
	ft, g := build(t, 4)
	if !g.Topo.Connected() {
		t.Fatal("fabric not connected")
	}
	// k=4: 4 pods × (2 ToR + 2 agg) + 4 cores = 20 routers; ToR-agg links
	// 4*2*2=16, agg-core 4*2*2=16.
	if len(g.Topo.Links) != 32 {
		t.Fatalf("links = %d, want 32", len(g.Topo.Links))
	}
	// One external per core.
	if len(g.Topo.Externals) != 4 {
		t.Fatalf("externals = %d", len(g.Topo.Externals))
	}
	// All sessions are eBGP (every router in its own AS).
	for _, s := range g.Sessions {
		if s.Kind == protograph.IBGP {
			t.Fatal("unexpected iBGP session")
		}
	}
	_ = ft
}

func TestFabricRoutes(t *testing.T) {
	ft, g := build(t, 4)
	sim := simulator.New(g)
	dst := network.MustParseIP("10.2.1.10") // pod 2, ToR 1 subnet
	res, err := sim.Run(dst, simulator.NewEnvironment())
	if err != nil {
		t.Fatal(err)
	}
	// Every ToR reaches the destination subnet, within 4 hops, and
	// cross-pod ToRs use ECMP over both aggs.
	for p, pod := range ft.ToRs {
		for _, tor := range pod {
			if tor == ToRName(2, 1) {
				continue
			}
			w := sim.Walk(res, tor, config.Packet{DstIP: dst, Protocol: 6})
			if !w.AllDelivered() {
				t.Fatalf("%s: %v", tor, w)
			}
			if w.MaxHops > 4 {
				t.Fatalf("%s: path length %d exceeds 4", tor, w.MaxHops)
			}
			if p != 2 && len(res.States[tor].Hops) != 2 {
				t.Fatalf("%s: expected ECMP over 2 aggs, got %v", tor, res.States[tor].Hops)
			}
		}
	}
	// The externally announced default route reaches ToRs through cores.
	env := simulator.NewEnvironment()
	for c := range ft.Cores {
		env.Announce(BackboneName(c), simulator.Announcement{
			Prefix: network.MustParsePrefix("0.0.0.0/0"), PathLen: 2,
		})
	}
	ext := network.MustParseIP("8.8.8.8")
	res2, err := sim.Run(ext, env)
	if err != nil {
		t.Fatal(err)
	}
	w := sim.Walk(res2, ToRName(0, 0), config.Packet{DstIP: ext, Protocol: 6})
	if !w.Outcomes[simulator.Exited] {
		t.Fatalf("default route should lead out: %v", w)
	}
	// The inbound filter blocks fabric-space hijacks at the border.
	hijackEnv := simulator.NewEnvironment().Announce(BackboneName(0), simulator.Announcement{
		Prefix: network.MustParsePrefix("10.2.1.0/25"), PathLen: 1,
	})
	res3, err := sim.Run(network.MustParseIP("10.2.1.10"), hijackEnv)
	if err != nil {
		t.Fatal(err)
	}
	w3 := sim.Walk(res3, ToRName(0, 0), config.Packet{DstIP: dst, Protocol: 6})
	if !w3.AllDelivered() {
		t.Fatalf("hijack of fabric space should be filtered: %v", w3)
	}
}

func TestGeneratedConfigsRoundTrip(t *testing.T) {
	ft, _ := build(t, 2)
	for _, r := range ft.Routers {
		text := config.Print(r)
		if _, err := config.Parse(text); err != nil {
			t.Fatalf("%s: print∘parse: %v", r.Name, err)
		}
	}
	if lines := config.TotalLines(ft.Routers); lines < 50 {
		t.Fatalf("suspicious config size %d", lines)
	}
}

// TestASNsAvoidBackbone pins the fabric ASN allocator away from the
// backbone AS: at 1280 routers the sequential counter walks straight
// through 65000, and a fabric router in the backbone's AS makes every
// adjacent core see two neighbors in one AS — silently activating MED
// comparison (and the modular pipeline's "med" residue) fabric-wide.
func TestASNsAvoidBackbone(t *testing.T) {
	if testing.Short() {
		t.Skip("k=32 generation is a few seconds")
	}
	ft, err := Generate(32)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]string{}
	for _, r := range ft.Routers {
		if r.BGP == nil {
			t.Fatalf("%s: no BGP stanza", r.Name)
		}
		asn := r.BGP.ASN
		if asn == backboneASN {
			t.Fatalf("%s allocated the backbone AS %d", r.Name, backboneASN)
		}
		if prev, dup := seen[asn]; dup {
			t.Fatalf("AS %d allocated twice: %s and %s", asn, prev, r.Name)
		}
		seen[asn] = r.Name
	}
}

// TestGenerateDeterministic pins byte-identical regeneration: modular
// partition hashes, contract IDs and the daemon's config hashes are
// derived from these configurations, so any nondeterminism here (map
// iteration leaking into emission order, unstable addressing) would break
// verdict caching and isomorphism aliasing across runs.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Routers) != len(b.Routers) || len(a.Routers) != 20 {
		t.Fatalf("routers = %d / %d, want 20", len(a.Routers), len(b.Routers))
	}
	for i := range a.Routers {
		if at, bt := config.Print(a.Routers[i]), config.Print(b.Routers[i]); at != bt {
			t.Fatalf("router %d (%s) regenerated differently:\n%s\nvs\n%s", i, a.Routers[i].Name, at, bt)
		}
	}
}
