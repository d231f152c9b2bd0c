package protograph

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/topogen"
)

func build(t *testing.T, texts ...string) *Graph {
	t.Helper()
	var list []*config.Router
	byName := map[string]*config.Router{}
	for _, x := range texts {
		r, err := config.Parse(x)
		if err != nil {
			t.Fatal(err)
		}
		list = append(list, r)
		byName[r.Name] = r
	}
	topo, err := config.BuildTopology(list)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(topo, byName)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const pgR1 = `
hostname R1
!
interface Eth0
 ip address 10.0.12.1 255.255.255.252
 ip ospf cost 5
!
interface Loopback0
 ip address 192.168.0.1 255.255.255.255
!
interface Serial0
 ip address 10.9.1.1 255.255.255.252
!
router ospf 1
 network 10.0.12.0 0.0.0.3 area 0
 network 192.168.0.1 0.0.0.0 area 0
!
router bgp 65001
 neighbor 10.9.1.2 remote-as 65100
 neighbor 10.9.1.2 description N1
 neighbor 192.168.0.2 remote-as 65001
!
`

const pgR2 = `
hostname R2
!
interface Eth0
 ip address 10.0.12.2 255.255.255.252
 ip ospf cost 7
!
interface Loopback0
 ip address 192.168.0.2 255.255.255.255
!
router ospf 1
 network 10.0.12.0 0.0.0.3 area 0
 network 192.168.0.2 0.0.0.0 area 0
!
router bgp 65001
 neighbor 192.168.0.1 remote-as 65001
!
`

func TestDecomposition(t *testing.T) {
	g := build(t, pgR1, pgR2)

	// Instances: R1 has connected+ospf+bgp, R2 likewise.
	var names []string
	for _, i := range g.Instances {
		names = append(names, i.String())
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"R1/ospf", "R1/bgp", "R1/connected", "R2/ospf"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing instance %s in %v", want, names)
		}
	}

	// One OSPF adjacency with per-side costs.
	if len(g.OSPFAdjs) != 1 {
		t.Fatalf("ospf adjacencies: %d", len(g.OSPFAdjs))
	}
	adj := g.OSPFAdjs[0]
	costR1, costR2 := adj.CostA, adj.CostB
	if adj.Link.A.Name == "R2" {
		costR1, costR2 = costR2, costR1
	}
	if costR1 != 5 || costR2 != 7 {
		t.Fatalf("costs %d/%d, want 5/7", costR1, costR2)
	}

	// Two sessions: one external eBGP at R1, one multihop iBGP.
	if len(g.Sessions) != 2 {
		t.Fatalf("sessions: %d", len(g.Sessions))
	}
	var ext, ibgp *BGPSession
	for _, s := range g.Sessions {
		switch s.Kind {
		case EBGPExternal:
			ext = s
		case IBGP:
			ibgp = s
		}
	}
	if ext == nil || ext.Ext.Name != "N1" || ext.A.Name != "R1" {
		t.Fatalf("external session %+v", ext)
	}
	if ibgp == nil || ibgp.Link != nil {
		t.Fatalf("iBGP session should be multihop: %+v", ibgp)
	}
	if ibgp.RemoteEnd(ibgp.A) != ibgp.B || ibgp.StanzaOf(ibgp.A) != ibgp.NbrAtA {
		t.Fatal("session accessors broken")
	}
	if len(g.IBGPSpeakers) != 2 {
		t.Fatalf("iBGP speakers %v", g.IBGPSpeakers)
	}
	if g.HasCustomLocalPref() {
		t.Fatal("no local-pref maps configured")
	}
	// Per-node views.
	r1 := g.Topo.Node("R1")
	if len(g.SessionsOf(r1)) != 2 || len(g.OSPFAdjsOf(r1)) != 1 {
		t.Fatal("per-node views")
	}
}

func TestSessionErrors(t *testing.T) {
	// A neighbor statement with no reciprocal stanza must be rejected.
	oneWay := strings.Replace(pgR2, " neighbor 192.168.0.1 remote-as 65001\n", "", 1)
	r1 := config.MustParse(pgR1)
	r2 := config.MustParse(oneWay)
	topo, err := config.BuildTopology([]*config.Router{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(topo, map[string]*config.Router{"R1": r1, "R2": r2}); err == nil {
		t.Fatal("one-way session accepted")
	}

	// AS mismatch must be rejected.
	badAS := strings.Replace(pgR2, "remote-as 65001", "remote-as 65009", 1)
	r2b := config.MustParse(badAS)
	topo2, err := config.BuildTopology([]*config.Router{r1, r2b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(topo2, map[string]*config.Router{"R1": r1, "R2": r2b}); err == nil {
		t.Fatal("AS mismatch accepted")
	}
}

const ripA = `
hostname A
!
interface Eth0
 ip address 10.0.1.1 255.255.255.252
!
router rip
 network 10.0.1.0/30
!
`

var ripB = strings.ReplaceAll(strings.Replace(ripA, "hostname A", "hostname B", 1), "10.0.1.1", "10.0.1.2")

func TestRIPAdjacency(t *testing.T) {
	g := build(t, ripA, ripB)
	if len(g.RIPAdjs) != 1 {
		t.Fatalf("rip adjacencies %d", len(g.RIPAdjs))
	}
	if len(g.RIPAdjsOf(g.Topo.Node("A"))) != 1 {
		t.Fatal("per-node rip view")
	}
}

func TestCustomLocalPrefDetection(t *testing.T) {
	r1 := strings.Replace(pgR1, "neighbor 192.168.0.2 remote-as 65001",
		`neighbor 192.168.0.2 remote-as 65001
 neighbor 192.168.0.2 route-map LP in`, 1) + `
route-map LP permit 10
 set local-preference 200
!
`
	g := build(t, r1, pgR2)
	if !g.HasCustomLocalPref() {
		t.Fatal("custom local-pref not detected")
	}
}

// scanOf is the per-router lookup as it was before the index: one pass
// over the whole list per call (nil matches nothing). It is the reference
// SessionsOf, OSPFAdjsOf and RIPAdjsOf are held to, element for element
// and in order.
func scanOf[T any](items []T, n *network.Node, ends func(T) (a, b *network.Node)) []T {
	var out []T
	for _, it := range items {
		if a, b := ends(it); n != nil && (a == n || b == n) {
			out = append(out, it)
		}
	}
	return out
}

// sameSeq: the same elements in the same order, and nil only for nil.
func sameSeq[T comparable](got, want []T) bool {
	return slices.Equal(got, want) && (got == nil) == (want == nil)
}

func TestPerRouterIndexMatchesScan(t *testing.T) {
	graphs := map[string]*Graph{"r1-r2": build(t, pgR1, pgR2), "rip": build(t, ripA, ripB)}
	fromRouters := func(name string, routers []*config.Router) {
		byName := map[string]*config.Router{}
		for _, r := range routers {
			byName[r.Name] = r
		}
		topo, err := config.BuildTopology(routers)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Build(topo, byName)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	for _, k := range []int{2, 4} {
		ft, err := topogen.Generate(k)
		if err != nil {
			t.Fatal(err)
		}
		fromRouters(fmt.Sprintf("pods-%d", k), ft.Routers)
	}
	for seed := int64(1); seed <= 12; seed++ { // OSPF cores with iBGP and eBGP sessions, 2-25 routers
		n, err := netgen.Generate(fmt.Sprintf("netgen-%d", seed), seed, netgen.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		fromRouters(n.Name, n.Routers)
	}
	other := graphs["pods-2"]
	sessions := 0
	for name, g := range graphs {
		// Every node of the graph, plus nodes it does not own: nil, a node
		// of another topology, a hand-built one.
		nodes := append([]*network.Node{nil, {Name: g.Topo.Nodes[0].Name}}, g.Topo.Nodes...)
		if g != other {
			nodes = append(nodes, other.Topo.Nodes...)
		}
		for _, n := range nodes {
			who := "<nil>"
			if n != nil {
				who = n.Name
			}
			want := scanOf(g.Sessions, n, func(s *BGPSession) (_, _ *network.Node) { return s.A, s.B })
			if got := g.SessionsOf(n); !sameSeq(got, want) {
				t.Errorf("%s: SessionsOf(%s) = %v, scan %v", name, who, got, want)
			}
			sessions += len(want)
			wantO := scanOf(g.OSPFAdjs, n, func(a *OSPFAdj) (_, _ *network.Node) { return a.Link.A, a.Link.B })
			if got := g.OSPFAdjsOf(n); !sameSeq(got, wantO) {
				t.Errorf("%s: OSPFAdjsOf(%s) = %v, scan %v", name, who, got, wantO)
			}
			wantR := scanOf(g.RIPAdjs, n, func(a *RIPAdj) (_, _ *network.Node) { return a.Link.A, a.Link.B })
			if got := g.RIPAdjsOf(n); !sameSeq(got, wantR) {
				t.Errorf("%s: RIPAdjsOf(%s) = %v, scan %v", name, who, got, wantR)
			}
		}
	}
	if sessions == 0 {
		t.Fatal("no session in any fixture: the comparison is vacuous")
	}
	g := graphs["pods-4"]
	n := g.Topo.Node("agg-0-0")
	if a := testing.AllocsPerRun(100, func() { _ = g.SessionsOf(n) }); a != 0 {
		t.Errorf("SessionsOf allocates %v times per call", a)
	}
}
