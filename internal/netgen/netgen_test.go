package netgen

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/properties"
	"repro/internal/protograph"
	"repro/internal/simulator"
)

func graphOf(t *testing.T, n *Network) *protograph.Graph {
	t.Helper()
	topo, err := config.BuildTopology(n.Routers)
	if err != nil {
		t.Fatalf("%s: topology: %v", n.Name, err)
	}
	byName := map[string]*config.Router{}
	for _, r := range n.Routers {
		byName[r.Name] = r
	}
	g, err := protograph.Build(topo, byName)
	if err != nil {
		t.Fatalf("%s: protograph: %v", n.Name, err)
	}
	return g
}

func TestPopulationParsesAndBuilds(t *testing.T) {
	pop, err := Population(40, 1, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sawHijack, sawACL, sawDeep := false, false, false
	for _, n := range pop {
		if len(n.Routers) < 2 || len(n.Routers) > 25 {
			t.Fatalf("%s: size %d out of range", n.Name, len(n.Routers))
		}
		g := graphOf(t, n)
		if !g.Topo.Connected() {
			t.Fatalf("%s: disconnected", n.Name)
		}
		if n.Lines <= 0 {
			t.Fatalf("%s: no config lines", n.Name)
		}
		sawHijack = sawHijack || n.Bugs.HijackableMgmt
		sawACL = sawACL || n.Bugs.ACLException
		sawDeep = sawDeep || n.Bugs.DeepDrop
		// Simulate a management destination to ensure the control plane
		// converges.
		sim := simulator.New(g)
		if _, err := sim.Run(network.MustParseIP("192.168.100.1"), simulator.NewEnvironment()); err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
	}
	if !sawHijack || !sawACL || !sawDeep {
		t.Fatalf("population lacks bug diversity: hijack=%v acl=%v deep=%v", sawHijack, sawACL, sawDeep)
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Generate("x", 7, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("x", 7, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Routers) != len(b.Routers) || a.Lines != b.Lines || a.Bugs != b.Bugs {
		t.Fatal("same seed produced different networks")
	}
	for i := range a.Routers {
		if config.Print(a.Routers[i]) != config.Print(b.Routers[i]) {
			t.Fatalf("router %d differs", i)
		}
	}
}

// TestInjectedBugsAreDetectable verifies the ground truth against the
// verifier on selected seeds of each class.
func TestInjectedBugsAreDetectable(t *testing.T) {
	p := DefaultParams()
	p.MinRouters, p.MaxRouters = 6, 12 // mid-size for speed

	var hijacky, cleanHijack *Network
	for seed := int64(0); seed < 60 && (hijacky == nil || cleanHijack == nil); seed++ {
		n, err := Generate("probe", seed, p)
		if err != nil {
			t.Fatal(err)
		}
		if n.Bugs.HijackableMgmt && hijacky == nil {
			hijacky = n
		}
		if !n.Bugs.HijackableMgmt && cleanHijack == nil {
			cleanHijack = n
		}
	}
	if hijacky == nil || cleanHijack == nil {
		t.Fatal("probe did not produce both classes")
	}

	check := func(n *Network) bool {
		g := graphOf(t, n)
		m, err := core.Encode(g, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: encode: %v", n.Name, err)
		}
		res, err := m.CheckGoal(context.Background(), nil, properties.ManagementReachable(m), m.NoFailures())
		if err != nil {
			t.Fatalf("%s: check: %v", n.Name, err)
		}
		return !res.Verified
	}
	if !check(hijacky) {
		t.Error("hijackable network not flagged")
	}
	if check(cleanHijack) {
		t.Error("clean network wrongly flagged as hijackable")
	}
}

func TestACLExceptionBreaksEquivalence(t *testing.T) {
	p := DefaultParams()
	p.MinRouters, p.MaxRouters = 8, 14
	p.PACLException = 1.0
	var buggy *Network
	for seed := int64(0); seed < 40; seed++ {
		n, err := Generate("probe", seed, p)
		if err != nil {
			t.Fatal(err)
		}
		if n.Bugs.ACLException && len(n.Roles["access"]) >= 2 {
			buggy = n
			break
		}
	}
	if buggy == nil {
		t.Skip("no suitable network found")
	}
	g := graphOf(t, buggy)
	pair := buggy.Roles["access"][:2]
	res, err := core.CheckLocalEquivalence(g, pair[0], pair[1], core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("ACL exception not detected by local equivalence")
	}
}
