package config_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/fuzz"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/topogen"
)

// linkRow is one inferred link, flattened for comparison.
type linkRow struct {
	A, AIface, B, BIface string
	Subnet               network.Prefix
	AAddr, BAddr         network.IP
}

// allPairsLinks is link inference as BuildTopology did it before it
// grouped interfaces by subnet: every pair of the (router, interface)-
// sorted live interfaces is tested. Link order numbers the encoder's
// variables, so BuildTopology must produce exactly this sequence.
func allPairsLinks(routers []*config.Router) []linkRow {
	type ifaceRef struct {
		r *config.Router
		i *config.Interface
	}
	var refs []ifaceRef
	for _, r := range routers {
		for _, i := range r.Interfaces {
			if !i.Shutdown {
				refs = append(refs, ifaceRef{r, i})
			}
		}
	}
	sort.Slice(refs, func(a, b int) bool {
		if refs[a].r.Name != refs[b].r.Name {
			return refs[a].r.Name < refs[b].r.Name
		}
		return refs[a].i.Name < refs[b].i.Name
	})
	var out []linkRow
	linked := map[[2]string]bool{}
	for ai, a := range refs {
		for _, b := range refs[ai+1:] {
			if a.r == b.r || a.i.Prefix != b.i.Prefix || a.i.Prefix.Len == 32 {
				continue
			}
			k := [2]string{a.r.Name + "/" + a.i.Name, b.r.Name + "/" + b.i.Name}
			if linked[k] {
				continue
			}
			linked[k] = true
			out = append(out, linkRow{a.r.Name, a.i.Name, b.r.Name, b.i.Name, a.i.Prefix, a.i.Addr, b.i.Addr})
		}
	}
	return out
}

func builtLinks(t *testing.T, name string, routers []*config.Router) []linkRow {
	t.Helper()
	topo, err := config.BuildTopology(routers)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out []linkRow
	for _, l := range topo.Links {
		out = append(out, linkRow{l.A.Name, l.AIface, l.B.Name, l.BIface, l.Subnet, l.AAddr, l.BAddr})
	}
	return out
}

func TestBuildTopologyLinkOrderMatchesAllPairs(t *testing.T) {
	nets := map[string][]*config.Router{}
	for _, k := range []int{2, 4, 8} {
		ft, err := topogen.Generate(k)
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("pods-%d", k)] = ft.Routers
	}
	for size := 2; size <= 25; size++ {
		p := netgen.DefaultParams()
		p.MinRouters, p.MaxRouters = size, size
		n, err := netgen.Generate(fmt.Sprintf("netgen-size-%d", size), int64(100+size), p)
		if err != nil {
			t.Fatal(err)
		}
		nets[n.Name] = n.Routers
	}
	for fam := 0; fam < fuzz.Families(); fam++ {
		s, _, err := fuzz.FromSeed([]byte{byte(fam), 18})
		if err != nil {
			t.Fatal(err)
		}
		var routers []*config.Router
		for _, text := range s.Texts {
			r, err := config.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			routers = append(routers, r)
		}
		nets[fmt.Sprintf("fuzz-%d-%s", fam, s.Name)] = routers
	}
	// What the generators never emit: a subnet shared by three routers
	// (three links, not one), two interfaces of one router on one subnet,
	// a /32 pair, a shut-down member, and config files out of name order.
	mk := func(name string, ifaces ...*config.Interface) *config.Router {
		return &config.Router{Name: name, Interfaces: ifaces}
	}
	ifc := func(name, addr string, plen int, down bool) *config.Interface {
		a := network.MustParseIP(addr)
		return &config.Interface{Name: name, Addr: a, Prefix: network.Prefix{Addr: a.Mask(plen), Len: plen}, Shutdown: down}
	}
	nets["shared-segment"] = []*config.Router{
		mk("c", ifc("e0", "10.0.0.3", 24, false), ifc("e1", "10.0.1.3", 30, false), ifc("lo", "9.9.9.9", 32, false)),
		mk("a", ifc("e1", "10.0.0.1", 24, false), ifc("e0", "10.0.0.11", 24, false), ifc("lo", "9.9.9.8", 32, false)),
		mk("d", ifc("e0", "10.0.0.4", 24, true), ifc("e1", "10.0.1.1", 30, false)),
		mk("b", ifc("e0", "10.0.0.2", 24, false), ifc("e1", "10.0.1.2", 30, false)),
	}

	links := 0
	for name, routers := range nets {
		got, want := builtLinks(t, name, routers), allPairsLinks(routers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BuildTopology links differ from the all-pairs reference\n got %v\nwant %v", name, got, want)
		}
		links += len(want)
	}
	if got := len(allPairsLinks(nets["shared-segment"])); got != 8 {
		t.Fatalf("shared-segment fixture infers %d links, want 8 (5 on the /24, 3 on the /30)", got)
	}
	t.Logf("%d networks, %d links compared", len(nets), links)
}
