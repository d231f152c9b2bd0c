package modular_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/modular"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/protograph"
	"repro/internal/testnets"
	"repro/internal/tiered"
)

// samePartition reports whether grouping items by a[i] and by b[i] gives
// the same groups; if not, i and j are two items the keys disagree on.
func samePartition(a, b []string) (i, j int, ok bool) {
	firstA, firstB := map[string]int{}, map[string]int{}
	for i := range a {
		ja, seenA := firstA[a[i]]
		jb, seenB := firstB[b[i]]
		switch {
		case seenA && b[ja] != b[i]:
			return ja, i, false
		case seenB && a[jb] != a[i]:
			return jb, i, false
		}
		if !seenA {
			firstA[a[i]] = i
		}
		if !seenB {
			firstB[b[i]] = i
		}
	}
	return 0, 0, true
}

func pfx(s string) network.Prefix {
	// Not ParsePrefix: that masks the host bits, and hand-built
	// configurations (the only source of unaligned prefixes) do not.
	slash := strings.IndexByte(s, '/')
	var l int
	fmt.Sscanf(s[slash+1:], "%d", &l)
	return network.Prefix{Addr: network.MustParseIP(s[:slash]), Len: l}
}

// TestRelationsSeparateWhatTheMatrixSeparates holds the per-value
// relation lines to the pairwise matrix on hand-picked pools: the two
// writers must group the pools alike, the pools paired in `same` must get
// equal relations and all others different ones.
func TestRelationsSeparateWhatTheMatrixSeparates(t *testing.T) {
	pools := map[string][]string{
		"empty":                             {},
		"one /24":                           {"10.0.0.0/24"},
		"one /16":                           {"10.0.0.0/16"},
		"nested 8-16-24":                    {"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"},
		"nested shifted":                    {"20.0.0.0/8", "20.9.0.0/16", "20.9.7.0/24"}, // same shape as nested 8-16-24
		"nested, inner escapes":             {"10.0.0.0/8", "10.1.0.0/16", "10.2.2.0/24"},
		"nested, inserted inside-out":       {"10.1.2.0/24", "10.1.0.0/16", "10.0.0.0/8"},
		"chain, same address":               {"10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/24"},
		"chain, same address, out of order": {"10.0.0.0/16", "10.0.0.0/8", "10.0.0.0/24"},
		"siblings under /8":                 {"10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16"},
		"siblings, no parent":               {"11.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16"},
		"siblings, parent after":            {"9.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16"},
		"default and host":                  {"0.0.0.0/0", "10.0.0.1/32"},
		"default and host 0":                {"0.0.0.0/0", "0.0.0.0/32"},
		"host and default":                  {"10.0.0.1/32", "0.0.0.0/0"},
		"last host":                         {"0.0.0.0/0", "255.255.255.255/32"},
		"two hosts":                         {"10.0.0.1/32", "10.0.0.2/32"},
		"two hosts, reversed":               {"10.0.0.2/32", "10.0.0.1/32"},
		"duplicates collapse":               {"10.0.0.0/24", "10.0.0.0/24", "10.0.0.1/32", "10.0.0.1/32"},
		"no duplicates":                     {"10.0.0.0/24", "10.0.0.1/32"}, // same pool as duplicates collapse
		// An interface prefix kept with its host bits (10.0.0.1/24): Covers
		// is false from it to anything, itself included, but it is covered
		// like the address it holds.
		"aligned iface":       {"10.0.0.1/32", "10.0.0.0/24"},
		"unaligned iface":     {"10.0.0.1/32", "10.0.0.1/24"},
		"unaligned under /16": {"10.0.0.0/16", "10.0.0.1/24", "10.0.0.1/32"},
		"aligned under /16":   {"10.0.0.0/16", "10.0.0.0/24", "10.0.0.1/32"},
		// The /30 holds 10.0.0.1 but is longer than the unaligned /24, so
		// it does not cover it; the /16 does.
		"unaligned skips inner": {"10.0.0.0/16", "10.0.0.0/30", "10.0.0.1/24"},
		"aligned twin of it":    {"10.0.0.0/16", "10.0.0.0/30", "10.0.0.0/24"},
		"unaligned alone":       {"10.0.0.1/24"}, // the matrix cannot tell it from one /24 either
	}
	same := [][2]string{
		{"nested 8-16-24", "nested shifted"},
		{"duplicates collapse", "no duplicates"},
		{"one /24", "unaligned alone"},
		{"default and host", "last host"},
	}
	names := make([]string, 0, len(pools))
	for name := range pools {
		names = append(names, name)
	}
	sort.Strings(names)
	var cur, old []string
	for _, name := range names {
		var vals []network.Prefix
		for _, s := range pools[name] {
			vals = append(vals, pfx(s))
		}
		c, o := modular.Relations(vals)
		cur, old = append(cur, c), append(old, o)
	}
	if i, j, ok := samePartition(old, cur); !ok {
		t.Fatalf("%q and %q: equal under one writer, different under the other\nnow:\n%s%s\npairwise:\n%s%s",
			names[i], names[j], cur[i], cur[j], old[i], old[j])
	}
	idx := map[string]int{}
	for i, name := range names {
		idx[name] = i
	}
	for _, pair := range same {
		if cur[idx[pair[0]]] != cur[idx[pair[1]]] {
			t.Errorf("%q and %q get different relations:\n%s\n%s", pair[0], pair[1], cur[idx[pair[0]]], cur[idx[pair[1]]])
		}
	}
	distinct := map[string]string{}
	for i, name := range names {
		if prev, ok := distinct[cur[i]]; ok {
			paired := false
			for _, pair := range same {
				paired = paired || (pair[0] == prev && pair[1] == name) || (pair[1] == prev && pair[0] == name)
			}
			if !paired {
				t.Errorf("%q and %q get equal relations but are not listed as the same:\n%s", prev, name, cur[i])
			}
		} else {
			distinct[cur[i]] = name
		}
	}
}

// TestRelationsPartitionRandomPools draws many small pools from a small
// universe — so that equal shapes, equal addresses at different lengths,
// nestings and unaligned values all recur — and asserts the two writers
// group them identically.
func TestRelationsPartitionRandomPools(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	bases := []uint32{0, 0x0A000000, 0x0A000001, 0x0A000100, 0x0A010000, 0x0A800000, 0x0B000000, 0xFFFFFFFF}
	lens := []int{0, 8, 9, 16, 24, 30, 31, 32}
	draw := func(aligned bool) network.Prefix {
		p := network.Prefix{Addr: network.IP(bases[rng.Intn(len(bases))]), Len: lens[rng.Intn(len(lens))]}
		if aligned {
			p.Addr = p.Addr.Mask(p.Len)
		}
		return p
	}
	for _, mode := range []string{"aligned", "mixed"} {
		var cur, old []string
		var shown [][]network.Prefix
		for i := 0; i < 6000; i++ {
			vals := make([]network.Prefix, 1+rng.Intn(5))
			for j := range vals {
				vals[j] = draw(mode == "aligned" || rng.Intn(3) > 0)
			}
			c, o := modular.Relations(vals)
			cur, old, shown = append(cur, c), append(old, o), append(shown, vals)
		}
		if i, j, ok := samePartition(old, cur); !ok {
			t.Fatalf("%s pools %v and %v: equal under one writer, different under the other\nnow:\n%s%s\npairwise:\n%s%s",
				mode, shown[i], shown[j], cur[i], cur[j], old[i], old[j])
		}
		groups := map[string]bool{}
		for _, c := range cur {
			groups[c] = true
		}
		if len(groups) < 100 || len(groups) > len(cur)*3/4 {
			t.Fatalf("%s pools: %d groups over %d pools — the universe no longer makes shapes recur", mode, len(groups), len(cur))
		}
	}
}

// parityNets is the population the class partition is compared on:
// fat-trees with the seven Figure 8 goal shapes, one operational network
// of every size the paper's population has, and one scenario of every
// fuzz family, each with goals over its own subnets.
func parityNets(t *testing.T) map[string]struct {
	g     *protograph.Graph
	goals []tiered.Goal
} {
	t.Helper()
	type entry = struct {
		g     *protograph.Graph
		goals []tiered.Goal
	}
	out := map[string]entry{}
	for _, k := range []int{2, 4, 8} {
		out[fmt.Sprintf("pods-%d", k)] = entry{fabricGraph(t, k), fabricGoals(k)}
	}
	ownGoals := func(g *protograph.Graph) []tiered.Goal {
		var names []string
		subnets := map[network.Prefix]bool{}
		for _, n := range g.Topo.Nodes {
			names = append(names, n.Name)
			for _, ifc := range g.Configs[n.Name].Interfaces {
				if ifc.Prefix.Len < 32 && len(subnets) < 3 {
					subnets[ifc.Prefix] = true
				}
			}
		}
		var goals []tiered.Goal
		for sub := range subnets {
			goals = append(goals,
				tiered.Goal{Check: "reachability", Src: names[len(names)-1], Subnet: sub, HasSubnet: true},
				tiered.Goal{Check: "bounded-length-all", Srcs: names, Subnet: sub, HasSubnet: true, Hops: 3},
				tiered.Goal{Check: "blackholes", Subnet: sub, HasSubnet: true})
		}
		return goals
	}
	for size := 2; size <= 25; size++ {
		p := netgen.DefaultParams()
		p.MinRouters, p.MaxRouters = size, size
		n, err := netgen.Generate(fmt.Sprintf("netgen-size-%d", size), int64(200+size), p)
		if err != nil {
			t.Fatal(err)
		}
		net, err := pipeline.Build(n.Routers)
		if err != nil {
			t.Fatal(err)
		}
		out[n.Name] = entry{net.Graph, ownGoals(net.Graph)}
	}
	for fam := 0; fam < fuzz.Families(); fam++ {
		s, _, err := fuzz.FromSeed([]byte{byte(fam), 15})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("fuzz-%d-%s", fam, s.Name)] = entry{s.Net.Graph, ownGoals(s.Net.Graph)}
	}
	return out
}

// TestClassPartitionMatchesPairwiseKey: the isomorphism classes — which
// components share one solve — must be exactly the ones the pairwise
// relation matrix gave, plan by plan and across all plans at once.
func TestClassPartitionMatchesPairwiseKey(t *testing.T) {
	var allCur, allOld []string
	multi := 0
	for name, e := range parityNets(t) {
		cut := modular.Partition(e.g)
		for _, goal := range e.goals {
			plan := modular.NewPlan(e.g, cut, goal)
			var cur, old []string
			for _, cp := range plan.Comps {
				vals := append([]network.Prefix(nil), cp.Vals...)
				cur = append(cur, cp.Key)
				old = append(old, modular.PairwiseClassKey(e.g, cp, goal))
				if fmt.Sprint(vals) != fmt.Sprint(cp.Vals) {
					t.Fatalf("%s %s: component %d's value pool depends on the relation writer", name, goal.Check, cp.Comp.Index)
				}
			}
			if i, j, ok := samePartition(old, cur); !ok {
				t.Errorf("%s %s: components %d and %d share a class under one key and not under the other", name, goal.Check, i, j)
			}
			classes := map[string]bool{}
			for _, k := range cur {
				classes[k] = true
			}
			if len(classes) > 1 && len(classes) < len(cur) {
				multi++
			}
			allCur, allOld = append(allCur, cur...), append(allOld, old...)
		}
	}
	if i, j, ok := samePartition(allOld, allCur); !ok {
		t.Errorf("across all plans: keys %d and %d are equal under one writer and not under the other", i, j)
	}
	if multi < 14 {
		t.Fatalf("only %d plans had a non-trivial partition (some classes shared, some not); want the 14 of pods-4 and pods-8 at least", multi)
	}
	t.Logf("%d component keys compared, %d plans with a non-trivial partition", len(allCur), multi)
}

// meshWithStubs renders n routers of one AS in a full iBGP mesh over
// their loopbacks, plus two single-router stub ASes, one hanging off the
// first mesh router and one off the last by eBGP.
func meshWithStubs(n int) []string {
	var texts []string
	for i := 0; i < n; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, "hostname M%02d\n!\ninterface Loopback0\n ip address 10.255.0.%d 255.255.255.255\n!\n", i, i+1)
		if i == 0 {
			b.WriteString("interface Eth0\n ip address 10.0.1.1 255.255.255.252\n!\n")
		}
		if i == n-1 {
			b.WriteString("interface Eth0\n ip address 10.0.2.1 255.255.255.252\n!\n")
		}
		b.WriteString("router bgp 65000\n")
		for j := 0; j < n; j++ {
			if j != i {
				fmt.Fprintf(&b, " neighbor 10.255.0.%d remote-as 65000\n", j+1)
			}
		}
		if i == 0 {
			b.WriteString(" neighbor 10.0.1.2 remote-as 65001\n")
		}
		if i == n-1 {
			b.WriteString(" neighbor 10.0.2.2 remote-as 65002\n")
		}
		b.WriteString("!\n")
		texts = append(texts, b.String())
	}
	stub := func(name, addr, peer string, asn int) string {
		return fmt.Sprintf("hostname %s\n!\ninterface Eth0\n ip address %s 255.255.255.252\n!\nrouter bgp %d\n neighbor %s remote-as 65000\n!\n",
			name, addr, asn, peer)
	}
	return append(texts, stub("S1", "10.0.1.2", "10.0.1.1", 65001), stub("S2", "10.0.2.2", "10.0.2.1", 65002))
}

// dijkstra is the plain reference for bfs01: array-based, no queue
// discipline to get wrong. iBGP sessions weigh 0, eBGP sessions 1.
func dijkstra(g *protograph.Graph, sources []string) map[string]int {
	const inf = 1 << 30
	n := len(g.Topo.Nodes)
	dist := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
	}
	for _, s := range sources {
		dist[g.Topo.Node(s).Index] = 0
	}
	for {
		u := -1
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < inf && (u < 0 || dist[i] < dist[u]) {
				u = i
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, s := range g.Sessions {
			if s.Kind == protograph.EBGPExternal || (s.A.Index != u && s.B.Index != u) {
				continue
			}
			w := 1
			if s.Kind == protograph.IBGP {
				w = 0
			}
			v := s.A.Index + s.B.Index - u
			if dist[u]+w < dist[v] {
				dist[v] = dist[u] + w
			}
		}
	}
	out := map[string]int{}
	for i, d := range dist {
		if d < inf {
			out[g.Topo.Nodes[i].Name] = d
		}
	}
	return out
}

func TestBFS01MatchesDijkstra(t *testing.T) {
	mesh, err := testnets.Build(meshWithStubs(64)...)
	if err != nil {
		t.Fatal(err)
	}
	ibgp := 0
	for _, s := range mesh.Graph.Sessions {
		if s.Kind == protograph.IBGP {
			ibgp++
		}
	}
	if want := 64 * 63 / 2; ibgp != want || len(mesh.Graph.Sessions) != want+2 {
		t.Fatalf("mesh fixture has %d iBGP of %d sessions, want %d of %d", ibgp, len(mesh.Graph.Sessions), want, want+2)
	}
	check := func(name string, g *protograph.Graph, sources []string) {
		t.Helper()
		got, want := modular.BFS01(g, sources), dijkstra(g, sources)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s from %v: bfs01 %v, dijkstra %v", name, sources, got, want)
		}
	}
	check("mesh", mesh.Graph, []string{"S1"})
	check("mesh", mesh.Graph, []string{"S2"})
	check("mesh", mesh.Graph, []string{"M31"})
	check("mesh", mesh.Graph, []string{"S1", "S2"})
	if d := modular.BFS01(mesh.Graph, []string{"S1"}); d["S1"] != 0 || d["M00"] != 1 || d["M40"] != 1 || d["S2"] != 2 {
		t.Fatalf("mesh distances from S1: S1=%d M00=%d M40=%d S2=%d, want 0 1 1 2", d["S1"], d["M00"], d["M40"], d["S2"])
	}

	// Mixed 0/1 weights in less regular shapes: operational networks
	// (iBGP among the borders, eBGP elsewhere) and a fabric, from random
	// source sets.
	rng := rand.New(rand.NewSource(64))
	for name, e := range parityNets(t) {
		nodes := e.g.Topo.Nodes
		for trial := 0; trial < 3; trial++ {
			var sources []string
			for i := 0; i <= rng.Intn(3); i++ {
				sources = append(sources, nodes[rng.Intn(len(nodes))].Name)
			}
			check(name, e.g, sources)
		}
	}
}
