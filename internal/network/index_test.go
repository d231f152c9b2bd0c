package network

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The scan* functions are the lookups as they were before the adjacency
// index: one pass over every link or external per call. They are the
// reference the indexed lookups are held to, element for element and in
// order.

func scanLinksOf(t *Topology, n *Node) []*Link {
	var out []*Link
	for _, l := range t.Links {
		if l.A == n || l.B == n {
			out = append(out, l)
		}
	}
	return out
}

func scanExternalsOf(t *Topology, n *Node) []*External {
	var out []*External
	for _, e := range t.Externals {
		if e.Router == n {
			out = append(out, e)
		}
	}
	return out
}

func scanNeighbors(t *Topology, n *Node) []*Node {
	var out []*Node
	for _, l := range scanLinksOf(t, n) {
		out = append(out, l.Peer(n))
	}
	return out
}

func scanFindLink(t *Topology, a, b string) *Link {
	na, nb := t.byName[a], t.byName[b]
	for _, l := range t.Links {
		if (l.A == na && l.B == nb) || (l.A == nb && l.B == na) {
			return l
		}
	}
	return nil
}

// sameSeq: the same elements in the same order, and nil only for nil.
func sameSeq[T comparable](got, want []T) bool {
	return slices.Equal(got, want) && (got == nil) == (want == nil)
}

// checkIndex holds every lookup of topo to its scan, for every node of
// the topology, the extra nodes given (nil, foreign, hand-built) and
// every pair of the names given.
func checkIndex(t *testing.T, label string, topo *Topology, extra []*Node, names []string) {
	t.Helper()
	for _, n := range append(append([]*Node{}, topo.Nodes...), extra...) {
		who := "<nil>"
		if n != nil {
			who = fmt.Sprintf("%s#%d", n.Name, n.Index)
		}
		if got, want := topo.LinksOf(n), scanLinksOf(topo, n); !sameSeq(got, want) {
			t.Errorf("%s: LinksOf(%s) = %v, scan %v", label, who, got, want)
		}
		if got, want := topo.ExternalsOf(n), scanExternalsOf(topo, n); !sameSeq(got, want) {
			t.Errorf("%s: ExternalsOf(%s) = %v, scan %v", label, who, got, want)
		}
		if got, want := topo.Neighbors(n), scanNeighbors(topo, n); !sameSeq(got, want) {
			t.Errorf("%s: Neighbors(%s) = %v, scan %v", label, who, got, want)
		}
	}
	for _, a := range names {
		for _, b := range names {
			if got, want := topo.FindLink(a, b), scanFindLink(topo, a, b); got != want {
				t.Errorf("%s: FindLink(%q,%q) = %p, scan %p", label, a, b, got, want)
			}
		}
	}
}

func addTestLink(topo *Topology, a, b string, k int) {
	sub := Prefix{Addr: IP(0x0A000000 + k<<8), Len: 24}
	topo.AddLink(a, fmt.Sprintf("e%d", k), b, fmt.Sprintf("e%d", k), sub, sub.Addr+1, sub.Addr+2)
}

func TestIndexMatchesScanTable(t *testing.T) {
	other := NewTopology([]string{"R1", "R2", "R3", "R4", "R5"})
	addTestLink(other, "R1", "R2", 99)
	// Nodes the topology under test does not own: nil, a same-named,
	// same-index node of another topology, and hand-built ones with
	// indices in and out of range.
	foreign := []*Node{nil, other.Node("R1"), other.Node("R5"),
		{Name: "R1", Index: 0}, {Name: "ghost", Index: 7}, {Name: "neg", Index: -1}}
	names := []string{"R1", "R2", "R3", "R4", "absent", ""}

	cases := []struct {
		name  string
		build func(*Topology)
	}{
		{"no links at all", func(*Topology) {}},
		{"chain, R4 isolated", func(tp *Topology) {
			addTestLink(tp, "R1", "R2", 1)
			addTestLink(tp, "R3", "R2", 2)
		}},
		{"parallel links between one pair, both orientations", func(tp *Topology) {
			addTestLink(tp, "R2", "R1", 1)
			addTestLink(tp, "R1", "R3", 2)
			addTestLink(tp, "R1", "R2", 3)
			addTestLink(tp, "R2", "R1", 4)
		}},
		{"self link", func(tp *Topology) {
			addTestLink(tp, "R1", "R1", 1)
			addTestLink(tp, "R1", "R2", 2)
		}},
		{"externals only, two on one router", func(tp *Topology) {
			tp.AddExternal("R3", "s0", "N1", 1, 2, 65001)
			tp.AddExternal("R1", "s0", "N2", 3, 4, 65002)
			tp.AddExternal("R3", "s1", "N3", 5, 6, 65003)
		}},
		{"links and externals interleaved", func(tp *Topology) {
			addTestLink(tp, "R1", "R2", 1)
			tp.AddExternal("R2", "s0", "N1", 1, 2, 65001)
			addTestLink(tp, "R2", "R3", 2)
			tp.AddExternal("R1", "s0", "N2", 3, 4, 65002)
			addTestLink(tp, "R4", "R1", 3)
		}},
	}
	for _, tc := range cases {
		topo := NewTopology([]string{"R3", "R1", "R4", "R2"})
		tc.build(topo)
		checkIndex(t, tc.name, topo, foreign, names)
	}
}

func TestIndexMatchesScanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(9)
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("r%02d", i)
		}
		rng.Shuffle(n, func(i, j int) { names[i], names[j] = names[j], names[i] })
		topo := NewTopology(names)
		for k, ops := 0, rng.Intn(3*n+1); k < ops; k++ {
			a, b := names[rng.Intn(n)], names[rng.Intn(n)]
			if rng.Intn(4) == 0 {
				topo.AddExternal(a, "s0", fmt.Sprintf("N%d", k), IP(k), IP(k+1), uint32(65000+k))
			} else {
				addTestLink(topo, a, b, k) // a == b now and then: a self link
			}
			// The index must be right after every insertion, not only at
			// the end.
			if rng.Intn(5) == 0 {
				checkIndex(t, fmt.Sprintf("iter %d after %d ops", iter, k+1), topo, nil, names)
			}
		}
		foreign := []*Node{nil, {Name: names[0], Index: 0}, {Name: "x", Index: n}}
		checkIndex(t, fmt.Sprintf("iter %d", iter), topo, foreign, append(names, "absent"))
	}
}

// TestIndexedLookupsDoNotAllocate: the point of the index is that a
// lookup neither scans nor builds a slice.
func TestIndexedLookupsDoNotAllocate(t *testing.T) {
	topo := NewTopology([]string{"R1", "R2", "R3"})
	addTestLink(topo, "R1", "R2", 1)
	addTestLink(topo, "R2", "R3", 2)
	addTestLink(topo, "R1", "R2", 3)
	r2 := topo.Node("R2")
	var links []*Link
	var link *Link
	if n := testing.AllocsPerRun(100, func() { links = topo.LinksOf(r2) }); n != 0 {
		t.Errorf("LinksOf allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { link = topo.FindLink("R3", "R2") }); n != 0 {
		t.Errorf("FindLink allocates %v times per call", n)
	}
	if len(links) != 3 || link != topo.Links[1] {
		t.Fatalf("LinksOf/FindLink returned %d links, %p", len(links), link)
	}
	// The slice is the index's own: its capacity is clipped so that a
	// caller's append copies instead of writing into the index.
	if cap(links) != len(links) {
		t.Fatalf("LinksOf result has spare capacity %d > %d", cap(links), len(links))
	}
}
