package config

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/network"
)

// BuildTopology infers the layer-3 topology from a set of router
// configurations, the way Batfish does: two internal interfaces on the
// same subnet form a link; a BGP neighbor address covered by an interface
// subnet but not owned by any internal router is an external peer.
func BuildTopology(routers []*Router) (*network.Topology, error) {
	names := make([]string, len(routers))
	byName := make(map[string]*Router, len(routers))
	for i, r := range routers {
		names[i] = r.Name
		if byName[r.Name] != nil {
			return nil, fmt.Errorf("config: duplicate router %q", r.Name)
		}
		byName[r.Name] = r
	}
	t := network.NewTopology(names)

	// Index every interface address. node is the router's Node.Index:
	// nodes are name-sorted, so it orders routers as their names do.
	type ifaceRef struct {
		r    *Router
		i    *Interface
		node int
	}
	n := 0
	for _, r := range routers {
		n += len(r.Interfaces)
	}
	owned := make(map[network.IP]int32, n) // position in refs
	refs := make([]ifaceRef, 0, n)
	for _, r := range routers {
		node := t.Node(r.Name).Index
		for _, i := range r.Interfaces {
			if i.Shutdown {
				continue
			}
			if prev, dup := owned[i.Addr]; dup {
				return nil, fmt.Errorf("config: address %v on both %s/%s and %s/%s",
					i.Addr, refs[prev].r.Name, refs[prev].i.Name, r.Name, i.Name)
			}
			owned[i.Addr] = int32(len(refs))
			refs = append(refs, ifaceRef{r, i, node})
		}
	}
	// Sort positions, not the refs themselves, with the comparisons a sort
	// of the refs would make: the same permutation, for cheaper swaps.
	perm := make([]int32, len(refs))
	for a := range perm {
		perm[a] = int32(a)
	}
	sort.Slice(perm, func(a, b int) bool {
		ra, rb := &refs[perm[a]], &refs[perm[b]]
		if ra.node != rb.node {
			return ra.node < rb.node
		}
		return ra.i.Name < rb.i.Name
	})
	sorted := make([]ifaceRef, len(refs))
	for a, p := range perm {
		sorted[a] = refs[p]
	}
	refs = sorted

	// Internal links: pairs of interfaces sharing a subnet, made in the
	// order the all-pairs scan over the sorted refs would make them (link
	// order numbers the encoder's variables): by the first interface, then
	// the second. next[a] chains each ref to the next one on its subnet.
	bySubnet := make([]int32, 0, len(refs))
	for a, ref := range refs {
		if ref.i.Prefix.Len != 32 {
			bySubnet = append(bySubnet, int32(a))
		}
	}
	slices.SortFunc(bySubnet, func(a, b int32) int {
		if pa, pb := refs[a].i.Prefix, refs[b].i.Prefix; pa != pb {
			if pa.Addr != pb.Addr {
				return cmp.Compare(pa.Addr, pb.Addr)
			}
			return cmp.Compare(pa.Len, pb.Len)
		}
		return cmp.Compare(a, b)
	})
	next := make([]int32, len(refs))
	for a := range next {
		next[a] = -1
	}
	for k := 1; k < len(bySubnet); k++ {
		if a, b := bySubnet[k-1], bySubnet[k]; refs[a].i.Prefix == refs[b].i.Prefix {
			next[a] = b
		}
	}
	// A pair is visited once, so a link repeats only if two interfaces
	// share a "router/interface" name, which takes a router name holding
	// a '/' or a router repeating an interface name; only then is the set
	// of linked names kept.
	var linked map[[2]string]bool
	for a := range refs {
		if strings.IndexByte(refs[a].r.Name, '/') >= 0 ||
			(a > 0 && refs[a].r == refs[a-1].r && refs[a].i.Name == refs[a-1].i.Name) {
			linked = map[[2]string]bool{}
			break
		}
	}
	for a := range refs {
		for b := next[a]; b >= 0; b = next[b] {
			ra, rb := refs[a], refs[b]
			if ra.r == rb.r {
				continue
			}
			if linked != nil {
				k := [2]string{ra.r.Name + "/" + ra.i.Name, rb.r.Name + "/" + rb.i.Name}
				if linked[k] {
					continue
				}
				linked[k] = true
			}
			t.AddLink(ra.r.Name, ra.i.Name, rb.r.Name, rb.i.Name, ra.i.Prefix, ra.i.Addr, rb.i.Addr)
		}
	}

	// External peers: BGP neighbors whose address no internal interface
	// owns. The neighbor is reachable through the interface whose subnet
	// covers its address.
	for _, r := range routers {
		if r.BGP == nil {
			continue
		}
		extN := 0
		for _, n := range r.BGP.Neighbors {
			if _, internal := owned[n.Addr]; internal {
				continue
			}
			var via *Interface
			for _, i := range r.Interfaces {
				if !i.Shutdown && i.Prefix.Len < 32 && i.Prefix.Contains(n.Addr) {
					via = i
					break
				}
			}
			if via == nil {
				return nil, fmt.Errorf("config: %s: BGP neighbor %v is on no connected subnet", r.Name, n.Addr)
			}
			extN++
			name := n.Description
			if name == "" {
				name = fmt.Sprintf("%s-ext%d", r.Name, extN)
			}
			t.AddExternal(r.Name, via.Name, name, n.Addr, via.Addr, n.RemoteAS)
		}
	}

	return t, nil
}

// FindBGPNeighbor returns the neighbor stanza for a peer address, or nil.
func FindBGPNeighbor(r *Router, addr network.IP) *BGPNeighbor {
	if r.BGP == nil {
		return nil
	}
	for _, n := range r.BGP.Neighbors {
		if n.Addr == addr {
			return n
		}
	}
	return nil
}
