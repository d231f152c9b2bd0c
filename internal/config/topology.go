package config

import (
	"fmt"
	"sort"

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

	// Index every interface address.
	type ifaceRef struct {
		r *Router
		i *Interface
	}
	owned := map[network.IP]ifaceRef{}
	var refs []ifaceRef
	for _, r := range routers {
		for _, i := range r.Interfaces {
			if i.Shutdown {
				continue
			}
			if prev, dup := owned[i.Addr]; dup {
				return nil, fmt.Errorf("config: address %v on both %s/%s and %s/%s",
					i.Addr, prev.r.Name, prev.i.Name, r.Name, i.Name)
			}
			owned[i.Addr] = ifaceRef{r, i}
			refs = append(refs, ifaceRef{r, i})
		}
	}
	sort.Slice(refs, func(a, b int) bool {
		if refs[a].r.Name != refs[b].r.Name {
			return refs[a].r.Name < refs[b].r.Name
		}
		return refs[a].i.Name < refs[b].i.Name
	})

	// Internal links: pairs of interfaces sharing a subnet. Grouping the
	// sorted refs by subnet visits the pairs in the order the all-pairs
	// scan would; link order numbers the encoder's variables.
	bySubnet := map[network.Prefix][]ifaceRef{}
	for _, ref := range refs {
		if ref.i.Prefix.Len != 32 {
			bySubnet[ref.i.Prefix] = append(bySubnet[ref.i.Prefix], ref)
		}
	}
	linked := map[[2]string]bool{}
	for _, a := range refs {
		group := bySubnet[a.i.Prefix]
		if len(group) == 0 {
			continue
		}
		bySubnet[a.i.Prefix] = group[1:] // a is the group's head: drop it
		for _, b := range group[1:] {
			if a.r == b.r {
				continue
			}
			k := [2]string{a.r.Name + "/" + a.i.Name, b.r.Name + "/" + b.i.Name}
			if linked[k] {
				continue
			}
			linked[k] = true
			t.AddLink(a.r.Name, a.i.Name, b.r.Name, b.i.Name, a.i.Prefix, a.i.Addr, b.i.Addr)
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
