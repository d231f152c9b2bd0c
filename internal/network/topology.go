package network

import (
	"fmt"
	"sort"
)

// Node is a router in the topology.
type Node struct {
	// Name is the router hostname.
	Name string
	// Index is the dense node index within its Topology.
	Index int
}

// Link is a bidirectional layer-3 adjacency between two internal routers,
// identified by the interface each side uses.
type Link struct {
	A, B           *Node
	AIface, BIface string
	// Subnet is the shared point-to-point subnet.
	Subnet Prefix
	// AAddr and BAddr are each side's interface address.
	AAddr, BAddr IP
}

// Peer returns the far end of the link from node n, or nil if n is not an
// endpoint.
func (l *Link) Peer(n *Node) *Node {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	return nil
}

// IfaceOf returns the interface name used by node n on this link.
func (l *Link) IfaceOf(n *Node) string {
	switch n {
	case l.A:
		return l.AIface
	case l.B:
		return l.BIface
	}
	return ""
}

// AddrOf returns the interface address of node n on this link.
func (l *Link) AddrOf(n *Node) IP {
	switch n {
	case l.A:
		return l.AAddr
	case l.B:
		return l.BAddr
	}
	return 0
}

// External is an eBGP peering between an internal router and an external
// neighbor (part of the symbolic environment).
type External struct {
	Router *Node
	// Iface is the connecting interface on the internal router.
	Iface string
	// Name is the neighbor's display name (e.g. "N1").
	Name string
	// PeerAddr is the neighbor's address, RouterAddr ours.
	PeerAddr, RouterAddr IP
	// ASN is the neighbor's autonomous system number.
	ASN uint32
}

// Topology is the layer-3 graph of a network: internal routers, internal
// links, and external peerings.
type Topology struct {
	Nodes     []*Node
	Links     []*Link
	Externals []*External

	byName map[string]*Node
	// links and exts index Links and Externals by Node.Index, each list in
	// insertion order, so per-router lookups cost the router's degree.
	links [][]*Link
	exts  [][]*External
}

// NewTopology creates a topology with the given router names.
func NewTopology(names []string) *Topology {
	t := &Topology{byName: make(map[string]*Node, len(names))}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, n := range sorted {
		if _, dup := t.byName[n]; dup {
			panic(fmt.Sprintf("network: duplicate router name %q", n))
		}
		node := &Node{Name: n, Index: len(t.Nodes)}
		t.Nodes = append(t.Nodes, node)
		t.byName[n] = node
	}
	t.links = make([][]*Link, len(t.Nodes))
	t.exts = make([][]*External, len(t.Nodes))
	return t
}

// Node returns the router with the given name, or nil.
func (t *Topology) Node(name string) *Node { return t.byName[name] }

// AddLink registers an internal link.
func (t *Topology) AddLink(a, aIface string, b, bIface string, subnet Prefix, aAddr, bAddr IP) *Link {
	na, nb := t.byName[a], t.byName[b]
	if na == nil || nb == nil {
		panic(fmt.Sprintf("network: link references unknown router %q or %q", a, b))
	}
	l := &Link{A: na, B: nb, AIface: aIface, BIface: bIface, Subnet: subnet, AAddr: aAddr, BAddr: bAddr}
	t.Links = append(t.Links, l)
	t.links[na.Index] = append(t.links[na.Index], l)
	if nb != na {
		t.links[nb.Index] = append(t.links[nb.Index], l)
	}
	return l
}

// AddExternal registers an external eBGP peering.
func (t *Topology) AddExternal(router, iface, name string, peerAddr, routerAddr IP, asn uint32) *External {
	n := t.byName[router]
	if n == nil {
		panic(fmt.Sprintf("network: external peering references unknown router %q", router))
	}
	e := &External{Router: n, Iface: iface, Name: name, PeerAddr: peerAddr, RouterAddr: routerAddr, ASN: asn}
	t.Externals = append(t.Externals, e)
	t.exts[n.Index] = append(t.exts[n.Index], e)
	return e
}

// owns reports whether n is one of this topology's nodes (not nil, not a
// node of another topology that happens to share an index).
func (t *Topology) owns(n *Node) bool {
	return n != nil && uint(n.Index) < uint(len(t.Nodes)) && t.Nodes[n.Index] == n
}

// LinksOf returns all internal links incident to the node, in Links
// order. The slice is shared: callers must not modify it.
func (t *Topology) LinksOf(n *Node) []*Link {
	if !t.owns(n) {
		return nil
	}
	ls := t.links[n.Index]
	return ls[:len(ls):len(ls)]
}

// ExternalsOf returns all external peerings of the node, in Externals
// order. The slice is shared: callers must not modify it.
func (t *Topology) ExternalsOf(n *Node) []*External {
	if !t.owns(n) {
		return nil
	}
	es := t.exts[n.Index]
	return es[:len(es):len(es)]
}

// ExternalIface returns the interface n peers with the named external
// neighbor on, or "" when it has no such peering.
func (t *Topology) ExternalIface(n *Node, ext string) string {
	for _, e := range t.ExternalsOf(n) {
		if e.Name == ext {
			return e.Iface
		}
	}
	return ""
}

// Neighbors returns the internal neighbor nodes of n.
func (t *Topology) Neighbors(n *Node) []*Node {
	var out []*Node
	for _, l := range t.LinksOf(n) {
		out = append(out, l.Peer(n))
	}
	return out
}

// FindLink returns the first link (in Links order) between the two named
// routers, or nil.
func (t *Topology) FindLink(a, b string) *Link {
	na, nb := t.byName[a], t.byName[b]
	for _, l := range t.LinksOf(na) {
		if (l.A == na && l.B == nb) || (l.A == nb && l.B == na) {
			return l
		}
	}
	return nil
}

// Connected reports whether the internal-link graph is connected
// (ignoring external peers). The empty topology is connected.
func (t *Topology) Connected() bool {
	if len(t.Nodes) == 0 {
		return true
	}
	seen := make([]bool, len(t.Nodes))
	stack := []*Node{t.Nodes[0]}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range t.Neighbors(n) {
			if !seen[nb.Index] {
				seen[nb.Index] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == len(t.Nodes)
}
