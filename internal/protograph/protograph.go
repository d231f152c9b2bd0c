// Package protograph computes the protocol-level decomposition of a
// network (Figure 2(b)/(c) of the paper): which protocol instances run on
// each router, which pairs of instances exchange routing information over
// which physical links or peerings, and which instances redistribute into
// which.
//
// Both the symbolic encoder (internal/core) and the concrete simulator
// (internal/simulator) are driven by this graph, which keeps their
// semantics aligned.
package protograph

import (
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/network"
)

// Instance is one protocol process on one router.
type Instance struct {
	Router *network.Node
	Proto  config.Protocol
}

func (i Instance) String() string {
	return fmt.Sprintf("%s/%v", i.Router.Name, i.Proto)
}

// OSPFAdj is a bidirectional OSPF adjacency over a link: both endpoints
// run OSPF and have the link subnet activated by a network statement.
type OSPFAdj struct {
	Link *network.Link
	// CostA is the interface cost on A's side (paid by A when receiving
	// routes from B... cost of A's outgoing interface), CostB likewise.
	CostA, CostB int
}

// RIPAdj is a bidirectional RIP adjacency over a link.
type RIPAdj struct {
	Link *network.Link
}

// BGPSessionKind distinguishes session types.
type BGPSessionKind int

// Session kinds.
const (
	EBGP BGPSessionKind = iota
	IBGP
	// EBGPExternal is a session to an environment neighbor.
	EBGPExternal
)

// BGPSession is one configured BGP peering. Internal sessions (between two
// modeled routers) carry both directions; external sessions connect a
// router to a symbolic environment peer.
type BGPSession struct {
	Kind BGPSessionKind

	// A is always an internal router; its neighbor stanza for the session
	// is NbrAtA.
	A      *network.Node
	NbrAtA *config.BGPNeighbor

	// B and NbrAtB are set for internal sessions.
	B      *network.Node
	NbrAtB *config.BGPNeighbor

	// Ext is set for external sessions.
	Ext *network.External

	// Link is the physical link the session rides (internal sessions).
	// Sessions between loopbacks ride the IGP; Link is nil then and the
	// session is up whenever the peering addresses are mutually
	// reachable.
	Link *network.Link
}

// Graph is the protocol-level decomposition of one network.
type Graph struct {
	Topo    *network.Topology
	Configs map[string]*config.Router

	Instances []Instance
	OSPFAdjs  []*OSPFAdj
	RIPAdjs   []*RIPAdj
	Sessions  []*BGPSession

	// IBGPSpeakers are routers with at least one iBGP session, in name
	// order; the encoder builds one extra network copy per speaker (§4).
	IBGPSpeakers []*network.Node

	// sessionsOf, ospfOf and ripOf index Sessions, OSPFAdjs and RIPAdjs
	// by Node.Index, each list in the order of the slice it indexes.
	sessionsOf [][]*BGPSession
	ospfOf     [][]*OSPFAdj
	ripOf      [][]*RIPAdj
}

// Build computes the decomposition. Configs are keyed by router name and
// must cover every topology node.
func Build(topo *network.Topology, configs map[string]*config.Router) (*Graph, error) {
	g := &Graph{Topo: topo, Configs: configs}
	for _, n := range topo.Nodes {
		c := configs[n.Name]
		if c == nil {
			return nil, fmt.Errorf("protograph: no configuration for router %q", n.Name)
		}
		for _, p := range c.Protocols() {
			g.Instances = append(g.Instances, Instance{Router: n, Proto: p})
		}
	}
	// Deterministic decomposition: order instances by router name with the
	// protocol as tiebreaker, so downstream analyses (and anything hashing
	// the decomposition) never depend on per-router iteration order.
	sort.SliceStable(g.Instances, func(i, j int) bool {
		a, b := g.Instances[i], g.Instances[j]
		if a.Router.Name != b.Router.Name {
			return a.Router.Name < b.Router.Name
		}
		return a.Proto < b.Proto
	})

	// OSPF and RIP adjacencies.
	for _, l := range topo.Links {
		ca, cb := configs[l.A.Name], configs[l.B.Name]
		if aCost, ok := ospfActive(ca, l, l.A); ok {
			if bCost, ok2 := ospfActive(cb, l, l.B); ok2 {
				g.OSPFAdjs = append(g.OSPFAdjs, &OSPFAdj{Link: l, CostA: aCost, CostB: bCost})
			}
		}
		if ripActive(ca, l, l.A) && ripActive(cb, l, l.B) {
			g.RIPAdjs = append(g.RIPAdjs, &RIPAdj{Link: l})
		}
	}

	// BGP sessions. Peer address owned by an internal router → internal
	// session (deduplicated by requiring matching stanzas both ways);
	// otherwise external (already resolved by topology inference).
	addrOwner := map[network.IP]*network.Node{}
	for _, n := range topo.Nodes {
		for _, i := range configs[n.Name].Interfaces {
			if !i.Shutdown {
				addrOwner[i.Addr] = n
			}
		}
	}
	type pairKey struct{ a, b string }
	seen := map[pairKey]bool{}
	for _, n := range topo.Nodes {
		c := configs[n.Name]
		if c.BGP == nil {
			continue
		}
		for _, nbr := range c.BGP.Neighbors {
			peer := addrOwner[nbr.Addr]
			if peer == nil {
				continue // external; handled below via topo.Externals
			}
			pc := configs[peer.Name]
			if pc.BGP == nil {
				return nil, fmt.Errorf("protograph: %s peers with %s which does not run BGP", n.Name, peer.Name)
			}
			// Find the reciprocal stanza: peer must have a neighbor
			// statement for one of n's addresses.
			var back *config.BGPNeighbor
			for _, pn := range pc.BGP.Neighbors {
				if owner := addrOwner[pn.Addr]; owner == n {
					back = pn
					break
				}
			}
			if back == nil {
				return nil, fmt.Errorf("protograph: %s has a BGP neighbor %v on %s with no reciprocal stanza", n.Name, nbr.Addr, peer.Name)
			}
			if nbr.RemoteAS != pc.BGP.ASN || back.RemoteAS != c.BGP.ASN {
				return nil, fmt.Errorf("protograph: AS mismatch on session %s-%s", n.Name, peer.Name)
			}
			k := pairKey{n.Name, peer.Name}
			if n.Name > peer.Name {
				k = pairKey{peer.Name, n.Name}
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			kind := EBGP
			if nbr.IsInternal(c.BGP.ASN) {
				kind = IBGP
			}
			s := &BGPSession{Kind: kind, A: n, NbrAtA: nbr, B: peer, NbrAtB: back}
			// Attach the physical link when the peering addresses sit on
			// a shared subnet.
			for _, l := range topo.LinksOf(n) {
				if l.Peer(n) == peer && l.Subnet.Contains(nbr.Addr) {
					s.Link = l
					break
				}
			}
			g.Sessions = append(g.Sessions, s)
		}
	}
	for _, e := range topo.Externals {
		c := configs[e.Router.Name]
		nbr := config.FindBGPNeighbor(c, e.PeerAddr)
		if nbr == nil {
			return nil, fmt.Errorf("protograph: external peering %s has no neighbor stanza", e.Name)
		}
		g.Sessions = append(g.Sessions, &BGPSession{Kind: EBGPExternal, A: e.Router, NbrAtA: nbr, Ext: e})
	}
	sort.Slice(g.Sessions, func(i, j int) bool { return sessionLess(g.Sessions[i], g.Sessions[j]) })

	// iBGP speakers.
	speakers := map[string]*network.Node{}
	for _, s := range g.Sessions {
		if s.Kind == IBGP {
			speakers[s.A.Name] = s.A
			speakers[s.B.Name] = s.B
		}
	}
	for _, name := range sortedNames(speakers) {
		g.IBGPSpeakers = append(g.IBGPSpeakers, speakers[name])
	}

	nodes := len(topo.Nodes)
	g.sessionsOf = perNode(nodes, g.Sessions, func(s *BGPSession) (a, b *network.Node) { return s.A, s.B })
	g.ospfOf = perNode(nodes, g.OSPFAdjs, func(a *OSPFAdj) (_, _ *network.Node) { return a.Link.A, a.Link.B })
	g.ripOf = perNode(nodes, g.RIPAdjs, func(a *RIPAdj) (_, _ *network.Node) { return a.Link.A, a.Link.B })
	return g, nil
}

// perNode indexes items by the Node.Index of their endpoints (b may be
// nil), keeping item order within each node's list.
func perNode[T any](nodes int, items []T, ends func(T) (a, b *network.Node)) [][]T {
	out := make([][]T, nodes)
	for _, it := range items {
		a, b := ends(it)
		out[a.Index] = append(out[a.Index], it)
		if b != nil && b != a {
			out[b.Index] = append(out[b.Index], it)
		}
	}
	return out
}

// listOf returns n's list of a perNode index: nil for a nil node or one that
// is not g's. The list is shared; callers must not modify it.
func listOf[T any](g *Graph, idx [][]T, n *network.Node) []T {
	if n == nil || uint(n.Index) >= uint(len(idx)) || g.Topo.Nodes[n.Index] != n {
		return nil
	}
	l := idx[n.Index]
	return l[:len(l):len(l)]
}

func sessionLess(a, b *BGPSession) bool {
	an, bn := sessionKeyOf(a), sessionKeyOf(b)
	return an < bn
}

func sessionKeyOf(s *BGPSession) string {
	switch s.Kind {
	case EBGPExternal:
		return s.A.Name + "|ext|" + s.Ext.Name
	default:
		return s.A.Name + "|int|" + s.B.Name
	}
}

func sortedNames(m map[string]*network.Node) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ospfActive reports whether the endpoint runs OSPF on the link's subnet,
// and returns the interface cost on that endpoint's side.
func ospfActive(c *config.Router, l *network.Link, n *network.Node) (int, bool) {
	if c.OSPF == nil {
		return 0, false
	}
	ifName := l.IfaceOf(n)
	iface := c.Iface(ifName)
	if iface == nil || iface.Shutdown {
		return 0, false
	}
	for _, net := range c.OSPF.Networks {
		if net.Covers(iface.Prefix) || net == iface.Prefix {
			cost := iface.OSPFCost
			if cost <= 0 {
				cost = 1
			}
			return cost, true
		}
	}
	return 0, false
}

func ripActive(c *config.Router, l *network.Link, n *network.Node) bool {
	if c.RIP == nil {
		return false
	}
	iface := c.Iface(l.IfaceOf(n))
	if iface == nil || iface.Shutdown {
		return false
	}
	for _, net := range c.RIP.Networks {
		if net.Covers(iface.Prefix) || net == iface.Prefix {
			return true
		}
	}
	return false
}

// SessionsOf returns the sessions in which the router participates, in
// Sessions order.
func (g *Graph) SessionsOf(n *network.Node) []*BGPSession { return listOf(g, g.sessionsOf, n) }

// OSPFAdjsOf returns the OSPF adjacencies incident to the router.
func (g *Graph) OSPFAdjsOf(n *network.Node) []*OSPFAdj { return listOf(g, g.ospfOf, n) }

// RIPAdjsOf returns the RIP adjacencies incident to the router.
func (g *Graph) RIPAdjsOf(n *network.Node) []*RIPAdj { return listOf(g, g.ripOf, n) }

// RemoteEnd returns the far-end router of an internal session.
func (s *BGPSession) RemoteEnd(n *network.Node) *network.Node {
	if s.A == n {
		return s.B
	}
	return s.A
}

// StanzaOf returns the neighbor stanza configured at node n for this
// session.
func (s *BGPSession) StanzaOf(n *network.Node) *config.BGPNeighbor {
	if s.A == n {
		return s.NbrAtA
	}
	return s.NbrAtB
}

// HasCustomLocalPref reports whether any route-map reachable from a BGP
// import on this graph sets local-preference: the trigger for adding BGP
// loop-prevention bits (the paper's loop-detection hoisting, §6.1, skips
// them otherwise).
func (g *Graph) HasCustomLocalPref() bool {
	for _, s := range g.Sessions {
		for _, pair := range []struct {
			n   *network.Node
			nbr *config.BGPNeighbor
		}{{s.A, s.NbrAtA}, {s.B, s.NbrAtB}} {
			if pair.n == nil || pair.nbr == nil {
				continue
			}
			c := g.Configs[pair.n.Name]
			for _, mapName := range []string{pair.nbr.InMap, pair.nbr.OutMap} {
				if mapName == "" {
					continue
				}
				if rm := c.RouteMaps[mapName]; rm != nil {
					for _, cl := range rm.Clauses {
						if cl.SetLocalPref != 0 {
							return true
						}
					}
				}
			}
		}
	}
	return false
}
