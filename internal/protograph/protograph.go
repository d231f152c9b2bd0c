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
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

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
	slices.SortStableFunc(g.Instances, func(a, b Instance) int {
		if c := strings.Compare(a.Router.Name, b.Router.Name); c != 0 {
			return c
		}
		return cmp.Compare(a.Proto, b.Proto)
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
	nIfaces, nInternal := 0, 0
	for _, n := range topo.Nodes {
		nIfaces += len(configs[n.Name].Interfaces)
	}
	addrOwner := make(map[network.IP]*network.Node, nIfaces)
	for _, n := range topo.Nodes {
		for _, i := range configs[n.Name].Interfaces {
			if !i.Shutdown {
				addrOwner[i.Addr] = n
			}
		}
	}
	// owners[n][k] owns the address of n's k-th neighbor stanza.
	owners := make([][]*network.Node, len(topo.Nodes))
	for _, n := range topo.Nodes {
		if c := configs[n.Name]; c.BGP != nil {
			owners[n.Index] = make([]*network.Node, len(c.BGP.Neighbors))
			for k, nbr := range c.BGP.Neighbors {
				owners[n.Index][k] = addrOwner[nbr.Addr]
				if owners[n.Index][k] != nil {
					nInternal++
				}
			}
		}
	}
	// Sessions are allocated in one block: one between two routers takes
	// a stanza at each end. (A router peering with itself takes one; the
	// block is only a guess, and another follows if it is short.)
	sessions := make([]BGPSession, 0, nInternal/2+len(topo.Externals))
	if cap(sessions) > 0 {
		g.Sessions = make([]*BGPSession, 0, cap(sessions))
	}
	newSession := func(s BGPSession) *BGPSession {
		if len(sessions) == cap(sessions) {
			sessions = make([]BGPSession, 0, 16)
		}
		sessions = append(sessions, s)
		return &sessions[len(sessions)-1]
	}
	seen := make(map[[2]int]bool, nInternal/2) // unordered router pairs, by Node.Index
	for _, n := range topo.Nodes {
		c := configs[n.Name]
		if c.BGP == nil {
			continue
		}
		for k, nbr := range c.BGP.Neighbors {
			peer := owners[n.Index][k]
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
			for j, owner := range owners[peer.Index] {
				if owner == n {
					back = pc.BGP.Neighbors[j]
					break
				}
			}
			if back == nil {
				return nil, fmt.Errorf("protograph: %s has a BGP neighbor %v on %s with no reciprocal stanza", n.Name, nbr.Addr, peer.Name)
			}
			if nbr.RemoteAS != pc.BGP.ASN || back.RemoteAS != c.BGP.ASN {
				return nil, fmt.Errorf("protograph: AS mismatch on session %s-%s", n.Name, peer.Name)
			}
			k := [2]int{min(n.Index, peer.Index), max(n.Index, peer.Index)}
			if seen[k] {
				continue
			}
			seen[k] = true
			kind := EBGP
			if nbr.IsInternal(c.BGP.ASN) {
				kind = IBGP
			}
			s := newSession(BGPSession{Kind: kind, A: n, NbrAtA: nbr, B: peer, NbrAtB: back})
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
		g.Sessions = append(g.Sessions, newSession(BGPSession{Kind: EBGPExternal, A: e.Router, NbrAtA: nbr, Ext: e}))
	}
	sortSessions(g.Sessions)

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
	count := make([]int, nodes)
	total := 0
	for _, it := range items {
		a, b := ends(it)
		count[a.Index]++
		total++
		if b != nil && b != a {
			count[b.Index]++
			total++
		}
	}
	all := make([]T, total)
	out := make([][]T, nodes)
	for i, c := range count {
		if c > 0 {
			out[i], all = all[:0:c], all[c:]
		}
	}
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

// sortSessions orders the sessions by their keys, "A|int|B" or
// "A|ext|peer", built once into one string. The sort is sort.Slice, which
// is not stable: given the same comparison results it makes the same
// permutation, so equal keys keep the order they always had.
func sortSessions(sessions []*BGPSession) {
	var buf []byte
	ends := make([]int, len(sessions))
	for i, s := range sessions {
		buf = append(buf, s.A.Name...)
		if s.Kind == EBGPExternal {
			buf = append(append(buf, "|ext|"...), s.Ext.Name...)
		} else {
			buf = append(append(buf, "|int|"...), s.B.Name...)
		}
		ends[i] = len(buf)
	}
	all := string(buf)
	type keyed struct {
		key string
		s   *BGPSession
	}
	ks := make([]keyed, len(sessions))
	start := 0
	for i, s := range sessions {
		ks[i], start = keyed{all[start:ends[i]], s}, ends[i]
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	for i := range ks {
		sessions[i] = ks[i].s
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
	iface := c.Iface(l.IfaceOf(n))
	if iface == nil || !c.RunsOSPF(iface) {
		return 0, false
	}
	if iface.OSPFCost <= 0 {
		return 1, true
	}
	return iface.OSPFCost, true
}

func ripActive(c *config.Router, l *network.Link, n *network.Node) bool {
	if c.RIP == nil {
		return false
	}
	iface := c.Iface(l.IfaceOf(n))
	return iface != nil && c.RunsRIP(iface)
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
