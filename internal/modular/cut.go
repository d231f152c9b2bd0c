// Package modular implements assume/guarantee verification: it cuts a
// network at eBGP boundaries into components, derives typed interface
// contracts (the route each side of a cut session announces for the goal
// destination, in the encoder's environment-record vocabulary), verifies
// each component against its assumptions with the ordinary
// Compile/CheckGoal pipeline, and composes the per-component verdicts.
// Pod-isomorphic components share a canonical class key, so a fat-tree
// with thousands of routers verifies a handful of representative
// components. Anything outside the soundness envelope is reported as
// residue and falls back to the monolithic encoding.
package modular

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/network"
	"repro/internal/protograph"
)

// Component is one verification unit of a cut: a maximal set of routers
// connected by IGP adjacencies, iBGP sessions or link-resolved statics.
type Component struct {
	Index   int
	Routers []string // sorted
}

// Session is one direction of a cut eBGP session: From announces routes
// to To. The pair (From, To) crossing components yields two Sessions.
type Session struct {
	ID       string
	From, To string
	FromComp int
	ToComp   int
	// FromAddr is From's peering address (what To's neighbor stanza
	// names); ToAddr likewise.
	FromAddr network.IP
	ToAddr   network.IP
	Link     *network.Link
}

// Cut is a partition of the network into components plus the boundary
// sessions between them. Residue lists the static preconditions the
// network violates; a non-empty residue means the modular pipeline must
// fall back to the monolithic encoding for every goal.
type Cut struct {
	Components []*Component
	CompOf     map[string]int
	Sessions   []*Session // sorted by ID
	Residue    []string   // sorted, deduplicated
	Hash       string
}

// MultiComponent reports whether the cut actually split the network.
func (c *Cut) MultiComponent() bool { return len(c.Components) > 1 }

// Partition computes the component decomposition of a protocol graph.
// Routers are merged when routes or packets can cross between them
// outside the eBGP session vocabulary: OSPF and RIP adjacencies, iBGP
// sessions, and static routes resolving to a link peer. The remaining
// inter-component eBGP sessions become the cut. All iteration is over
// sorted or pre-sorted structures, so equal inputs produce equal cuts
// (and equal hashes) on every run.
func Partition(g *protograph.Graph) *Cut {
	parent := map[string]string{}
	for _, n := range g.Topo.Nodes {
		parent[n.Name] = n.Name
	}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Smaller name wins so the forest shape is deterministic.
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	for _, adj := range g.OSPFAdjs {
		union(adj.Link.A.Name, adj.Link.B.Name)
	}
	for _, adj := range g.RIPAdjs {
		union(adj.Link.A.Name, adj.Link.B.Name)
	}
	for _, s := range g.Sessions {
		if s.Kind == protograph.IBGP {
			union(s.A.Name, s.B.Name)
		}
	}
	// A static whose next hop resolves to a link peer moves packets
	// across the link without any routing protocol; keep both ends
	// together.
	for _, n := range g.Topo.Nodes {
		cfg := g.Configs[n.Name]
		for _, st := range cfg.Statics {
			for _, l := range g.Topo.LinksOf(n) {
				if st.Interface != "" && st.Interface == l.IfaceOf(n) {
					union(n.Name, l.Peer(n).Name)
				} else if st.NextHop != 0 && l.Subnet.Contains(st.NextHop) {
					union(n.Name, l.Peer(n).Name)
				}
			}
		}
	}

	cut := &Cut{CompOf: map[string]int{}}
	rootIdx := map[string]int{}
	for _, n := range g.Topo.Nodes { // Nodes are name-sorted
		r := find(n.Name)
		idx, ok := rootIdx[r]
		if !ok {
			idx = len(cut.Components)
			rootIdx[r] = idx
			cut.Components = append(cut.Components, &Component{Index: idx})
		}
		cut.CompOf[n.Name] = idx
		cut.Components[idx].Routers = append(cut.Components[idx].Routers, n.Name)
	}

	residue := map[string]bool{}
	for _, s := range g.Sessions {
		if s.Kind != protograph.EBGP {
			continue
		}
		ca, cb := cut.CompOf[s.A.Name], cut.CompOf[s.B.Name]
		if ca == cb {
			continue
		}
		if s.Link == nil {
			residue["multihop-ebgp-cut"] = true
			continue
		}
		aAddr, bAddr := s.Link.AAddr, s.Link.BAddr
		if s.Link.A != s.A {
			aAddr, bAddr = bAddr, aAddr
		}
		cut.Sessions = append(cut.Sessions,
			&Session{ID: s.A.Name + ">" + s.B.Name, From: s.A.Name, To: s.B.Name,
				FromComp: ca, ToComp: cb, FromAddr: aAddr, ToAddr: bAddr, Link: s.Link},
			&Session{ID: s.B.Name + ">" + s.A.Name, From: s.B.Name, To: s.A.Name,
				FromComp: cb, ToComp: ca, FromAddr: bAddr, ToAddr: aAddr, Link: s.Link})
	}
	sort.Slice(cut.Sessions, func(i, j int) bool { return cut.Sessions[i].ID < cut.Sessions[j].ID })

	if cut.MultiComponent() {
		scanResidue(g, cut, residue)
	}
	for r := range residue {
		cut.Residue = append(cut.Residue, r)
	}
	sort.Strings(cut.Residue)
	cut.Hash = hashCut(cut)
	return cut
}

// scanResidue records the static feature checks that the contract
// vocabulary cannot express soundly. Each rule is conservative: tripping
// one only costs the monolithic fallback, never a wrong verdict.
func scanResidue(g *protograph.Graph, cut *Cut, residue map[string]bool) {
	for _, n := range g.Topo.Nodes {
		cfg := g.Configs[n.Name]
		// Redistribution moves routes between protocol vocabularies; the
		// BGP-hop metric arithmetic behind contract derivation no longer
		// holds.
		if cfg.Redistributes() {
			residue["redistribution"] = true
		}
		if cfg.BGP != nil {
			if cfg.BGP.AlwaysCompareMED {
				residue["med"] = true
			}
			if len(cfg.BGP.Aggregates) > 0 {
				residue["aggregates"] = true
			}
			// Two sessions from the same neighbor AS activate MED
			// comparison in the encoder (its medActive rule).
			byAS := map[uint32]int{}
			for _, nb := range cfg.BGP.Neighbors {
				if nb.RouteReflectorClient {
					residue["route-reflector"] = true
				}
				byAS[nb.RemoteAS]++
				if byAS[nb.RemoteAS] > 1 {
					residue["med"] = true
				}
			}
		}
		if len(cfg.CommunityLists) > 0 {
			residue["communities"] = true
		}
		for _, name := range sortedKeys(cfg.RouteMaps) {
			for _, cl := range cfg.RouteMaps[name].Clauses {
				if cl.MatchCommunity != "" || len(cl.SetCommunity) > 0 || len(cl.DelCommunity) > 0 {
					// Community bits cross cuts but per-component
					// community universes differ; contracts pin them
					// to zero, which is only sound when nothing reads
					// or writes them.
					residue["communities"] = true
				}
				if cl.HasSetMED {
					residue["med"] = true
				}
				if cl.HasSetMetric {
					// set metric can shorten the advertised AS-path
					// length, breaking the monotone lower bound the
					// contract induction rests on.
					residue["set-metric"] = true
				}
				if cl.HasSetNextHop {
					residue["set-next-hop"] = true
				}
			}
		}
	}
	// Components containing iBGP speakers build peering-address network
	// copies whose cut announcements are not covered by the destination
	// contract; keep such networks monolithic.
	for _, s := range g.Sessions {
		if s.Kind == protograph.IBGP {
			residue["ibgp"] = true
		}
	}
	for _, s := range cut.Sessions {
		// The component encoder applies only the sender-side out-ACL on
		// a cut edge; a receiver-side in-ACL would be skipped.
		fromIf := s.Link.IfaceOf(g.Topo.Node(s.From))
		if ifc := g.Configs[s.From].Iface(fromIf); ifc != nil && ifc.InACL != "" {
			residue["acl-on-cut"] = true
		}
		// Environment records tie-break by peer address while internal
		// sessions tie-break by router id. Multipath selection ignores
		// the tie-break entirely; otherwise a cut endpoint choosing
		// between several BGP candidates could pick differently in the
		// two encodings.
		cfg := g.Configs[s.From]
		if cfg.BGP != nil && cfg.BGP.MaxPaths <= 1 && len(cfg.BGP.Neighbors) > 1 {
			residue["tie-break-at-cut"] = true
		}
	}
}

func hashCut(c *Cut) string {
	h := sha256.New()
	for _, comp := range c.Components {
		fmt.Fprintf(h, "comp %d %s\n", comp.Index, strings.Join(comp.Routers, ","))
	}
	for _, s := range c.Sessions {
		fmt.Fprintf(h, "sess %s %d>%d %v %v\n", s.ID, s.FromComp, s.ToComp, s.FromAddr, s.ToAddr)
	}
	for _, r := range c.Residue {
		fmt.Fprintf(h, "residue %s\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
