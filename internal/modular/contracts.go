package modular

import (
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/protograph"
)

// Contract is the typed route-set for one direction of a cut session: if
// Valid, From guarantees that anything it announces to To for the goal
// destination carries Prefix with an AS-path length of at least Metric,
// and To may assume the same; if !Valid, From guarantees silence. The
// exact announcement (Prefix at exactly Metric, or nothing) is the
// guarantee each component discharges; the lower bound is the invariant
// every component may assume for free (see DESIGN.md §15).
type Contract struct {
	Session *Session
	Valid   bool
	Prefix  network.Prefix
	Metric  int
}

// Contracts carries the full contract assignment for a cut and one goal
// destination, plus the shortest-path structure it was derived from.
type Contracts struct {
	BySession   map[string]*Contract
	Prefix      network.Prefix // the originated prefix covering the goal subnet
	Dist        map[string]int // BGP-hop distance from the originators; absent = unreachable
	Originators []string       // sorted
	Residue     []string       // sorted
}

// maxMetric is the largest AS-path length the encoder treats as a live
// route (its validity cap); contracts past it are dead announcements.
const maxMetric = 255

// DeriveContracts computes the assume/guarantee route-sets for a cut and
// a goal subnet. The originators are the routers that both own and
// BGP-originate a prefix covering the subnet; every other router's best
// announcement for that prefix travels some BGP session path from an
// originator, gaining one metric per eBGP hop, so the 0/1-BFS distance
// (eBGP hops cost 1, iBGP hops cost 0) is the least metric any valid cut
// announcement can carry. A cut session whose sender cannot reach an
// originator — or only past the metric cap — gets an invalid (silence)
// contract.
func DeriveContracts(g *protograph.Graph, cut *Cut, subnet network.Prefix) *Contracts {
	con := &Contracts{BySession: map[string]*Contract{}, Dist: map[string]int{}}
	residue := map[string]bool{}

	prefixes := map[network.Prefix][]string{}
	for _, n := range g.Topo.Nodes {
		cfg := g.Configs[n.Name]
		if cfg.BGP == nil {
			continue
		}
		for _, p := range cfg.BGP.Networks {
			if p.Overlaps(subnet) && ownsPrefix(g, cfg, p) {
				prefixes[p] = append(prefixes[p], n.Name)
			}
		}
	}
	var pkeys []network.Prefix
	for p := range prefixes {
		pkeys = append(pkeys, p)
	}
	sort.Slice(pkeys, func(i, j int) bool {
		if pkeys[i].Addr != pkeys[j].Addr {
			return pkeys[i].Addr < pkeys[j].Addr
		}
		return pkeys[i].Len < pkeys[j].Len
	})
	switch len(pkeys) {
	case 0:
		// No internal BGP origin for the destination: nothing can cross
		// a cut for this goal, so every contract is silence. That is
		// sound — any valid cut announcement would need a support chain
		// ending at an origination, and there is none.
	case 1:
		con.Prefix = pkeys[0]
		con.Originators = append(con.Originators, prefixes[pkeys[0]]...)
		sort.Strings(con.Originators)
		if !con.Prefix.Covers(subnet) {
			// Part of the subnet lies outside the announced prefix;
			// announcements for that slice of destinations are not in
			// the contract vocabulary.
			residue["origin-partial-cover"] = true
		}
	default:
		// Competing originated prefixes select by longest match per
		// destination; a single (prefix, metric) contract cannot say
		// which wins where.
		residue["ambiguous-origin"] = true
	}

	if len(con.Originators) > 0 && len(residue) == 0 {
		bfs01(g, con.Originators, con.Dist)
	}

	for _, s := range cut.Sessions {
		c := &Contract{Session: s, Prefix: con.Prefix}
		if d, ok := con.Dist[s.From]; ok && d+1 <= maxMetric {
			c.Valid = true
			c.Metric = d + 1
		}
		con.BySession[s.ID] = c
	}

	for r := range residue {
		con.Residue = append(con.Residue, r)
	}
	sort.Strings(con.Residue)
	return con
}

// ownsPrefix mirrors the encoder's origination rule: a router originates
// a BGP network statement only when some non-shutdown interface or some
// static route carries exactly that prefix.
func ownsPrefix(g *protograph.Graph, cfg *config.Router, p network.Prefix) bool {
	for _, ifc := range cfg.Interfaces {
		if !ifc.Shutdown && ifc.Prefix == p {
			return true
		}
	}
	for _, st := range cfg.Statics {
		if st.Prefix == p {
			return true
		}
	}
	return false
}

// bfs01 fills dist with 0/1-BFS distances from the sources over the BGP
// session graph: iBGP sessions relay without an AS hop (weight 0), eBGP
// sessions cost one (weight 1). Both directions of every internal
// session count — contract metrics must lower-bound announcements along
// any session path, including ones that double back inside a component.
func bfs01(g *protograph.Graph, sources []string, dist map[string]int) {
	type edge struct{ to, w int }
	nodes := g.Topo.Nodes
	adj := make([][]edge, len(nodes))
	for _, s := range g.Sessions {
		w := 1
		switch s.Kind {
		case protograph.IBGP:
			w = 0
		case protograph.EBGP:
			w = 1
		default: // external sessions do not connect internal routers
			continue
		}
		adj[s.A.Index] = append(adj[s.A.Index], edge{s.B.Index, w})
		adj[s.B.Index] = append(adj[s.B.Index], edge{s.A.Index, w})
	}
	const unreached = -1
	d := make([]int, len(nodes))
	for i := range d {
		d[i] = unreached
	}
	// The deque is a stack of front pushes ahead of a FIFO of back pushes;
	// nothing is ever taken from the back, so the two never mix.
	var front, back []int
	for _, src := range sources {
		if n := g.Topo.Node(src); n != nil && d[n.Index] == unreached {
			d[n.Index] = 0
			back = append(back, n.Index)
		}
	}
	for head := 0; len(front) > 0 || head < len(back); {
		var u int
		if last := len(front) - 1; last >= 0 {
			u, front = front[last], front[:last]
		} else {
			u, head = back[head], head+1
		}
		for _, e := range adj[u] {
			if nd := d[u] + e.w; d[e.to] == unreached || nd < d[e.to] {
				d[e.to] = nd
				if e.w == 0 {
					front = append(front, e.to)
				} else {
					back = append(back, e.to)
				}
			}
		}
	}
	for i, v := range d {
		if v != unreached {
			dist[nodes[i].Name] = v
		}
	}
}

// String renders a contract for diagnostics and violated-contract names.
func (c *Contract) String() string {
	if !c.Valid {
		return fmt.Sprintf("%s: silence", c.Session.ID)
	}
	return fmt.Sprintf("%s: %v metric %d", c.Session.ID, c.Prefix, c.Metric)
}
