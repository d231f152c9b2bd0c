package tiered

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/protograph"
	"repro/internal/provenance"
	"repro/internal/simulator"
)

// mayEdge is one edge of the over-approximate forwarding graph: router
// `from` could, for some destination in the edge's prefix scope and some
// environment, forward traffic to router `to` (both by Node.Index).
type mayEdge struct {
	from, to int
	// pfx scopes the edge to destinations it can carry (static routes);
	// scoped=false means any destination (adjacencies, BGP sessions).
	pfx    network.Prefix
	scoped bool
	// out and in are the ACLs a packet crossing the edge meets, resolved
	// once: the sender's out-ACL and the receiver's in-ACL on the first
	// link between the routers. Mirrors the simulator's Walk; sessions
	// without a physical link ("teleport" hops) carry none.
	out, in aclRef
}

// aclRef is an interface's directional ACL under the name the interface
// uses for it; the zero value means no filter.
type aclRef struct {
	name string
	acl  *config.ACL
}

// Analysis precomputes everything about one network that the tier reuses
// across goals: the may-graph, the forwarding-equivalence-class boundary
// prefixes, and the preconditions of the deterministic path. It is cheap
// to build (linear in the configuration) and safe to cache alongside the
// protocol graph. Decide is safe for concurrent use.
type Analysis struct {
	G *protograph.Graph

	// cfgs are the routers' configurations by Node.Index; filtered marks
	// the routers with an interface ACL (only theirs can block an edge).
	cfgs     []*config.Router
	filtered []bool

	// mu guards the simulator, which is not safe for concurrent use, and
	// planes, which memoises plane by representative destination and
	// menu environment for the Analysis' lifetime. Each pair is simulated
	// at most once (sims counts the runs, menuTries the pairs the
	// simulated-falsification rule asked for); the planes handed out are
	// never written after they are built.
	mu        sync.Mutex
	sim       *simulator.Simulator
	planes    map[planeKey]memoPlane
	sims      int
	menuTries int

	// may is the over-approximate forwarding graph: each router's outgoing
	// edges by Node.Index, sorted by far end; rev its incoming ones.
	may [][]mayEdge
	rev [][]*mayEdge

	// boundaries are all prefixes any destination-dependent test in the
	// network can distinguish; destinations between consecutive boundary
	// edges are forwarding-equivalent.
	boundaries []network.Prefix

	// detReason is non-empty when the deterministic path is unavailable
	// for the whole network (named residue reason).
	detReason string
	// aclReason is non-empty when some data-plane ACL matches packet
	// fields other than the destination address, making a single
	// representative packet per FEC insufficient.
	aclReason string
	// exposed marks the routers an external announcement can reach
	// (exposedRouters); peerAddrs are the multihop iBGP peering addresses
	// (peeringAddrs). The environment-independence check reads both.
	exposed   []bool
	peerAddrs []network.IP
}

// NewAnalysis builds the tier's per-network state from the protocol
// graph.
func NewAnalysis(g *protograph.Graph) *Analysis {
	a := &Analysis{G: g, sim: simulator.New(g), planes: map[planeKey]memoPlane{}}
	a.cfgs = make([]*config.Router, len(g.Topo.Nodes))
	a.filtered = make([]bool, len(g.Topo.Nodes))
	for i, n := range g.Topo.Nodes {
		a.cfgs[i] = g.Configs[n.Name]
		for _, ifc := range a.cfgs[i].Interfaces {
			a.filtered[i] = a.filtered[i] || ifc.InACL != "" || ifc.OutACL != ""
		}
	}
	a.buildMayGraph()
	a.collectBoundaries()
	a.detReason = detPrecondition(g, a.cfgs)
	a.aclReason = aclPrecondition(a.cfgs)
	a.exposed = exposedRouters(a.cfgs)
	a.peerAddrs = peeringAddrs(g)
	return a
}

// addMay inserts a directed may-edge, deduplicating unscoped duplicates.
func (a *Analysis) addMay(e mayEdge) {
	for _, have := range a.may[e.from] {
		if have.to == e.to && !have.scoped {
			return // already unconditionally connected
		}
	}
	a.may[e.from] = append(a.may[e.from], e)
}

// buildMayGraph collects every mechanism by which a router can come to
// forward traffic to an internal neighbor, under any environment:
//
//   - IGP adjacencies (OSPF, RIP) carry routes, so traffic can flow both
//     ways across them;
//   - every internal BGP session, with or without a shared link: multihop
//     iBGP next hops resolve recursively and the simulator/encoder fall
//     back to a direct hop, so the session endpoints themselves are the
//     conservative edge;
//   - static routes resolved to a neighbor, scoped to the static's
//     prefix.
//
// Redistribution adds no edges: a redistributed route forwards along the
// source protocol's decision, which one of the mechanisms above already
// covers.
func (a *Analysis) buildMayGraph() {
	topo := a.G.Topo
	// Room for every edge a router can get, so that appending never
	// moves an edge list.
	room := make([]int, len(topo.Nodes))
	for _, adj := range a.G.OSPFAdjs {
		room[adj.Link.A.Index]++
		room[adj.Link.B.Index]++
	}
	for _, adj := range a.G.RIPAdjs {
		room[adj.Link.A.Index]++
		room[adj.Link.B.Index]++
	}
	for _, sess := range a.G.Sessions {
		if sess.Kind != protograph.EBGPExternal {
			room[sess.A.Index]++
			room[sess.B.Index]++
		}
	}
	total := 0
	for i, n := range topo.Nodes {
		room[i] += len(a.cfgs[i].Statics) * len(topo.LinksOf(n))
		total += room[i]
	}
	all := make([]mayEdge, total)
	a.may = make([][]mayEdge, len(topo.Nodes))
	for i := range a.may {
		a.may[i], all = all[:0:room[i]], all[room[i]:]
	}
	both := func(x, y *network.Node) {
		a.addMay(mayEdge{from: x.Index, to: y.Index})
		a.addMay(mayEdge{from: y.Index, to: x.Index})
	}
	for _, adj := range a.G.OSPFAdjs {
		both(adj.Link.A, adj.Link.B)
	}
	for _, adj := range a.G.RIPAdjs {
		both(adj.Link.A, adj.Link.B)
	}
	for _, sess := range a.G.Sessions {
		if sess.Kind != protograph.EBGPExternal { // externals enter via imports, not hops
			both(sess.A, sess.B)
		}
	}
	for i, n := range topo.Nodes {
		for _, st := range a.cfgs[i].Statics {
			if st.Drop {
				continue
			}
			for _, l := range topo.LinksOf(n) {
				peer := l.Peer(n)
				match := false
				if st.Interface != "" {
					match = l.IfaceOf(n) == st.Interface
				} else {
					match = l.AddrOf(peer) == st.NextHop
				}
				if match {
					a.addMay(mayEdge{from: n.Index, to: peer.Index, pfx: st.Prefix, scoped: true})
				}
			}
		}
	}
	incoming := make([]int, len(topo.Nodes))
	for _, edges := range a.may {
		// Nodes are name-sorted, so index order is name order.
		slices.SortStableFunc(edges, func(x, y mayEdge) int { return x.to - y.to })
		for i := range edges {
			e := &edges[i]
			if a.filtered[e.from] || a.filtered[e.to] {
				fn, tn := topo.Nodes[e.from], topo.Nodes[e.to]
				if link := firstLink(topo, fn, tn); link != nil {
					e.out = ifaceACL(a.cfgs[e.from], link.IfaceOf(fn), false)
					e.in = ifaceACL(a.cfgs[e.to], link.IfaceOf(tn), true)
				}
			}
			incoming[e.to]++
		}
	}
	a.rev = make([][]*mayEdge, len(topo.Nodes))
	revAll := make([]*mayEdge, total)
	for i := range a.rev {
		a.rev[i], revAll = revAll[:0:incoming[i]], revAll[incoming[i]:]
	}
	for _, edges := range a.may {
		for i := range edges {
			a.rev[edges[i].to] = append(a.rev[edges[i].to], &edges[i])
		}
	}
}

// firstLink is the first link between the two routers in from's
// LinksOf order (Topology.FindLink's), or nil.
func firstLink(topo *network.Topology, from, to *network.Node) *network.Link {
	for _, l := range topo.LinksOf(from) {
		if l.Peer(from) == to {
			return l
		}
	}
	return nil
}

// collectBoundaries gathers every prefix a destination-dependent test in
// the network can distinguish: interface subnets, static destinations,
// BGP network statements and aggregates, prefix-list entries (hoisted
// route-map tests are destination tests), and ACL destination prefixes.
// Destinations falling strictly between boundary edges take identical
// branches everywhere, so one representative per interval suffices.
func (a *Analysis) collectBoundaries() {
	add := func(p network.Prefix) { a.boundaries = append(a.boundaries, p) }
	for _, cfg := range a.cfgs {
		for _, i := range cfg.Interfaces {
			add(i.Prefix)
		}
		for _, st := range cfg.Statics {
			add(st.Prefix)
		}
		if cfg.BGP != nil {
			for _, p := range cfg.BGP.Networks {
				add(p)
			}
			for _, agg := range cfg.BGP.Aggregates {
				add(agg.Prefix)
			}
		}
		for _, pl := range cfg.PrefixLists {
			for _, e := range pl.Entries {
				add(e.Prefix)
			}
		}
		for _, acl := range cfg.ACLs {
			for _, e := range acl.Entries {
				if e.DstPrefix.Len > 0 {
					add(e.DstPrefix)
				}
			}
		}
	}
	slices.SortFunc(a.boundaries, func(p, q network.Prefix) int {
		if p.Addr != q.Addr {
			if p.Addr < q.Addr {
				return -1
			}
			return 1
		}
		return p.Len - q.Len
	})
	a.boundaries = slices.Compact(a.boundaries)
}

// repLimit bounds how many forwarding-equivalence classes the
// deterministic path will simulate before declaring residue.
const repLimit = 2048

// reps returns one representative destination per forwarding-equivalence
// class intersecting the region: the region's first address plus every
// boundary-prefix edge that falls inside it.
func (a *Analysis) reps(region network.Prefix) ([]network.IP, bool) {
	lo, hi := uint64(region.First()), uint64(region.Last())
	cuts := map[uint64]bool{lo: true}
	for _, p := range a.boundaries {
		f, l := uint64(p.First()), uint64(p.Last())
		if f > lo && f <= hi {
			cuts[f] = true
		}
		if l+1 > lo && l+1 <= hi {
			cuts[l+1] = true
		}
		if len(cuts) > repLimit {
			return nil, false
		}
	}
	sorted := make([]uint64, 0, len(cuts))
	for c := range cuts {
		sorted = append(sorted, c)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]network.IP, len(sorted))
	for i, c := range sorted {
		out[i] = network.IP(uint32(c))
	}
	return out, true
}

// detPrecondition names the reason the deterministic path is unsound for
// this network, or "" when its layers settle in order to one stable state
// without announcements, which the prefix-length bound of simulate then
// shows to forward the same in every environment (DESIGN.md §14, "The
// layered fragment"):
//
//   - "dynamic-redistribution": the redistribution of dynamic protocols
//     (OSPF, RIP, BGP) into one another has a cycle over protocol kinds,
//     or some of it carries a route map. Acyclic redistribution lets the
//     protocols settle in topological order, each taking the selections
//     of the ones before it as seed routes and feeding nothing back.
//   - "ibgp-session": an iBGP session reflects routes (either end marks
//     the other a route-reflector client), or a network with iBGP has a
//     router that compares MED across neighbor ASes. Without reflection
//     an iBGP-learned route is never re-exported to an iBGP peer.
//   - "internal-session-policy": an internal session, iBGP or eBGP, has a
//     clause that rewrites preference attributes (local-pref, metric,
//     MED, prepend, next hop) or touches communities, which can create
//     preference cycles with multiple stable states. External-session
//     policy stays unrestricted — it only shapes routes the prefix-length
//     bound already dominates.
func detPrecondition(g *protograph.Graph, cfgs []*config.Router) string {
	if _, ok := redistributionOrder(cfgs); !ok {
		return "dynamic-redistribution"
	}
	compareMED := false
	for _, cfg := range cfgs {
		compareMED = compareMED || (cfg.BGP != nil && cfg.BGP.AlwaysCompareMED)
	}
	for _, sess := range g.Sessions {
		if sess.Kind == protograph.EBGPExternal {
			continue
		}
		if sess.Kind == protograph.IBGP && (compareMED || sess.NbrAtA.RouteReflectorClient || sess.NbrAtB.RouteReflectorClient) {
			return "ibgp-session"
		}
		if rewrites(cfgs[sess.A.Index], sess.NbrAtA) || rewrites(cfgs[sess.B.Index], sess.NbrAtB) {
			return "internal-session-policy"
		}
	}
	return ""
}

// redistributionOrder reads the network's dynamic redistribution as a
// graph over protocol kinds — an edge From → Into per dynamic
// `redistribute` statement on any router — and returns its transitive
// closure, feeds[from][into]. ok is false when the graph has a cycle or
// some dynamic redistribution carries a route map.
func redistributionOrder(cfgs []*config.Router) (feeds [config.BGP + 1][config.BGP + 1]bool, ok bool) {
	add := func(into config.Protocol, rds []config.Redistribution) bool {
		for _, rd := range rds {
			if !rd.From.Dynamic() {
				continue
			}
			if rd.RouteMap != "" {
				return false
			}
			feeds[rd.From][into] = true
		}
		return true
	}
	for _, cfg := range cfgs {
		ok := (cfg.OSPF == nil || add(config.OSPF, cfg.OSPF.Redistribute)) &&
			(cfg.RIP == nil || add(config.RIP, cfg.RIP.Redistribute)) &&
			(cfg.BGP == nil || add(config.BGP, cfg.BGP.Redistribute))
		if !ok {
			return feeds, false
		}
	}
	for via := range feeds {
		for from := range feeds {
			for into := range feeds {
				feeds[from][into] = feeds[from][into] || (feeds[from][via] && feeds[via][into])
			}
		}
	}
	for p := range feeds {
		if feeds[p][p] {
			return feeds, false
		}
	}
	return feeds, true
}

// exposedRouters marks, by Node.Index, the routers whose installed route
// an external announcement can reach: the BGP speakers, and every router
// once BGP is redistributed into an IGP anywhere in the network.
func exposedRouters(cfgs []*config.Router) []bool {
	feeds, _ := redistributionOrder(cfgs)
	all := feeds[config.BGP][config.OSPF] || feeds[config.BGP][config.RIP]
	out := make([]bool, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = all || cfg.BGP != nil
	}
	return out
}

// peeringAddrs lists the addresses whose slices decide the liveness of
// the multihop iBGP sessions and their recursive next hops: both peering
// addresses of each session without a shared link, in session order,
// without repeats.
func peeringAddrs(g *protograph.Graph) []network.IP {
	var out []network.IP
	for _, sess := range g.Sessions {
		if sess.Kind != protograph.IBGP || sess.Link != nil {
			continue
		}
		for _, addr := range [2]network.IP{sess.NbrAtA.Addr, sess.NbrAtB.Addr} {
			if !slices.Contains(out, addr) {
				out = append(out, addr)
			}
		}
	}
	return out
}

// rewrites reports whether a clause of the stanza's route maps rewrites
// preference attributes or touches communities.
func rewrites(cfg *config.Router, nbr *config.BGPNeighbor) bool {
	for _, mapName := range [2]string{nbr.InMap, nbr.OutMap} {
		if mapName == "" {
			continue
		}
		rm := cfg.RouteMaps[mapName]
		if rm == nil {
			continue
		}
		for _, cl := range rm.Clauses {
			if cl.SetLocalPref != 0 || cl.HasSetMetric || cl.HasSetMED ||
				cl.SetPrepend != 0 || cl.HasSetNextHop ||
				len(cl.SetCommunity) > 0 || len(cl.DelCommunity) > 0 ||
				cl.MatchCommunity != "" {
				return true
			}
		}
	}
	return false
}

// aclPrecondition names the reason one representative packet per FEC is
// insufficient, or "": every interface ACL must branch on the
// destination address only (any source, any protocol, full port
// ranges), so the zero-valued representative packet exercises the same
// branches as every packet of its class.
func aclPrecondition(cfgs []*config.Router) string {
	for _, cfg := range cfgs {
		for _, i := range cfg.Interfaces {
			for _, name := range []string{i.InACL, i.OutACL} {
				if name == "" {
					continue
				}
				acl := cfg.ACLs[name]
				if acl == nil {
					continue
				}
				for _, e := range acl.Entries {
					if e.SrcPrefix.Len > 0 || e.Protocol >= 0 ||
						e.SrcPortLo != 0 || e.SrcPortHi != 65535 ||
						e.DstPortLo != 0 || e.DstPortHi != 65535 {
						return "acl-matches-non-destination-fields"
					}
				}
			}
		}
	}
	return ""
}

// wholeSpace is the destination region of unrestricted properties.
var wholeSpace = network.Prefix{}

// --- may-graph queries -------------------------------------------------

// delivers reports whether the router can deliver locally for some
// destination in the region: a non-shutdown interface subnet overlaps it.
func delivers(cfg *config.Router, region network.Prefix) bool {
	for _, i := range cfg.Interfaces {
		if !i.Shutdown && overlapsRegion(i.Prefix, region) {
			return true
		}
	}
	return false
}

func overlapsRegion(p, region network.Prefix) bool {
	return p.Overlaps(region)
}

// mayReach over-approximates data-plane reachability: can traffic from
// src, for some destination in the region and some environment, arrive
// at a router that delivers it locally? avoid (optional) removes a
// router entirely, giving the over-approximation of reach-avoiding used
// for waypoint proofs. The returned origins name the ACLs whose definite
// blocks pruned the search — the provenance a verdict that relies on
// unreachability rests on.
func (a *Analysis) mayReach(src string, region network.Prefix, avoid string) (bool, []provenance.Origin) {
	sn := a.G.Topo.Node(src)
	if src == avoid || sn == nil {
		return false, nil
	}
	av := -1
	if n := a.G.Topo.Node(avoid); n != nil {
		av = n.Index
	}
	nodes := a.G.Topo.Nodes
	var blockers []provenance.Origin
	visited := make([]bool, len(nodes))
	visited[sn.Index] = true
	queue := []int{sn.Index}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		if delivers(a.cfgs[at], region) {
			return true, nil
		}
		for i := range a.may[at] {
			e := &a.may[at][i]
			if visited[e.to] || e.to == av || (e.scoped && !overlapsRegion(e.pfx, region)) {
				continue
			}
			if origin, blocked := a.edgeBlocked(e, region); blocked {
				blockers = append(blockers, origin)
				continue
			}
			visited[e.to] = true
			queue = append(queue, e.to)
		}
	}
	provenance.SortOrigins(blockers)
	return false, provenance.DedupeOrigins(blockers)
}

// mayReachable answers mayReach (no avoided router) for every source at
// once, by Node.Index: one sweep backwards from the delivering routers
// over the same in-scope, unblocked edges.
func (a *Analysis) mayReachable(region network.Prefix) []bool {
	reach := make([]bool, len(a.may))
	var queue []int
	for i, cfg := range a.cfgs {
		if delivers(cfg, region) {
			reach[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, e := range a.rev[at] {
			if reach[e.from] || (e.scoped && !overlapsRegion(e.pfx, region)) {
				continue
			}
			if _, blocked := a.edgeBlocked(e, region); !blocked {
				reach[e.from] = true
				queue = append(queue, e.from)
			}
		}
	}
	return reach
}

// edgeBlocked reports whether the data-plane edge is provably closed for
// every packet destined into the region — the sender's out-ACL or the
// receiver's in-ACL denies all such packets — and names the ACL that
// closes it.
func (a *Analysis) edgeBlocked(e *mayEdge, region network.Prefix) (provenance.Origin, bool) {
	nodes := a.G.Topo.Nodes
	if e.out.acl != nil && aclDefinitelyDenies(e.out.acl, region) {
		return provenance.Origin{Router: nodes[e.from].Name, Kind: "acl", Name: e.out.name}, true
	}
	if e.in.acl != nil && aclDefinitelyDenies(e.in.acl, region) {
		return provenance.Origin{Router: nodes[e.to].Name, Kind: "acl", Name: e.in.name}, true
	}
	return provenance.Origin{}, false
}

// ifaceACL resolves the interface's directional ACL; no interface, no
// ACL reference or a dangling one all mean no filter.
func ifaceACL(cfg *config.Router, ifaceName string, inbound bool) aclRef {
	iface := cfg.Iface(ifaceName)
	if ifaceName == "" || iface == nil {
		return aclRef{}
	}
	name := iface.OutACL
	if inbound {
		name = iface.InACL
	}
	if name == "" {
		return aclRef{}
	}
	return aclRef{name, cfg.ACLs[name]}
}

// aclDefinitelyDenies is a conservative ordered scan: true only when no
// packet with a destination in the region can be permitted. A permit
// entry that could match some such packet defeats the block; a deny
// entry that certainly matches all of them (any source, any protocol,
// full ports, destination covering the region) establishes it; the
// implicit tail denies whatever falls through.
func aclDefinitelyDenies(acl *config.ACL, region network.Prefix) bool {
	for _, e := range acl.Entries {
		mayMatch := e.DstPrefix.Len == 0 || e.DstPrefix.Overlaps(region)
		if e.Action == config.Permit {
			if mayMatch {
				return false
			}
			continue
		}
		coversAll := e.DstPrefix.Len == 0 || e.DstPrefix.Covers(region)
		unconditional := e.SrcPrefix.Len == 0 && e.Protocol < 0 &&
			e.SrcPortLo == 0 && e.SrcPortHi == 65535 &&
			e.DstPortLo == 0 && e.DstPortHi == 65535
		if coversAll && unconditional {
			return true
		}
	}
	return true // implicit deny
}

// loopCandidates are the routers whose configuration can close a
// forwarding cycle (config.Router.MayLoop), by Node.Index.
func (a *Analysis) loopCandidates() []int {
	var out []int
	for i, cfg := range a.cfgs {
		if cfg.MayLoop() {
			out = append(out, i)
		}
	}
	return out
}

// mgmtAddr is a management interface address and its owning router.
type mgmtAddr struct {
	Router string
	Addr   network.IP
}

// managementAddrs returns every management interface address inside the
// region, in deterministic order.
func (a *Analysis) managementAddrs(region network.Prefix) []mgmtAddr {
	var out []mgmtAddr
	for i, n := range a.G.Topo.Nodes {
		for _, ifc := range a.cfgs[i].Interfaces {
			if ifc.Management && region.Contains(ifc.Addr) {
				out = append(out, mgmtAddr{n.Name, ifc.Addr})
			}
		}
	}
	return out
}
