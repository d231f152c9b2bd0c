package simulator

import (
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/protograph"
)

// Hop is one forwarding target: an internal neighbor or an external peer.
type Hop struct {
	Node string // internal next hop ("" if external)
	Ext  string // external peer name ("" if internal)
}

func (h Hop) String() string {
	if h.Ext != "" {
		return "ext:" + h.Ext
	}
	return h.Node
}

// RouterState is the stable state reached by one router for the slice.
type RouterState struct {
	// PerProto holds the best record per protocol instance.
	PerProto map[config.Protocol]Record
	// Best is the overall best record installed in the FIB.
	Best Record
	// Hops are the control-plane forwarding decisions (several under
	// multipath).
	Hops []Hop
	// DeliveredLocal is set when the router delivers the packet onto a
	// connected subnet.
	DeliveredLocal bool
	// DroppedNull is set when a null0 static route blackholes the packet.
	DroppedNull bool
}

// Result is the outcome of simulating one slice: one destination IP under
// one environment.
type Result struct {
	DstIP  network.IP
	Env    *Environment
	States map[string]*RouterState
	// ExportsToExt holds the BGP record each router exports to each
	// external peer (keyed by peer name), for leak/equivalence checks.
	ExportsToExt map[string]Record
	Rounds       int
}

// numProtocols bounds config.Protocol: per-protocol tables are arrays.
const numProtocols = int(config.BGP) + 1

// Simulator computes stable states of the control plane for concrete
// environments. It is not safe for concurrent use.
type Simulator struct {
	G    *protograph.Graph
	Mode CompareMode

	// nodes is what evaluating each router reads of its own and its
	// neighbors' configuration, resolved once, by Node.Index.
	nodes []nodeInfo
	// extOrigins is the Origin of a route imported from each external
	// peer, by position in Topo.Externals; extSessions are the external
	// sessions in Sessions order, with that position.
	extOrigins  []string
	extSessions []extSession
	// ibgp lists the iBGP sessions with the position of their link in
	// Topo.Links (-1 for multihop sessions).
	ibgp []ibgpSession

	// linkDown and extDown flag the links and external peerings the
	// current Run's environment fails, by position in Topo.Links and
	// Topo.Externals; anyDown is false when it fails nothing, and then
	// neither is read.
	linkDown, extDown []bool
	anyDown           bool

	// cur holds each router's state during a run, by Node.Index; spare is
	// the buffer the next evaluation writes into, swapped with the state
	// it replaces. cands are the per-protocol candidate buffers of one
	// evaluation. All three are allocated by the first run and reused.
	cur   []*routerState
	spare *routerState
	cands [numProtocols][]cand

	// addrSlices caches per-address slices used for iBGP next-hop
	// resolution, keyed by destination address.
	addrSlices map[network.IP]*Result
	// inAddrSlice disables multihop iBGP sessions while computing an
	// address slice: iBGP next-hops must be resolvable by the IGP alone,
	// which also breaks the mutual recursion between address slices.
	inAddrSlice bool
	// sessUp caches the resolved iBGP session status for the current
	// environment.
	sessUp map[*protograph.BGPSession]bool
	envKey string
}

// nodeInfo is one router's configuration as its evaluation and its
// neighbors' evaluations read it.
type nodeInfo struct {
	node *network.Node
	cfg  *config.Router
	// bgpOrigin, ospfOrigin and ripOrigin are the Origin of a route
	// learned from this router over each protocol.
	bgpOrigin, ospfOrigin, ripOrigin string
	// rid and asn are the router id and AS its BGP advertisements carry.
	rid, asn uint32
	ospf     []igpAdj  // OSPFAdjsOf order
	rip      []igpAdj  // RIPAdjsOf order
	sessions []sessEnd // SessionsOf order
	links    []int     // positions in Topo.Links of LinksOf
	exts     []int     // positions in Topo.Externals of ExternalsOf
}

// igpAdj is one end of an OSPF or RIP adjacency: the far router, the
// link's position in Topo.Links and this end's interface cost.
type igpAdj struct {
	peer, link, cost int
}

// sessEnd is one router's end of a BGP session.
type sessEnd struct {
	s *protograph.BGPSession
	// peer is the far router (-1 on external sessions); link the position
	// of s.Link in Topo.Links (-1 when none); ext the position of s.Ext in
	// Topo.Externals (-1 on internal sessions).
	peer, link, ext int
	// own and far are the stanzas at this end and at the far end.
	own, far *config.BGPNeighbor
}

type ibgpSession struct {
	s    *protograph.BGPSession
	link int
}

type extSession struct {
	s   *protograph.BGPSession
	ext int
}

// routerState is one router's state during a run: a RouterState with
// the per-protocol bests in an array by Protocol (Invalid where none).
type routerState struct {
	proto       [numProtocols]Record
	best        Record
	hops        []Hop
	local, null bool
}

// cand is one candidate route of an evaluation: the record as it would be
// installed, except that via, when set, is still to be appended to its
// Path. Only the candidates that win are given a path of their own.
type cand struct {
	Record
	via string
	// redist marks a redistributed record, from the protocol whose best
	// it re-seeds: it forwards as that protocol's choice does.
	redist bool
	from   config.Protocol
}

func (c *cand) pathLen() int {
	if c.via != "" {
		return len(c.Path) + 1
	}
	return len(c.Path)
}

// installed is the candidate's record with its path completed.
func (c *cand) installed() Record {
	r := c.Record
	if c.via != "" {
		r.Path = extend(r.Path, c.via)
	}
	return r
}

// extend returns path with name appended, in an array of its own and of
// exact length, so that records can share paths: appending to a shared
// path always copies it.
func extend(path []string, name string) []string {
	out := make([]string, len(path)+1)
	copy(out, path)
	out[len(path)] = name
	return out
}

// New returns a simulator over the protocol graph.
func New(g *protograph.Graph) *Simulator {
	mode := CompareMode{}
	for _, c := range g.Configs {
		if c.BGP != nil && c.BGP.AlwaysCompareMED {
			mode.AlwaysCompareMED = true
		}
	}
	s := &Simulator{G: g, Mode: mode}
	topo := g.Topo
	s.nodes = make([]nodeInfo, len(topo.Nodes))
	// LinksOf and ExternalsOf list a router's links and peerings in Links
	// and Externals order, so their positions come in that order too.
	for i, n := range topo.Nodes {
		s.nodes[i].links = make([]int, 0, len(topo.LinksOf(n)))
		s.nodes[i].exts = make([]int, 0, len(topo.ExternalsOf(n)))
	}
	for p, l := range topo.Links {
		s.nodes[l.A.Index].links = append(s.nodes[l.A.Index].links, p)
		if l.B != l.A {
			s.nodes[l.B.Index].links = append(s.nodes[l.B.Index].links, p)
		}
	}
	s.extOrigins = make([]string, len(topo.Externals))
	for p, e := range topo.Externals {
		s.nodes[e.Router.Index].exts = append(s.nodes[e.Router.Index].exts, p)
		s.extOrigins[p] = "ebgp:" + e.Name
	}
	for _, sess := range g.Sessions {
		switch sess.Kind {
		case protograph.IBGP:
			s.ibgp = append(s.ibgp, ibgpSession{sess, s.linkAt(sess.A.Index, sess.Link)})
		case protograph.EBGPExternal:
			s.extSessions = append(s.extSessions, extSession{sess, s.extAt(sess.A.Index, sess.Ext)})
		}
	}
	for i, n := range topo.Nodes {
		cfg := g.Configs[n.Name]
		nd := &s.nodes[i]
		nd.node, nd.cfg, nd.rid = n, cfg, cfg.RouterID(n.Index)
		if cfg.OSPF != nil {
			nd.ospfOrigin = "ospf:" + n.Name
		}
		if cfg.RIP != nil {
			nd.ripOrigin = "rip:" + n.Name
		}
		if cfg.BGP != nil {
			nd.bgpOrigin, nd.asn = "bgp:"+n.Name, cfg.BGP.ASN
		}
		for _, adj := range g.OSPFAdjsOf(n) {
			cost := adj.CostA
			if n == adj.Link.B {
				cost = adj.CostB
			}
			nd.ospf = append(nd.ospf, igpAdj{adj.Link.Peer(n).Index, s.linkAt(i, adj.Link), cost})
		}
		for _, adj := range g.RIPAdjsOf(n) {
			nd.rip = append(nd.rip, igpAdj{adj.Link.Peer(n).Index, s.linkAt(i, adj.Link), 1})
		}
		nd.sessions = make([]sessEnd, 0, len(g.SessionsOf(n)))
		for _, sess := range g.SessionsOf(n) {
			se := sessEnd{s: sess, peer: -1, link: s.linkAt(i, sess.Link), ext: -1, own: sess.StanzaOf(n)}
			if sess.Kind == protograph.EBGPExternal {
				se.ext = s.extAt(i, sess.Ext)
			} else {
				peer := sess.RemoteEnd(n)
				se.peer, se.far = peer.Index, sess.StanzaOf(peer)
			}
			nd.sessions = append(nd.sessions, se)
		}
	}
	return s
}

// linkAt is the position in Topo.Links of one of router i's links, or -1
// for none.
func (s *Simulator) linkAt(i int, l *network.Link) int {
	for _, p := range s.nodes[i].links {
		if s.G.Topo.Links[p] == l {
			return p
		}
	}
	return -1
}

// extAt is the position in Topo.Externals of one of router i's external
// peerings.
func (s *Simulator) extAt(i int, e *network.External) int {
	for _, p := range s.nodes[i].exts {
		if s.G.Topo.Externals[p] == e {
			return p
		}
	}
	return -1
}

// maxRounds bounds the fixed-point iteration.
func (s *Simulator) maxRounds() int { return 4*len(s.G.Topo.Nodes) + 10 }

// Run simulates the control plane for packets destined to dstIP under the
// environment and returns the stable state. It returns an error if the
// control plane does not converge (e.g. a policy dispute cycle).
func (s *Simulator) Run(dstIP network.IP, env *Environment) (*Result, error) {
	s.setFailures(env)
	if err := s.resolveIBGP(env); err != nil {
		return nil, err
	}
	return s.runSlice(dstIP, env)
}

// setFailures resolves the environment's failed-link ids to flags.
func (s *Simulator) setFailures(env *Environment) {
	s.anyDown = len(env.FailedLinks) > 0
	if !s.anyDown {
		return
	}
	topo := s.G.Topo
	if s.linkDown == nil {
		s.linkDown = make([]bool, len(topo.Links))
		s.extDown = make([]bool, len(topo.Externals))
	}
	for i, l := range topo.Links {
		s.linkDown[i] = env.FailedLinks[LinkID(l.A.Name, l.B.Name)]
	}
	for i, e := range topo.Externals {
		s.extDown[i] = env.FailedLinks[ExtLinkID(e.Router.Name, e.Name)]
	}
}

// down and extIsDown report whether the environment fails the link or
// external peering at a position (-1: none).
func (s *Simulator) down(link int) bool { return s.anyDown && link >= 0 && s.linkDown[link] }

func (s *Simulator) extIsDown(ext int) bool { return s.anyDown && s.extDown[ext] }

// resolveIBGP computes which iBGP sessions are up: both peering addresses
// must be mutually reachable (the paper's per-next-hop network copies).
// Sessions riding a direct link are simply gated on that link. Without
// iBGP sessions there is nothing to resolve.
func (s *Simulator) resolveIBGP(env *Environment) error {
	if len(s.ibgp) == 0 {
		return nil
	}
	key := env.String()
	if s.sessUp != nil && s.envKey == key {
		return nil
	}
	s.envKey = key
	s.addrSlices = map[network.IP]*Result{}
	s.sessUp = map[*protograph.BGPSession]bool{}
	var multihop []*protograph.BGPSession
	for _, ib := range s.ibgp {
		if ib.link >= 0 {
			s.sessUp[ib.s] = !s.down(ib.link)
			continue
		}
		s.sessUp[ib.s] = true // optimistic start
		multihop = append(multihop, ib.s)
	}
	// Address slices are IGP-only (multihop iBGP disabled inside them), so
	// a single resolution pass suffices.
	for _, sess := range multihop {
		// NbrAtA.Addr is B's peering address and vice versa.
		upAB, err := s.addrReachable(sess.A.Name, sess.NbrAtA.Addr, env)
		if err != nil {
			return err
		}
		upBA, err := s.addrReachable(sess.B.Name, sess.NbrAtB.Addr, env)
		if err != nil {
			return err
		}
		s.sessUp[sess] = upAB && upBA
	}
	return nil
}

// addrReachable reports whether a packet from the router reaches the given
// address, using a dedicated slice.
func (s *Simulator) addrReachable(from string, addr network.IP, env *Environment) (bool, error) {
	slice, err := s.addrSlice(addr, env)
	if err != nil {
		return false, err
	}
	w := s.Walk(slice, from, config.Packet{DstIP: addr, Protocol: 6, DstPort: 179})
	return w.Outcomes[Delivered], nil
}

func (s *Simulator) addrSlice(addr network.IP, env *Environment) (*Result, error) {
	if r, ok := s.addrSlices[addr]; ok {
		return r, nil
	}
	s.inAddrSlice = true
	r, err := s.runSlice(addr, env)
	s.inAddrSlice = false
	if err != nil {
		return nil, err
	}
	s.addrSlices[addr] = r
	return r, nil
}

// AddrSlice returns the slice the last Run resolved its multihop iBGP
// sessions with for the peering address addr — addr's stable state with
// multihop iBGP off, which decides liveness and the recursive next hops
// toward that peer — or nil when the Run resolved none for addr.
func (s *Simulator) AddrSlice(addr network.IP) *Result { return s.addrSlices[addr] }

// runSlice iterates the per-router transfer functions to a fixed point.
// Routers are evaluated in Node.Index order, each against its neighbors'
// latest states, earlier routers' of this round included.
func (s *Simulator) runSlice(dstIP network.IP, env *Environment) (*Result, error) {
	if s.cur == nil {
		states := make([]routerState, len(s.nodes)+1)
		s.cur = make([]*routerState, len(s.nodes))
		for i := range s.cur {
			s.cur[i] = &states[i]
		}
		s.spare = &states[len(s.nodes)]
	}
	for _, st := range s.cur {
		*st = routerState{hops: st.hops[:0]}
	}
	rounds := 0
	for round := 0; ; round++ {
		if round >= s.maxRounds() {
			return nil, fmt.Errorf("simulator: no convergence for dst %v after %d rounds", dstIP, round)
		}
		changed := false
		for i := range s.cur {
			s.computeRouter(i, dstIP, env, s.spare)
			if !sameState(s.cur[i], s.spare) {
				changed = true
			}
			s.cur[i], s.spare = s.spare, s.cur[i]
		}
		if !changed {
			rounds = round + 1
			break
		}
	}
	res := &Result{DstIP: dstIP, Env: env, States: make(map[string]*RouterState, len(s.cur)), ExportsToExt: map[string]Record{}, Rounds: rounds}
	states := make([]RouterState, len(s.cur))
	nhops := 0
	for _, st := range s.cur {
		nhops += len(st.hops)
	}
	hops := make([]Hop, 0, nhops)
	for i, st := range s.cur {
		rs := &states[i]
		valid := 0
		for _, r := range st.proto {
			if r.Valid {
				valid++
			}
		}
		rs.PerProto = make(map[config.Protocol]Record, valid)
		for p, r := range st.proto {
			if r.Valid {
				rs.PerProto[config.Protocol(p)] = r
			}
		}
		rs.Best, rs.DeliveredLocal, rs.DroppedNull = st.best, st.local, st.null
		if len(st.hops) > 0 {
			start := len(hops)
			hops = append(hops, st.hops...)
			rs.Hops = hops[start:len(hops):len(hops)]
		}
		res.States[s.nodes[i].node.Name] = rs
	}
	// Exports to external neighbors (after convergence).
	for _, es := range s.extSessions {
		sess := es.s
		rec := s.exportBGP(sess.A.Index, sess, sess.NbrAtA, dstIP)
		if rec.Valid {
			rec.Path = extend(rec.Path, sess.A.Name)
		}
		if s.extIsDown(es.ext) {
			rec = Invalid()
		}
		res.ExportsToExt[sess.Ext.Name] = rec
	}
	return res, nil
}

func sameState(a, b *routerState) bool {
	for p := range a.proto {
		if !equalRoute(a.proto[p], b.proto[p]) {
			return false
		}
	}
	return equalRoute(a.best, b.best)
}

// add appends a candidate for the protocol.
func (s *Simulator) add(p config.Protocol, rec Record, via string) {
	s.cands[p] = append(s.cands[p], cand{Record: rec, via: via})
}

// addRedist appends a candidate redistributed from protocol from.
func (s *Simulator) addRedist(p config.Protocol, rec Record, from config.Protocol) {
	s.cands[p] = append(s.cands[p], cand{Record: rec, redist: true, from: from})
}

// computeRouter evaluates router i's selection against the current state
// of its neighbors into ns.
func (s *Simulator) computeRouter(i int, dstIP network.IP, env *Environment, ns *routerState) {
	nd := &s.nodes[i]
	cfg := nd.cfg
	own := s.cur[i]
	for p := range s.cands {
		s.cands[p] = s.cands[p][:0]
	}

	// Connected.
	for _, ifc := range cfg.Interfaces {
		if ifc.Shutdown || !ifc.Prefix.Contains(dstIP) {
			continue
		}
		s.add(config.Connected, Record{
			Valid: true, PrefixLen: ifc.Prefix.Len, AD: 0, LocalPref: 100,
			Proto: config.Connected, Origin: ifc.Name,
		}, "")
	}

	// Static.
	for _, st := range cfg.Statics {
		if !st.Prefix.Contains(dstIP) {
			continue
		}
		rec := Record{
			Valid: true, PrefixLen: st.Prefix.Len, AD: st.Distance(), LocalPref: 100,
			Proto: config.Static, Origin: st.Prefix.String(), Drop: st.Drop,
		}
		if !st.Drop {
			hop, ok := s.resolveNextHop(nd, st)
			if !ok {
				continue // unresolvable next hop: route not installed
			}
			rec.FromNode, rec.FromExt = hop.Node, hop.Ext
		}
		s.add(config.Static, rec, "")
	}

	// OSPF.
	if cfg.OSPF != nil {
		ad := cfg.OSPFDistance()
		for _, ifc := range cfg.Interfaces {
			if !ifc.Prefix.Contains(dstIP) || !cfg.RunsOSPF(ifc) {
				continue
			}
			s.add(config.OSPF, Record{
				Valid: true, PrefixLen: ifc.Prefix.Len, AD: ad, LocalPref: 100,
				Proto: config.OSPF, Origin: ifc.Name,
			}, "")
		}
		for _, rd := range cfg.OSPF.Redistribute {
			if rec, ok := s.redistribute(cfg, rd, own, config.OSPF, ad, dstIP); ok {
				s.addRedist(config.OSPF, rec, rd.From)
			}
		}
		for _, adj := range nd.ospf {
			if s.down(adj.link) {
				continue
			}
			pr := &s.cur[adj.peer].proto[config.OSPF]
			if !pr.Valid {
				continue
			}
			metric := pr.Metric + adj.cost
			if metric > 65535 || slices.Contains(pr.Path, nd.node.Name) {
				continue
			}
			peer := &s.nodes[adj.peer]
			in := *pr
			in.Metric = metric
			in.AD = ad
			in.FromNode, in.FromExt = peer.node.Name, ""
			in.Origin = peer.ospfOrigin
			in.RID = uint32(adj.peer) + 1
			s.add(config.OSPF, in, peer.node.Name)
		}
	}

	// RIP: shortest paths with unit weights (§4).
	if cfg.RIP != nil {
		ad := cfg.RIPDistance()
		for _, ifc := range cfg.Interfaces {
			if !ifc.Prefix.Contains(dstIP) || !cfg.RunsRIP(ifc) {
				continue
			}
			s.add(config.RIP, Record{
				Valid: true, PrefixLen: ifc.Prefix.Len, AD: ad, LocalPref: 100,
				Proto: config.RIP, Origin: ifc.Name,
			}, "")
		}
		for _, rd := range cfg.RIP.Redistribute {
			if rec, ok := s.redistribute(cfg, rd, own, config.RIP, ad, dstIP); ok {
				s.addRedist(config.RIP, rec, rd.From)
			}
		}
		for _, adj := range nd.rip {
			if s.down(adj.link) {
				continue
			}
			pr := &s.cur[adj.peer].proto[config.RIP]
			if !pr.Valid {
				continue
			}
			if pr.Metric+1 >= 16 || slices.Contains(pr.Path, nd.node.Name) {
				continue // RIP infinity
			}
			peer := &s.nodes[adj.peer]
			in := *pr
			in.Metric++
			in.AD = ad
			in.FromNode, in.FromExt = peer.node.Name, ""
			in.Origin = peer.ripOrigin
			in.RID = uint32(adj.peer) + 1
			s.add(config.RIP, in, peer.node.Name)
		}
	}

	// BGP.
	if cfg.BGP != nil {
		for _, p := range cfg.BGP.Networks {
			if !p.Contains(dstIP) || !cfg.Owns(p) {
				continue
			}
			s.add(config.BGP, Record{
				Valid: true, PrefixLen: p.Len, AD: cfg.BGPDistance(false), LocalPref: 100,
				Proto: config.BGP, Origin: "network " + p.String(),
			}, "")
		}
		for _, rd := range cfg.BGP.Redistribute {
			if rec, ok := s.redistribute(cfg, rd, own, config.BGP, cfg.BGPDistance(false), dstIP); ok {
				rec.LocalPref = 100
				s.addRedist(config.BGP, rec, rd.From)
			}
		}
		for k := range nd.sessions {
			if c, ok := s.importBGP(i, &nd.sessions[k], dstIP, env); ok {
				s.cands[config.BGP] = append(s.cands[config.BGP], c)
			}
		}
	}

	// Selection: the best candidate of each protocol, then the best of
	// those in Protocol order — the order the encoder folds them in, so a
	// tie goes to the earlier protocol on both sides.
	var chosen [numProtocols]int
	overall := -1
	for p := range ns.proto {
		cs := s.cands[p]
		chosen[p] = -1
		for k := range cs {
			if !cs[k].Valid {
				continue
			}
			if chosen[p] < 0 || BetterIntra(cs[k].Record, cs[chosen[p]].Record, s.Mode) {
				chosen[p] = k
			}
		}
		ns.proto[p] = Invalid()
		if chosen[p] < 0 {
			continue
		}
		ns.proto[p] = cs[chosen[p]].installed()
		if overall < 0 || Better(ns.proto[p], ns.proto[overall], s.Mode) {
			overall = p
		}
	}
	ns.best, ns.hops, ns.local, ns.null = Invalid(), ns.hops[:0], false, false
	if overall >= 0 {
		ns.best = ns.proto[overall]
		switch {
		case ns.best.Proto == config.Connected:
			ns.local = true
		case ns.best.Drop:
			ns.null = true
		default:
			s.decideForwarding(nd, ns, config.Protocol(overall), 1<<overall)
		}
	}
}

// decideForwarding appends to ns.hops the forwarding targets of protocol
// p's chosen candidates: those equal to its best, or equally good under
// multipath. A chosen redistributed candidate forwards as its source
// protocol's choice does, as the encoder's does (DESIGN §7 item 12), so
// a route learned over multihop iBGP and redistributed into OSPF resolves
// its next hop recursively instead of jumping to the iBGP peer. visiting
// holds the protocols on the recursion's path, which a mutual-
// redistribution cycle would revisit.
func (s *Simulator) decideForwarding(nd *nodeInfo, ns *routerState, p config.Protocol, visiting uint) {
	best := ns.proto[p]
	multipath := false
	switch p {
	case config.OSPF:
		multipath = nd.cfg.OSPF.MaxPaths > 1
	case config.BGP:
		multipath = nd.cfg.BGP.MaxPaths > 1
	}
	cands := s.cands[p]
	for k := range cands {
		c := &cands[k]
		if !c.Valid {
			continue
		}
		use := false
		if multipath {
			use = EquallyGood(c.Record, best, s.Mode)
		} else {
			use = sameAttrs(c.Record, best) && c.pathLen() == len(best.Path)
		}
		switch {
		case !use:
		case c.redist:
			if visiting&(1<<c.from) == 0 {
				s.decideForwarding(nd, ns, c.from, visiting|1<<c.from)
			}
		default:
			ns.hops = s.appendHops(ns.hops, nd, &c.Record)
		}
	}
}

// appendHops appends the record's forwarding target(s) not already in
// hops. iBGP-learned routes recursively resolve toward the peer's address
// through the cached address slice.
func (s *Simulator) appendHops(hops []Hop, nd *nodeInfo, rec *Record) []Hop {
	if rec.FromExt != "" {
		return addHop(hops, Hop{Ext: rec.FromExt})
	}
	if rec.FromNode == "" {
		return hops
	}
	if rec.Proto == config.BGP && rec.Internal {
		// Recursive next-hop lookup: forward toward the iBGP peer's
		// address using that address's slice (§4 iBGP modeling).
		addr := s.peerAddrOf(nd, rec.FromNode)
		if addr != 0 {
			if slice, ok := s.addrSlices[addr]; ok {
				st := slice.States[nd.node.Name]
				if st != nil && st.Best.Valid && !st.DeliveredLocal {
					for _, h := range st.Hops {
						hops = addHop(hops, h)
					}
					return hops
				}
			}
		}
		// Directly connected iBGP peer (session over a link): fall
		// through to the direct hop.
	}
	return addHop(hops, Hop{Node: rec.FromNode})
}

func addHop(hops []Hop, h Hop) []Hop {
	for _, have := range hops {
		if have == h {
			return hops
		}
	}
	return append(hops, h)
}

// peerAddrOf returns the peering address this router uses to reach the
// named iBGP peer, or 0.
func (s *Simulator) peerAddrOf(nd *nodeInfo, peer string) network.IP {
	n := nd.node
	for _, se := range nd.sessions {
		sess := se.s
		if sess.Kind != protograph.IBGP || sess.Link != nil {
			continue
		}
		if sess.A == n && sess.B.Name == peer {
			return sess.NbrAtA.Addr
		}
		if sess.B == n && sess.A.Name == peer {
			return sess.NbrAtB.Addr
		}
	}
	return 0
}

// importBGP evaluates the import transfer at router i over one of its
// sessions.
func (s *Simulator) importBGP(i int, se *sessEnd, dstIP network.IP, env *Environment) (cand, bool) {
	nd := &s.nodes[i]
	sess := se.s
	var in cand
	switch {
	case sess.Kind == protograph.EBGPExternal:
		if sess.A != nd.node {
			return cand{}, false
		}
		if s.extIsDown(se.ext) {
			return cand{}, false
		}
		ann := env.Anns[sess.Ext.Name]
		if ann == nil || !ann.Prefix.Contains(dstIP) {
			return cand{}, false
		}
		in.Record = Record{
			Valid: true, PrefixLen: ann.Prefix.Len, LocalPref: 100,
			Metric: ann.PathLen, MED: ann.MED, NbrASN: sess.Ext.ASN,
			Proto: config.BGP, Origin: s.extOrigins[se.ext],
			FromExt: sess.Ext.Name, RID: uint32(sess.Ext.PeerAddr),
		}
		for _, c := range ann.Communities {
			in.Record = in.withComm(c, true)
		}
	default:
		if s.down(se.link) {
			return cand{}, false
		}
		if sess.Kind == protograph.IBGP && sess.Link == nil && (s.inAddrSlice || !s.sessUp[sess]) {
			return cand{}, false
		}
		peer := &s.nodes[se.peer]
		exp := s.exportBGP(se.peer, sess, se.far, dstIP)
		// exp's path is still without the peer, which is not this router.
		if !exp.Valid || peer.node == nd.node || slices.Contains(exp.Path, nd.node.Name) {
			return cand{}, false
		}
		in = cand{Record: exp, via: peer.node.Name}
		in.FromNode, in.FromExt = peer.node.Name, ""
		in.Origin = peer.bgpOrigin
		in.NbrASN = peer.asn
		in.RID = peer.rid
		if sess.Kind == protograph.EBGP {
			in.LocalPref = 100 // local-pref is not transitive across ASes
			in.Internal = false
		} else {
			in.Internal = true
		}
	}
	cfg := nd.cfg
	in.AD = cfg.BGPDistance(in.Internal)
	in.Proto = config.BGP
	// The receiving stanza's client flag marks routes learned from RR
	// clients.
	in.FromClient = se.own.RouteReflectorClient
	if se.own.InMap != "" {
		out, ok := applyRouteMap(cfg, se.own.InMap, in.Record, dstIP)
		if !ok {
			return cand{}, false
		}
		in.Record = out
	}
	return in, true
}

// exportBGP evaluates the export transfer at the sending router for a
// session, given the sender's stanza for it: iBGP re-export rules,
// route-reflector semantics, metric increment and the outbound route map.
// The returned record's path does not include the sender yet.
func (s *Simulator) exportBGP(sender int, sess *protograph.BGPSession, stanza *config.BGPNeighbor, dstIP network.IP) Record {
	b := &s.cur[sender].proto[config.BGP]
	if !b.Valid {
		return Invalid()
	}
	toIBGP := sess.Kind == protograph.IBGP
	if b.Internal && toIBGP {
		// Routes learned via iBGP are not re-exported to iBGP peers,
		// unless route reflection applies: reflect client routes to
		// everyone, non-client routes to clients only.
		if !b.FromClient && !stanza.RouteReflectorClient {
			return Invalid()
		}
	}
	cfg := s.nodes[sender].cfg
	out := *b
	if !toIBGP {
		out.Metric++
		out.MED = 0 // MED is non-transitive across ASes
		// Aggregation (§4): summary-only aggregates suppress the more
		// specific routes, modeled as shortening the advertised length.
		for _, agg := range cfg.BGP.Aggregates {
			if agg.SummaryOnly && agg.Prefix.Contains(dstIP) && out.PrefixLen > agg.Prefix.Len {
				out.PrefixLen = agg.Prefix.Len
			}
		}
	}
	if stanza.OutMap != "" {
		o, ok := applyRouteMap(cfg, stanza.OutMap, out, dstIP)
		if !ok {
			return Invalid()
		}
		out = o
	}
	if out.Metric > 255 {
		return Invalid()
	}
	return out
}

// redistOrigins is the Origin of a route redistributed from each protocol.
var redistOrigins = func() (o [numProtocols]string) {
	for p := range o {
		o[p] = fmt.Sprintf("redist %v", config.Protocol(p))
	}
	return o
}()

// redistributedHere reports whether a router's per-protocol best is a
// record that router redistributed itself: every import overwrites Origin
// with the neighbor's, so only a local redistribution leaves one of
// redistOrigins in place.
func redistributedHere(r Record) bool {
	for _, o := range redistOrigins {
		if r.Origin == o {
			return true
		}
	}
	return false
}

// redistribute seeds a record from another protocol's current best. A
// record the router already redistributed is not redistributed there
// again — the encoder's ghost-route rule (DESIGN §7 item 4): a route
// redistributed from connected into BGP is not carried on from BGP into
// OSPF at the same router.
func (s *Simulator) redistribute(cfg *config.Router, rd config.Redistribution, st *routerState, into config.Protocol, ad int, dstIP network.IP) (Record, bool) {
	if uint(rd.From) >= uint(numProtocols) || !st.proto[rd.From].Valid || redistributedHere(st.proto[rd.From]) {
		return Invalid(), false
	}
	rec := st.proto[rd.From]
	rec.Proto = into
	rec.AD = ad
	rec.Metric = rd.SeedMetric(into)
	rec.Internal = false
	rec.Origin = redistOrigins[rd.From]
	// Forwarding for a redistributed route follows the source protocol's
	// decision; keep FromNode/FromExt so hops resolve.
	if rd.RouteMap != "" {
		out, ok := applyRouteMap(cfg, rd.RouteMap, rec, dstIP)
		if !ok {
			return Invalid(), false
		}
		rec = out
	}
	return rec, true
}

// resolveNextHop resolves a static route's next hop to a forwarding target.
func (s *Simulator) resolveNextHop(nd *nodeInfo, st *config.StaticRoute) (Hop, bool) {
	n := nd.node
	links, exts := s.G.Topo.LinksOf(n), s.G.Topo.ExternalsOf(n)
	if st.Interface != "" {
		for k, l := range links {
			if l.IfaceOf(n) == st.Interface && !s.down(nd.links[k]) {
				return Hop{Node: l.Peer(n).Name}, true
			}
		}
		for k, e := range exts {
			if e.Iface == st.Interface && !s.extIsDown(nd.exts[k]) {
				return Hop{Ext: e.Name}, true
			}
		}
		return Hop{}, false
	}
	for k, l := range links {
		if l.AddrOf(l.Peer(n)) == st.NextHop && !s.down(nd.links[k]) {
			return Hop{Node: l.Peer(n).Name}, true
		}
	}
	for k, e := range exts {
		if e.PeerAddr == st.NextHop && !s.extIsDown(nd.exts[k]) {
			return Hop{Ext: e.Name}, true
		}
	}
	return Hop{}, false
}

// applyRouteMap runs a route map over a record under the hoisted prefix
// semantics: prefix-list tests become tests on the destination IP plus
// bounds on the record's prefix length (§6.1).
func applyRouteMap(cfg *config.Router, name string, rec Record, dstIP network.IP) (Record, bool) {
	rm := cfg.RouteMaps[name]
	if rm == nil {
		return Invalid(), false
	}
	for _, cl := range rm.Clauses {
		if !clauseMatches(cfg, cl, rec, dstIP) {
			continue
		}
		if cl.Action == config.Deny {
			return Invalid(), false
		}
		out := rec
		if cl.SetLocalPref != 0 {
			out.LocalPref = int(cl.SetLocalPref)
		}
		if cl.HasSetMetric {
			out.Metric = cl.SetMetric
		}
		if cl.HasSetMED {
			out.MED = cl.SetMED
		}
		for _, c := range cl.SetCommunity {
			out = out.withComm(c, true)
		}
		for _, listName := range cl.DelCommunity {
			if l := cfg.CommunityLists[listName]; l != nil {
				for _, c := range l.Values {
					out = out.withComm(c, false)
				}
			}
		}
		out.Metric += cl.SetPrepend
		return out, true
	}
	return Invalid(), false // implicit deny
}

func clauseMatches(cfg *config.Router, cl *config.RouteMapClause, rec Record, dstIP network.IP) bool {
	if cl.MatchPrefixList != "" {
		pl := cfg.PrefixLists[cl.MatchPrefixList]
		if pl == nil || !pl.Permits(network.Prefix{Addr: dstIP, Len: rec.PrefixLen}) {
			return false
		}
	}
	if cl.MatchCommunity != "" {
		l := cfg.CommunityLists[cl.MatchCommunity]
		if l == nil {
			return false
		}
		any := false
		for _, c := range l.Values {
			if rec.HasComm(c) {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	return true
}
