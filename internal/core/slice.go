package core

import (
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/protograph"
	"repro/internal/provenance"
	"repro/internal/simulator"
	"repro/internal/smt"
)

// candidate is one route offer at a router, with its forwarding
// resolution.
type candidate struct {
	rec *Record
	// Exactly one of the following applies.
	hop       *Hop            // forward to a neighbor / external peer
	local     bool            // deliver onto a connected subnet
	drop      bool            // null0 blackhole
	redist    bool            // follow the source protocol's forwarding
	redistSrc config.Protocol //   ... which is this one
	ibgpVia   network.IP      // resolve through this address's slice
	ibgpPeer  string          //   ... toward this iBGP peer
}

// pktFields is the packet header a slice's data plane sees.
type pktFields struct {
	src, dst, sport, dport, proto *smt.Term
}

// encodeSlice builds the full encoding for one destination.
func (m *Model) encodeSlice(name string, dstIP *smt.Term, isAddr bool) (*Slice, error) {
	sp := m.encSpan.Start("slice:" + name)
	defer sp.End()
	terms0, recs0 := m.Ctx.NumTerms(), m.NumRecordVars
	defer func() {
		sp.SetInt("terms", int64(m.Ctx.NumTerms()-terms0))
		sp.SetInt("record_vars", int64(m.NumRecordVars-recs0))
	}()
	c := m.Ctx
	g := m.G
	sl := &Slice{
		Name: name, DstIP: dstIP,
		Env:            map[string]*Record{},
		ExtImports:     map[string]*Record{},
		ExtExports:     map[string]*Record{},
		BestProto:      map[string]map[config.Protocol]*Record{},
		Best:           map[string]*Record{},
		CtrlFwd:        map[string]map[Hop]*smt.Term{},
		DataFwd:        map[string]map[Hop]*smt.Term{},
		DeliveredLocal: map[string]*smt.Term{},
		DroppedNull:    map[string]*smt.Term{},
	}

	// Environment records: one symbolic announcement per external peer.
	for _, e := range g.Topo.Externals {
		m.setOrigin(provenance.Origin{Router: e.Router.Name, Proto: "bgp", Kind: "env", Name: e.Name})
		sl.Env[e.Name] = m.envRecord(sl, e)
	}
	m.setOrigin(provenance.Origin{})

	// Pass A: allocate the selected-record variables that break the
	// cross-router cycles (one per dynamic protocol instance).
	for _, n := range g.Topo.Nodes {
		cfg := g.Configs[n.Name]
		sl.BestProto[n.Name] = map[config.Protocol]*Record{}
		for _, p := range cfg.Protocols() {
			switch p {
			case config.OSPF:
				sl.BestProto[n.Name][p] = m.recVar(name+"|"+n.Name+"|best.ospf", false, uint64(cfg.OSPFDistance()))
			case config.RIP:
				sl.BestProto[n.Name][p] = m.recVar(name+"|"+n.Name+"|best.rip", false, uint64(cfg.RIPDistance()))
			case config.BGP:
				sl.BestProto[n.Name][p] = m.recVar(name+"|"+n.Name+"|best.bgp", true, uint64(cfg.BGPDistance(false)))
			}
		}
	}

	// Pass B: per-router candidates, selection constraints, forwarding.
	for _, n := range g.Topo.Nodes {
		if err := m.encodeRouter(sl, n, isAddr); err != nil {
			return nil, err
		}
	}

	// Exports to external neighbors.
	for _, s := range g.Sessions {
		if s.Kind != protograph.EBGPExternal {
			continue
		}
		exp := m.exportBGP(sl, s.A, s)
		exp = exp.gate(c, m.linkUp(simulator.ExtLinkID(s.A.Name, s.Ext.Name)))
		m.setOrigin(provenance.Origin{Router: s.A.Name, Proto: "bgp", Kind: "neighbor", Name: "ext." + s.Ext.Name})
		sl.ExtExports[s.Ext.Name] = m.wrapVar(name+"|extout|"+s.Ext.Name, exp, true)
	}
	m.setOrigin(provenance.Origin{})
	return sl, nil
}

// pkt returns the packet fields this slice's ACLs test: the main slice
// uses the fully symbolic packet; address slices model the BGP session
// traffic (TCP/179) toward the fixed address, matching the simulator.
func (m *Model) pkt(sl *Slice) pktFields {
	c := m.Ctx
	if sl.DstIP == m.DstIP {
		return pktFields{src: m.SrcIP, dst: m.DstIP, sport: m.SrcPort, dport: m.DstPort, proto: m.IPProto}
	}
	return pktFields{
		src: c.BV(0, WidthIP), dst: sl.DstIP,
		sport: c.BV(0, 16), dport: c.BV(179, 16), proto: c.BV(6, 8),
	}
}

// envRecord allocates the symbolic environment announcement of one
// external peer.
func (m *Model) envRecord(sl *Slice, e *network.External) *Record {
	c := m.Ctx
	r := m.recVar(sl.Name+"|env|"+e.Name, true, uint64(0))
	// The peer chooses whether and what to announce; well-formedness:
	// prefix length ≤ 32 and AS-path length ≤ 255.
	m.assert(c.Implies(r.Valid, c.Ule(r.PrefixLen, c.BV(32, WidthPrefixLen))))
	m.assert(c.Implies(r.Valid, c.Ule(r.Metric, c.BV(255, WidthMetric))))
	if !m.hoisting {
		// Naive encoding: the announced prefix is explicit and must
		// cover the destination (FBM over a symbolic length).
		m.assert(c.Implies(r.Valid, m.fbmSym(r.Prefix, sl.DstIP, r.PrefixLen)))
	}
	// Fields the environment does not control.
	r.AD = c.BV(uint64(m.G.Configs[e.Router.Name].BGPDistance(false)), WidthAD)
	r.LocalPref = c.BV(100, WidthLP)
	r.Internal = c.False()
	r.FromClient = c.False()
	r.RID = c.BV(uint64(e.PeerAddr), WidthRID)
	if m.medActive {
		r.NbrASN = c.BV(uint64(e.ASN), WidthASN)
	}
	for _, rt := range m.risky {
		r.Through[rt] = c.False()
	}
	return r
}

// encodeRouter builds all candidates of one router, asserts the selection
// constraints, and derives the forwarding indicators.
func (m *Model) encodeRouter(sl *Slice, n *network.Node, isAddr bool) error {
	c := m.Ctx
	cfg := m.G.Configs[n.Name]
	cands := map[config.Protocol][]*candidate{}

	// Connected and static candidates (selected as term folds).
	cands[config.Connected] = m.connectedCands(sl, cfg)
	sl.BestProto[n.Name][config.Connected] = selectBest(c, recsOf(cands[config.Connected]),
		func(a, b *Record) *smt.Term { return betterIntra(c, a, b, m.mode) }, m.inv())
	if len(cfg.Statics) > 0 {
		cands[config.Static] = m.staticCands(sl, n, cfg)
		sl.BestProto[n.Name][config.Static] = selectBest(c, recsOf(cands[config.Static]),
			func(a, b *Record) *smt.Term { return betterIntra(c, a, b, m.mode) }, m.inv())
	}

	// Dynamic protocols: candidates against neighbors' selected-record
	// variables, then assert the fold.
	if cfg.OSPF != nil {
		cands[config.OSPF] = m.ospfCands(sl, n, cfg)
	}
	if cfg.RIP != nil {
		cands[config.RIP] = m.ripCands(sl, n, cfg)
	}
	if cfg.BGP != nil {
		var err error
		cands[config.BGP], err = m.bgpCands(sl, n, cfg, isAddr)
		if err != nil {
			return err
		}
	}
	for _, p := range []config.Protocol{config.OSPF, config.RIP, config.BGP} {
		v := sl.BestProto[n.Name][p]
		if v == nil {
			continue
		}
		m.setOrigin(provenance.Origin{Router: n.Name, Proto: p.String(), Kind: "selection"})
		fold := selectBest(c, recsOf(cands[p]),
			func(a, b *Record) *smt.Term { return betterIntra(c, a, b, m.mode) }, m.inv())
		m.assertRecEq(v, fold)
	}

	// Overall best across protocols (term fold; merged with the
	// per-protocol best by slicing, a separate variable otherwise).
	protos := cfg.Protocols()
	var protoBests []*Record
	for _, p := range protos {
		if bp := sl.BestProto[n.Name][p]; bp != nil {
			protoBests = append(protoBests, bp)
		}
	}
	m.setOrigin(provenance.Origin{Router: n.Name, Proto: "overall", Kind: "selection"})
	best := selectBest(c, protoBests,
		func(a, b *Record) *smt.Term { return betterOverall(c, a, b, m.mode) }, m.inv())
	best = m.wrapVar(sl.Name+"|"+n.Name+"|best.overall", best, true)
	sl.Best[n.Name] = best

	// Forwarding: which protocol won, and which candidate within it.
	protoWins := map[config.Protocol]*smt.Term{}
	for _, p := range protos {
		bp := sl.BestProto[n.Name][p]
		if bp == nil {
			continue
		}
		protoWins[p] = c.And(bp.Valid, best.Valid, sameChoice(c, bp, best, m.mode))
	}

	type fwdInfo struct {
		fwd         map[Hop]*smt.Term
		local, drop *smt.Term
		// any is the disjunction of all chosen-candidate indicators; the
		// redundant constraint bp.Valid → any mirrors the paper's
		// relational "best equals one alternative" clause and gives the
		// solver direct propagation instead of case splits on the fold.
		any *smt.Term
	}
	infoMemo := map[config.Protocol]*fwdInfo{}
	var within func(p config.Protocol, visiting map[config.Protocol]bool) *fwdInfo
	within = func(p config.Protocol, visiting map[config.Protocol]bool) *fwdInfo {
		if info, ok := infoMemo[p]; ok {
			return info
		}
		info := &fwdInfo{fwd: map[Hop]*smt.Term{}, local: c.False(), drop: c.False(), any: c.False()}
		bp := sl.BestProto[n.Name][p]
		if bp == nil {
			return info
		}
		multipath := false
		switch p {
		case config.OSPF:
			multipath = cfg.OSPF.MaxPaths > 1
		case config.BGP:
			multipath = cfg.BGP.MaxPaths > 1
		}
		vis := map[config.Protocol]bool{p: true}
		for k := range visiting {
			vis[k] = true
		}
		addFwd := func(h Hop, t *smt.Term) {
			if prev, ok := info.fwd[h]; ok {
				info.fwd[h] = c.Or(prev, t)
			} else {
				info.fwd[h] = t
			}
		}
		for _, cand := range cands[p] {
			var chosen *smt.Term
			if multipath {
				chosen = c.And(cand.rec.Valid, equallyGood(c, cand.rec, bp, m.mode))
			} else {
				chosen = c.And(cand.rec.Valid, sameChoice(c, cand.rec, bp, m.mode))
			}
			info.any = c.Or(info.any, chosen)
			switch {
			case cand.local:
				info.local = c.Or(info.local, chosen)
			case cand.drop:
				info.drop = c.Or(info.drop, chosen)
			case cand.ibgpVia != 0:
				addr := m.Addr[cand.ibgpVia]
				if addr == nil {
					// Should not happen: multihop sessions have slices.
					continue
				}
				// Sorted iteration: term construction order fixes the
				// hash-consing ids, and commutative canonicalization
				// orders by id — map order here would leak into the CNF
				// and make solver work counters nondeterministic.
				ctrlFwd := addr.CtrlFwd[n.Name]
				for _, h := range sortedHops(ctrlFwd) {
					addFwd(h, c.And(chosen, ctrlFwd[h]))
				}
			case cand.redist:
				if visiting[cand.redistSrc] {
					continue // mutual-redistribution cycle: stop here
				}
				src := within(cand.redistSrc, vis)
				for _, h := range sortedHops(src.fwd) {
					addFwd(h, c.And(chosen, src.fwd[h]))
				}
				info.local = c.Or(info.local, c.And(chosen, src.local))
				info.drop = c.Or(info.drop, c.And(chosen, src.drop))
			case cand.hop != nil:
				addFwd(*cand.hop, chosen)
			}
		}
		if len(visiting) == 0 {
			infoMemo[p] = info
		}
		return info
	}

	ctrl := map[Hop]*smt.Term{}
	delivered := c.False()
	dropped := c.False()
	anyWin := c.False()
	for _, p := range protos {
		w := protoWins[p]
		if w == nil {
			continue
		}
		anyWin = c.Or(anyWin, w)
		info := within(p, map[config.Protocol]bool{})
		m.setOrigin(provenance.Origin{Router: n.Name, Proto: p.String(), Kind: "selection"})
		m.assert(c.Implies(sl.BestProto[n.Name][p].Valid, info.any))
		for _, h := range sortedHops(info.fwd) {
			contrib := c.And(w, info.fwd[h])
			if prev, ok := ctrl[h]; ok {
				ctrl[h] = c.Or(prev, contrib)
			} else {
				ctrl[h] = contrib
			}
		}
		delivered = c.Or(delivered, c.And(w, info.local))
		dropped = c.Or(dropped, c.And(w, info.drop))
	}
	m.setOrigin(provenance.Origin{Router: n.Name, Proto: "overall", Kind: "selection"})
	m.assert(c.Implies(best.Valid, anyWin))
	m.setOrigin(provenance.Origin{})
	sl.CtrlFwd[n.Name] = ctrl
	sl.DeliveredLocal[n.Name] = delivered
	sl.DroppedNull[n.Name] = dropped

	// Data plane: control plane modulo ACLs (§3(7)).
	pkt := m.pkt(sl)
	data := map[Hop]*smt.Term{}
	for _, h := range sortedHops(ctrl) {
		t := ctrl[h]
		if h.Ext != "" {
			out := m.aclPermits(cfg, m.G.Topo.ExternalIface(n, h.Ext), false, pkt)
			data[h] = c.And(t, out)
			continue
		}
		link := m.G.Topo.FindLink(n.Name, h.Node)
		var outIf, inIf string
		if link != nil {
			outIf = link.IfaceOf(n)
			inIf = link.IfaceOf(link.Peer(n))
		}
		out := m.aclPermits(cfg, outIf, false, pkt)
		in := m.aclPermits(m.G.Configs[h.Node], inIf, true, pkt)
		data[h] = c.And(t, out, in)
	}
	sl.DataFwd[n.Name] = data
	return nil
}

func recsOf(cands []*candidate) []*Record {
	out := make([]*Record, len(cands))
	for i, c := range cands {
		out[i] = c.rec
	}
	return out
}

// connectedCands builds one candidate per connected interface.
func (m *Model) connectedCands(sl *Slice, cfg *config.Router) []*candidate {
	c := m.Ctx
	var out []*candidate
	for _, i := range cfg.Interfaces {
		if i.Shutdown {
			continue
		}
		r := m.inv()
		r.Valid = m.inPrefix(sl.DstIP, i.Prefix)
		r.PrefixLen = c.BV(uint64(i.Prefix.Len), WidthPrefixLen)
		r.AD = c.BV(0, WidthAD)
		if !m.hoisting {
			r.Prefix = c.BV(uint64(i.Prefix.Addr), WidthIP)
		}
		out = append(out, &candidate{rec: r, local: true})
	}
	return out
}

// staticCands builds one candidate per static route covering the
// destination. Next hops are resolved against the topology; a route whose
// next hop has no resolution is simply absent, matching the simulator.
func (m *Model) staticCands(sl *Slice, n *network.Node, cfg *config.Router) []*candidate {
	c := m.Ctx
	var out []*candidate
	for _, st := range cfg.Statics {
		r := m.inv()
		r.PrefixLen = c.BV(uint64(st.Prefix.Len), WidthPrefixLen)
		r.AD = c.BV(uint64(st.Distance()), WidthAD)
		if !m.hoisting {
			r.Prefix = c.BV(uint64(st.Prefix.Addr), WidthIP)
		}
		valid := m.inPrefix(sl.DstIP, st.Prefix)
		cand := &candidate{rec: r}
		if st.Drop {
			cand.drop = true
		} else {
			hop, linkid, ok := m.resolveStaticHop(n, st)
			if !ok {
				continue
			}
			valid = c.And(valid, m.linkUp(linkid))
			cand.hop = &hop
		}
		r.Valid = valid
		out = append(out, cand)
	}
	return out
}

// resolveStaticHop finds the forwarding target of a static route.
func (m *Model) resolveStaticHop(n *network.Node, st *config.StaticRoute) (Hop, string, bool) {
	for _, l := range m.G.Topo.LinksOf(n) {
		peer := l.Peer(n)
		if (st.Interface != "" && l.IfaceOf(n) == st.Interface) ||
			(st.NextHop != 0 && l.AddrOf(peer) == st.NextHop) {
			return Hop{Node: peer.Name}, simulator.LinkID(l.A.Name, l.B.Name), true
		}
	}
	for _, e := range m.G.Topo.ExternalsOf(n) {
		if (st.Interface != "" && e.Iface == st.Interface) ||
			(st.NextHop != 0 && e.PeerAddr == st.NextHop) {
			return Hop{Ext: e.Name}, simulator.ExtLinkID(n.Name, e.Name), true
		}
	}
	return Hop{}, "", false
}

// ospfCands builds origination, redistribution and import candidates for
// an OSPF instance.
func (m *Model) ospfCands(sl *Slice, n *network.Node, cfg *config.Router) []*candidate {
	c := m.Ctx
	ad := cfg.OSPFDistance()
	var out []*candidate
	for _, i := range cfg.Interfaces {
		if !cfg.RunsOSPF(i) {
			continue
		}
		r := m.inv()
		r.Valid = m.inPrefix(sl.DstIP, i.Prefix)
		r.PrefixLen = c.BV(uint64(i.Prefix.Len), WidthPrefixLen)
		r.AD = c.BV(uint64(ad), WidthAD)
		if !m.hoisting {
			r.Prefix = c.BV(uint64(i.Prefix.Addr), WidthIP)
		}
		out = append(out, &candidate{rec: r, local: true})
	}
	for _, rd := range cfg.OSPF.Redistribute {
		if cand := m.redistCand(sl, n, cfg, rd, ad, config.OSPF); cand != nil {
			out = append(out, cand)
		}
	}
	for _, adj := range m.G.OSPFAdjsOf(n) {
		peer := adj.Link.Peer(n)
		cost := adj.CostA
		if n == adj.Link.B {
			cost = adj.CostB
		}
		pb := sl.BestProto[peer.Name][config.OSPF]
		r := pb.clone()
		valid := c.And(pb.Valid,
			m.linkUp(simulator.LinkID(adj.Link.A.Name, adj.Link.B.Name)),
			c.Ule(pb.Metric, c.BV(uint64(65535-cost), WidthMetric)))
		if m.riskySet[n.Name] {
			valid = c.And(valid, c.Not(pb.Through[n.Name]))
		}
		r.Valid = valid
		r.Metric = c.Add(pb.Metric, c.BV(uint64(cost), WidthMetric))
		r.AD = c.BV(uint64(ad), WidthAD)
		r.RID = c.BV(uint64(peer.Index)+1, WidthRID)
		if m.riskySet[peer.Name] {
			r.Through[peer.Name] = c.True()
		}
		out = append(out, &candidate{rec: r, hop: &Hop{Node: peer.Name}})
	}
	return out
}

// ripCands mirrors ospfCands with unit costs and RIP's count-to-16.
func (m *Model) ripCands(sl *Slice, n *network.Node, cfg *config.Router) []*candidate {
	c := m.Ctx
	ad := cfg.RIPDistance()
	var out []*candidate
	for _, i := range cfg.Interfaces {
		if !cfg.RunsRIP(i) {
			continue
		}
		r := m.inv()
		r.Valid = m.inPrefix(sl.DstIP, i.Prefix)
		r.PrefixLen = c.BV(uint64(i.Prefix.Len), WidthPrefixLen)
		r.AD = c.BV(uint64(ad), WidthAD)
		if !m.hoisting {
			r.Prefix = c.BV(uint64(i.Prefix.Addr), WidthIP)
		}
		out = append(out, &candidate{rec: r, local: true})
	}
	for _, rd := range cfg.RIP.Redistribute {
		if cand := m.redistCand(sl, n, cfg, rd, ad, config.RIP); cand != nil {
			out = append(out, cand)
		}
	}
	for _, adj := range m.G.RIPAdjsOf(n) {
		peer := adj.Link.Peer(n)
		pb := sl.BestProto[peer.Name][config.RIP]
		r := pb.clone()
		valid := c.And(pb.Valid,
			m.linkUp(simulator.LinkID(adj.Link.A.Name, adj.Link.B.Name)),
			c.Ule(pb.Metric, c.BV(14, WidthMetric)))
		if m.riskySet[n.Name] {
			valid = c.And(valid, c.Not(pb.Through[n.Name]))
		}
		r.Valid = valid
		r.Metric = c.Add(pb.Metric, c.BV(1, WidthMetric))
		r.AD = c.BV(uint64(ad), WidthAD)
		r.RID = c.BV(uint64(peer.Index)+1, WidthRID)
		if m.riskySet[peer.Name] {
			r.Through[peer.Name] = c.True()
		}
		out = append(out, &candidate{rec: r, hop: &Hop{Node: peer.Name}})
	}
	return out
}

// bgpCands builds origination, redistribution, environment-import and
// session-import candidates for a BGP instance.
func (m *Model) bgpCands(sl *Slice, n *network.Node, cfg *config.Router, isAddr bool) ([]*candidate, error) {
	c := m.Ctx
	var out []*candidate
	for _, p := range cfg.BGP.Networks {
		if !cfg.Owns(p) {
			continue
		}
		r := m.inv()
		r.Valid = m.inPrefix(sl.DstIP, p)
		r.PrefixLen = c.BV(uint64(p.Len), WidthPrefixLen)
		r.AD = c.BV(uint64(cfg.BGPDistance(false)), WidthAD)
		if !m.hoisting {
			r.Prefix = c.BV(uint64(p.Addr), WidthIP)
		}
		out = append(out, &candidate{rec: r, local: true})
	}
	for _, rd := range cfg.BGP.Redistribute {
		if cand := m.redistCand(sl, n, cfg, rd, cfg.BGPDistance(false), config.BGP); cand != nil {
			out = append(out, cand)
		}
	}
	for _, sess := range m.G.SessionsOf(n) {
		switch {
		case sess.Kind == protograph.EBGPExternal:
			if sess.A != n {
				continue
			}
			prev := m.setOrigin(provenance.Origin{Router: n.Name, Proto: "bgp", Kind: "neighbor", Name: "ext." + sess.Ext.Name})
			env := sl.Env[sess.Ext.Name]
			r := env.clone()
			r.Valid = c.And(env.Valid, m.linkUp(simulator.ExtLinkID(n.Name, sess.Ext.Name)))
			r.AD = c.BV(uint64(cfg.BGPDistance(false)), WidthAD)
			r.LocalPref = c.BV(100, WidthLP)
			r.Internal = c.False()
			r.RID = c.BV(uint64(sess.Ext.PeerAddr), WidthRID)
			r.NbrASN = c.BV(uint64(sess.Ext.ASN), WidthASN)
			r.FromClient = c.Bool(sess.NbrAtA.RouteReflectorClient)
			if sess.NbrAtA.InMap != "" {
				r = m.applyRouteMap(sl, cfg, sess.NbrAtA.InMap, r)
			}
			r = m.wrapVar(sl.Name+"|"+n.Name+"|in.ext."+sess.Ext.Name, r, true)
			m.setOrigin(prev)
			sl.ExtImports[sess.Ext.Name] = r
			out = append(out, &candidate{rec: r, hop: &Hop{Ext: sess.Ext.Name}})

		default:
			peer := sess.RemoteEnd(n)
			isIBGP := sess.Kind == protograph.IBGP
			if isIBGP && sess.Link == nil && isAddr {
				continue // address slices resolve next hops IGP-only
			}
			exp := m.exportBGP(sl, peer, sess)
			var up *smt.Term
			switch {
			case sess.Link != nil:
				up = m.linkUp(simulator.LinkID(sess.Link.A.Name, sess.Link.B.Name))
			case isIBGP:
				up = m.SessUp[sess]
			default:
				return nil, fmt.Errorf("core: eBGP session %s-%s rides no link", sess.A.Name, sess.B.Name)
			}
			stanza := sess.StanzaOf(n)
			peerCfg := m.G.Configs[peer.Name]
			prev := m.setOrigin(provenance.Origin{Router: n.Name, Proto: "bgp", Kind: "neighbor", Name: peer.Name})
			r := exp.clone()
			valid := c.And(exp.Valid, up)
			if m.riskySet[n.Name] {
				valid = c.And(valid, c.Not(exp.Through[n.Name]))
			}
			r.Valid = valid
			r.Internal = c.Bool(isIBGP)
			if !isIBGP {
				r.LocalPref = c.BV(100, WidthLP)
			}
			r.AD = c.BV(uint64(cfg.BGPDistance(isIBGP)), WidthAD)
			r.RID = c.BV(uint64(peerCfg.RouterID(peer.Index)), WidthRID)
			r.NbrASN = c.BV(uint64(peerCfg.BGP.ASN), WidthASN)
			r.FromClient = c.Bool(stanza.RouteReflectorClient)
			if stanza.InMap != "" {
				r = m.applyRouteMap(sl, cfg, stanza.InMap, r)
			}
			r = m.wrapVar(sl.Name+"|"+n.Name+"|in.bgp."+peer.Name, r, true)
			m.setOrigin(prev)
			cand := &candidate{rec: r, hop: &Hop{Node: peer.Name}}
			if isIBGP && sess.Link == nil {
				cand.hop = nil
				cand.ibgpVia = stanza.Addr
				cand.ibgpPeer = peer.Name
			}
			out = append(out, cand)
		}
	}
	return out, nil
}

// exportBGP is the sender-side transfer of a BGP session (Figure 5):
// iBGP re-export and route-reflector rules, AS-path increment, MED
// non-transitivity, outbound route map, and path-length cap.
func (m *Model) exportBGP(sl *Slice, sender *network.Node, sess *protograph.BGPSession) *Record {
	c := m.Ctx
	cfg := m.G.Configs[sender.Name]
	b := sl.BestProto[sender.Name][config.BGP]
	if b == nil {
		return m.inv()
	}
	prev := m.setOrigin(provenance.Origin{Router: sender.Name, Proto: "bgp", Kind: "neighbor", Name: sessionTag(sess, sender)})
	defer m.setOrigin(prev)
	stanza := sess.StanzaOf(sender)
	toIBGP := sess.Kind == protograph.IBGP
	allowed := c.True()
	if toIBGP {
		allowed = c.Or(c.Not(b.Internal), b.FromClient, c.Bool(stanza.RouteReflectorClient))
	}
	out := b.clone()
	out.Valid = c.And(b.Valid, allowed)
	if !toIBGP {
		out.Metric = c.Add(b.Metric, c.BV(1, WidthMetric))
		out.MED = c.BV(0, WidthMED)
		// Aggregation (§4): summary-only aggregates shorten the
		// advertised prefix length when they cover the destination.
		for _, agg := range cfg.BGP.Aggregates {
			if !agg.SummaryOnly {
				continue
			}
			aggLen := c.BV(uint64(agg.Prefix.Len), WidthPrefixLen)
			cond := c.And(m.inPrefix(sl.DstIP, agg.Prefix), c.Ugt(out.PrefixLen, aggLen))
			out.PrefixLen = c.Ite(cond, aggLen, out.PrefixLen)
		}
	}
	if stanza.OutMap != "" {
		out = m.applyRouteMap(sl, cfg, stanza.OutMap, out)
	}
	out.Valid = c.And(out.Valid, c.Ule(out.Metric, c.BV(255, WidthMetric)))
	if m.riskySet[sender.Name] {
		out.Through[sender.Name] = c.True()
	}
	if !m.slicing {
		out = m.wrapVar(sl.Name+"|"+sender.Name+"|out.bgp."+sessionTag(sess, sender), out, true)
	}
	return out
}

func sessionTag(s *protograph.BGPSession, sender *network.Node) string {
	if s.Kind == protograph.EBGPExternal {
		return "ext." + s.Ext.Name
	}
	return s.RemoteEnd(sender).Name
}

// redistCand builds a redistribution candidate: the source protocol's
// selected record re-seeded into the target protocol.
func (m *Model) redistCand(sl *Slice, n *network.Node, cfg *config.Router, rd config.Redistribution, ad int, into config.Protocol) *candidate {
	c := m.Ctx
	src := sl.BestProto[n.Name][rd.From]
	if src == nil {
		return nil
	}
	r := src.clone()
	// A record that already passed through this router must not be
	// redistributed again: this breaks the self-supporting ghost fixed
	// points that mutual redistribution would otherwise admit (the
	// redistribution analogue of AS-path loop prevention, §6.1).
	if m.riskySet[n.Name] {
		r.Valid = c.And(src.Valid, c.Not(src.Through[n.Name]))
		r.Through[n.Name] = c.True()
	}
	r.AD = c.BV(uint64(ad), WidthAD)
	r.Metric = c.BV(uint64(rd.SeedMetric(into)), WidthMetric)
	r.Internal = c.False()
	r.RID = c.BV(0, WidthRID)
	if into == config.BGP {
		r.LocalPref = c.BV(100, WidthLP)
	}
	if rd.RouteMap != "" {
		r = m.applyRouteMap(sl, cfg, rd.RouteMap, r)
	}
	return &candidate{rec: r, redist: true, redistSrc: rd.From}
}

// Reach instruments a slice with well-founded reachability booleans: one
// per router, true iff the packet eventually delivers locally (or, with
// countExit, leaves toward an external peer).
func (m *Model) Reach(sl *Slice, countExit bool) map[string]*smt.Term {
	tag := "reach"
	if countExit {
		tag = "reachx"
	}
	return instrumentOnce(sl, tag, func() map[string]*smt.Term {
		return m.reachability(sl, tag, tag+"dist", func(string) bool { return countExit }, "")
	})
}

// instrumentOnce returns what build returned the first time the slice was
// instrumented under key — a builder's name and arguments — so a second
// property over the same instrumentation asserts nothing twice.
func instrumentOnce[T any](sl *Slice, key string, build func() T) T {
	if v, ok := sl.instrumented[key]; ok {
		return v.(T)
	}
	v := build()
	if sl.instrumented == nil {
		sl.instrumented = map[string]any{}
	}
	sl.instrumented[key] = v
	return v
}

// reachability is the one well-founded reachability encoder: it asserts,
// under origin {router, "reach", tag}, one boolean per router — named
// slice|tag|router, its distance witness slice|dtag|router — that is true
// iff the packet eventually delivers locally or leaves through an
// external hop exit admits, without transiting avoid ("" avoids nothing).
// Reach needs support with strictly decreasing distance, so forwarding
// loops cannot sustain spurious reachability.
func (m *Model) reachability(sl *Slice, tag, dtag string, exit func(ext string) bool, avoid string) map[string]*smt.Term {
	c := m.Ctx
	w := bitsFor(len(m.G.Topo.Nodes) + 2)
	reach := map[string]*smt.Term{}
	dist := map[string]*smt.Term{}
	for _, n := range m.G.Topo.Nodes {
		reach[n.Name] = c.BoolVar(sl.Name + "|" + tag + "|" + n.Name)
		dist[n.Name] = c.BVVar(sl.Name+"|"+dtag+"|"+n.Name, w)
	}
	for _, n := range m.G.Topo.Nodes {
		m.setOrigin(provenance.Origin{Router: n.Name, Kind: "reach", Name: tag})
		if n.Name == avoid {
			// The avoided router terminates nothing and forwards nothing.
			m.assert(c.Not(reach[n.Name]))
			continue
		}
		base := sl.DeliveredLocal[n.Name]
		alts := []*smt.Term{base}
		// Lower bound (no spurious unreachability): delivery or a
		// reaching successor forces reach. Upper bound (no spurious
		// reachability): reach needs support with strictly decreasing
		// distance, so forwarding cycles cannot sustain it.
		m.assert(c.Implies(base, reach[n.Name]))
		for _, h := range sortedHops(sl.DataFwd[n.Name]) {
			t := sl.DataFwd[n.Name][h]
			if h.Ext != "" {
				if exit(h.Ext) {
					alts = append(alts, t)
					m.assert(c.Implies(t, reach[n.Name]))
				}
				continue
			}
			if h.Node == avoid {
				continue
			}
			alts = append(alts, c.And(t, reach[h.Node], c.Ult(dist[h.Node], dist[n.Name])))
			m.assert(c.Implies(c.And(t, reach[h.Node]), reach[n.Name]))
		}
		m.assert(c.Implies(reach[n.Name], c.Or(alts...)))
	}
	m.setOrigin(provenance.Origin{})
	return reach
}

func bitsFor(x int) int {
	w := 1
	for (1 << w) <= x {
		w++
	}
	return w
}

// sortedHops returns a slice's forwarding targets for a router in
// deterministic order.
func sortedHops(fwd map[Hop]*smt.Term) []Hop {
	hops := make([]Hop, 0, len(fwd))
	for h := range fwd {
		hops = append(hops, h)
	}
	sort.Slice(hops, func(i, j int) bool {
		if hops[i].Node != hops[j].Node {
			return hops[i].Node < hops[j].Node
		}
		return hops[i].Ext < hops[j].Ext
	})
	return hops
}
