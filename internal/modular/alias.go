package modular

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/protograph"
	"repro/internal/provenance"
	"repro/internal/tiered"
)

// canon builds the canonical serialization of one component. Router
// names become r<i> tokens (by sorted-name index), ASNs s<i> tokens and
// IP/prefix constants v<i> tokens, all assigned at first use, so two
// components that differ only in names and addressing serialize — and
// hash — identically. Neighbor descriptions are excluded (free-form
// text, never semantic). The value pool's pairwise order/containment
// relations are appended at the end: the encoder's terms mention the
// concrete constants only through such comparisons (against each other
// and against the goal destination), so components whose relations
// agree produce isomorphic SMT systems and share one verdict.
type canon struct {
	w       io.Writer
	routers map[string]int
	names   []string // sorted member routers, index = token
	vals    []network.Prefix
	valIdx  map[network.Prefix]int
	asns    map[uint32]int
}

func newCanon(w io.Writer, routers []string) *canon {
	c := &canon{w: w, routers: map[string]int{}, names: routers,
		valIdx: map[network.Prefix]int{}, asns: map[uint32]int{}}
	for i, r := range routers {
		c.routers[r] = i
	}
	return c
}

func (c *canon) emit(format string, args ...any) { fmt.Fprintf(c.w, format+"\n", args...) }

func (c *canon) r(name string) string {
	i, ok := c.routers[name]
	if !ok {
		// Names outside the component must never reach the key; make the
		// leak visible in the hash rather than silently aliasing.
		return "r?" + name
	}
	return fmt.Sprintf("r%d", i)
}

func (c *canon) v(p network.Prefix) string {
	i, ok := c.valIdx[p]
	if !ok {
		i = len(c.vals)
		c.valIdx[p] = i
		c.vals = append(c.vals, p)
	}
	return fmt.Sprintf("v%d", i)
}

func (c *canon) ip(a network.IP) string { return c.v(network.Prefix{Addr: a, Len: 32}) }

func (c *canon) s(asn uint32) string {
	i, ok := c.asns[asn]
	if !ok {
		i = len(c.asns)
		c.asns[asn] = i
	}
	return fmt.Sprintf("s%d", i)
}

func (c *canon) router(cfg *config.Router) {
	c.emit("router %s", c.r(cfg.Name))
	for _, i := range cfg.Interfaces {
		c.emit("iface %s addr=%s pfx=%s cost=%d in=%s out=%s mgmt=%v down=%v",
			i.Name, c.ip(i.Addr), c.v(i.Prefix), i.OSPFCost, i.InACL, i.OutACL, i.Management, i.Shutdown)
	}
	if o := cfg.OSPF; o != nil {
		c.emit("ospf pid=%d ad=%d mp=%d", o.ProcessID, o.AdminDistance, o.MaxPaths)
		for _, n := range o.Networks {
			c.emit("ospf net %s", c.v(n))
		}
		c.redist("ospf", o.Redistribute)
	}
	if r := cfg.RIP; r != nil {
		c.emit("rip ad=%d", r.AdminDistance)
		for _, n := range r.Networks {
			c.emit("rip net %s", c.v(n))
		}
		c.redist("rip", r.Redistribute)
	}
	if b := cfg.BGP; b != nil {
		c.emit("bgp asn=%s rid=%s ad=%d mp=%d med=%v", c.s(b.ASN), c.ip(b.RouterID),
			b.AdminDistance, b.MaxPaths, b.AlwaysCompareMED)
		for _, n := range b.Networks {
			c.emit("bgp net %s", c.v(n))
		}
		for _, n := range b.Neighbors {
			c.emit("nbr addr=%s as=%s in=%s out=%s rrc=%v",
				c.ip(n.Addr), c.s(n.RemoteAS), n.InMap, n.OutMap, n.RouteReflectorClient)
		}
		c.redist("bgp", b.Redistribute)
		for _, a := range b.Aggregates {
			c.emit("agg %s summary=%v", c.v(a.Prefix), a.SummaryOnly)
		}
	}
	for _, st := range cfg.Statics {
		c.emit("static %s nh=%s if=%s ad=%d drop=%v",
			c.v(st.Prefix), c.ip(st.NextHop), st.Interface, st.AdminDistance, st.Drop)
	}
	for _, name := range sortedKeys(cfg.PrefixLists) {
		c.emit("plist %s", name)
		for _, e := range cfg.PrefixLists[name].Entries {
			c.emit("ple seq=%d act=%v %s ge=%d le=%d", e.Seq, e.Action, c.v(e.Prefix), e.Ge, e.Le)
		}
	}
	for _, name := range sortedKeys(cfg.RouteMaps) {
		c.emit("rmap %s", name)
		for _, cl := range cfg.RouteMaps[name].Clauses {
			c.emit("cl seq=%d act=%v mpl=%s mc=%s lp=%d met=%d/%v med=%d/%v setc=%s delc=%s nh=%s/%v pre=%d",
				cl.Seq, cl.Action, cl.MatchPrefixList, cl.MatchCommunity,
				cl.SetLocalPref, cl.SetMetric, cl.HasSetMetric, cl.SetMED, cl.HasSetMED,
				strings.Join(cl.SetCommunity, ","), strings.Join(cl.DelCommunity, ","),
				c.ip(cl.SetNextHop), cl.HasSetNextHop, cl.SetPrepend)
		}
	}
	for _, name := range sortedKeys(cfg.ACLs) {
		c.emit("acl %s", name)
		for _, e := range cfg.ACLs[name].Entries {
			c.emit("ae act=%v src=%s dst=%s proto=%d sp=%d-%d dp=%d-%d",
				e.Action, c.v(e.SrcPrefix), c.v(e.DstPrefix), e.Protocol,
				e.SrcPortLo, e.SrcPortHi, e.DstPortLo, e.DstPortHi)
		}
	}
	for _, name := range sortedKeys(cfg.CommunityLists) {
		c.emit("clist %s %s", name, strings.Join(cfg.CommunityLists[name].Values, ","))
	}
}

func (c *canon) redist(proto string, rs []config.Redistribution) {
	for _, r := range rs {
		c.emit("%s redist from=%v metric=%d map=%s", proto, r.From, r.Metric, r.RouteMap)
	}
}

// relations appends what fixes the value pool's pairwise comparisons —
// address order, prefix lengths and interval containment — in one line
// per value: its length, the dense rank of its address, and its nearest
// covering pool value. Ranks are the address-order matrix; and since the
// values covering any one value form a chain (they are aligned prefixes
// holding its address), "p covers q" is "p is an ancestor of q", so the
// nearest covers are the containment matrix (DESIGN.md §15). Together
// they fix the truth of every address comparison the encoder can pose
// over the pool — including against the symbolic destination, whose
// range is the goal subnet, itself a pool member.
func (c *canon) relations() {
	order := make([]int, len(c.vals)) // pool indices by (address, length)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		p, q := c.vals[order[a]], c.vals[order[b]]
		if p.Addr != q.Addr {
			return p.Addr < q.Addr
		}
		return p.Len < q.Len
	})
	rank := make([]int, len(c.vals))
	up := make([]int, len(c.vals))
	// open holds the aligned values whose range contains the sweep
	// address, outermost first: each nests in the one before it.
	var open []int
	for k, i := range order {
		p := c.vals[i]
		if k > 0 {
			rank[i] = rank[order[k-1]]
			if c.vals[order[k-1]].Addr != p.Addr {
				rank[i]++
			}
		}
		for len(open) > 0 && c.vals[open[len(open)-1]].Last() < p.Addr {
			open = open[:len(open)-1]
		}
		// An aligned p nests in all of open; an unaligned one (a hand-built
		// 10.0.0.1/24: covers nothing, not even itself) can be shorter than
		// the innermost ones, which then do not cover it.
		up[i] = -1
		for d := len(open) - 1; d >= 0 && up[i] < 0; d-- {
			if c.vals[open[d]].Len <= p.Len {
				up[i] = open[d]
			}
		}
		if p.Covers(p) {
			open = append(open, i)
		}
	}
	buf := make([]byte, 0, 40*len(c.vals))
	for i, p := range c.vals {
		buf = strconv.AppendInt(append(buf, "val "...), int64(i), 10)
		buf = strconv.AppendInt(append(buf, " len="...), int64(p.Len), 10)
		buf = strconv.AppendInt(append(buf, " rank="...), int64(rank[i]), 10)
		buf = strconv.AppendInt(append(buf, " up="...), int64(up[i]), 10)
		buf = append(buf, '\n')
	}
	c.w.Write(buf)
}

// classKey computes the isomorphism-class key for a component plan and
// records the component's value pool on the plan (the pool drives the
// blame-renaming bijection between a class representative and its other
// members). Equal keys guarantee the canonical serializations are equal,
// and those are written in sorted-router order — so index-aligned zip of
// the sorted router lists is a config isomorphism between members.
func classKey(g *protograph.Graph, cp *CompPlan, goal tiered.Goal) string {
	return classKeyWith(g, cp, goal, (*canon).relations)
}

// classKeyWith is classKey with the relation writer as a parameter: the
// tests hold (*canon).relations to the pairwise matrix it replaced.
func classKeyWith(g *protograph.Graph, cp *CompPlan, goal tiered.Goal, relations func(*canon)) string {
	h := sha256.New()
	c := newCanon(h, cp.Comp.Routers)
	if goal.HasSubnet {
		c.emit("subnet %s", c.v(goal.Subnet))
	}
	for _, name := range cp.Comp.Routers {
		c.router(g.Configs[name])
	}
	for _, name := range cp.Comp.Routers {
		n := g.Topo.Node(name)
		for _, l := range g.Topo.LinksOf(n) {
			peer := l.Peer(n)
			if _, in := c.routers[peer.Name]; in {
				if name < peer.Name {
					c.emit("link %s %s %s %s sub=%s a=%s b=%s", c.r(name), l.IfaceOf(n),
						c.r(peer.Name), l.IfaceOf(peer), c.v(l.Subnet), c.ip(l.AddrOf(n)), c.ip(l.AddrOf(peer)))
				}
			} else {
				c.emit("cutlink %s %s sub=%s a=%s b=%s", c.r(name), l.IfaceOf(n),
					c.v(l.Subnet), c.ip(l.AddrOf(n)), c.ip(l.AddrOf(peer)))
			}
		}
		for _, e := range g.Topo.ExternalsOf(n) {
			c.emit("ext %s %s peer=%s self=%s as=%s", c.r(name), e.Iface, c.ip(e.PeerAddr), c.ip(e.RouterAddr), c.s(e.ASN))
		}
	}
	for _, con := range cp.Imports {
		c.emit("import %s peer=%s valid=%v metric=%d pfx=%s",
			c.r(con.Session.To), c.ip(con.Session.FromAddr), con.Valid, con.Metric, c.v(con.Prefix))
	}
	for _, con := range cp.Exports {
		c.emit("export %s peer=%s valid=%v metric=%d pfx=%s",
			c.r(con.Session.From), c.ip(con.Session.ToAddr), con.Valid, con.Metric, c.v(con.Prefix))
	}
	c.emit("goal check=%s hops=%d maxlen=%d maxfail=%d hassubnet=%v",
		goal.Check, goal.Hops, goal.MaxLen, goal.MaxFailures, goal.HasSubnet)
	for _, s := range cp.Srcs {
		c.emit("src %s", c.r(s))
	}
	relations(c)
	cp.Vals = c.vals
	return hex.EncodeToString(h.Sum(nil))
}

// renameOrigins rewrites a class representative's blame origins into a
// member component's namespace: router names map index-for-index across
// the sorted router lists, and address/prefix literals map through the
// index-aligned value pools (equal keys force equal pool shapes). Name
// fields are rewritten token-wise so composite names like "a>b" or
// "tor-0-0-ext1" carry over.
func renameOrigins(origins []provenance.Origin, rep, member *CompPlan) []provenance.Origin {
	if rep == member {
		return origins
	}
	subst := map[string]string{}
	for i, r := range rep.Comp.Routers {
		subst[r] = member.Comp.Routers[i]
	}
	for i, v := range rep.Vals {
		if i >= len(member.Vals) {
			break
		}
		mv := member.Vals[i]
		if v.Len == 32 {
			subst[v.Addr.String()] = mv.Addr.String()
		}
		subst[v.String()] = mv.String()
	}
	out := make([]provenance.Origin, len(origins))
	for i, o := range origins {
		o.Router = renameToken(o.Router, subst)
		o.Name = renameString(o.Name, subst)
		out[i] = o
	}
	return out
}

func renameToken(tok string, subst map[string]string) string {
	if to, ok := subst[tok]; ok {
		return to
	}
	return tok
}

// renameString substitutes whole separator-delimited segments, plus the
// "<router>-ext<N>" external-name shape whose router part is a prefix of
// the segment rather than the whole of it.
func renameString(s string, subst map[string]string) string {
	if s == "" {
		return s
	}
	isSep := func(r byte) bool {
		switch r {
		case '|', '>', ':', ',', ' ', '(', ')', '[', ']':
			return true
		}
		return false
	}
	var b strings.Builder
	start := 0
	flush := func(end int) {
		seg := s[start:end]
		if to, ok := subst[seg]; ok {
			b.WriteString(to)
			return
		}
		if i := strings.LastIndex(seg, "-ext"); i > 0 {
			if to, ok := subst[seg[:i]]; ok {
				b.WriteString(to + seg[i:])
				return
			}
		}
		b.WriteString(seg)
	}
	for i := 0; i < len(s); i++ {
		if isSep(s[i]) {
			flush(i)
			b.WriteByte(s[i])
			start = i + 1
		}
	}
	flush(len(s))
	return b.String()
}
