package config

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/network"
)

// ParseError reports a configuration syntax error with its location.
type ParseError struct {
	Router string
	Line   int
	Text   string
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%d: %s (in %q)", e.Router, e.Line, e.Msg, e.Text)
}

// Parse parses one router's configuration text. The dialect is a
// Cisco-IOS-flavoured subset covering interfaces, OSPF, RIP, BGP, static
// routes, prefix lists, route maps, community lists and numbered/named
// ACLs.
func Parse(text string) (*Router, error) {
	p := &parser{r: NewRouter("")}
	fields := p.fields[:0] // one line's, reused: no directive keeps the slice
	for rest, more := text, true; more; {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		p.lineNo++
		line := raw
		for len(line) > 0 && (line[len(line)-1] == ' ' || line[len(line)-1] == '\t' || line[len(line)-1] == '\r') {
			line = line[:len(line)-1]
		}
		if trimmed := strings.TrimSpace(line); trimmed == "" || trimmed[0] == '!' {
			// Comment/separator lines close indented blocks only when
			// they are flush left.
			if !strings.HasPrefix(line, " ") {
				p.ctx = ctxTop
			}
			continue
		}
		indented := strings.HasPrefix(line, " ")
		fields = appendFields(fields[:0], line)
		if err := p.dispatch(indented, fields); err != nil {
			return nil, &ParseError{Router: p.r.Name, Line: p.lineNo, Text: strings.TrimSpace(raw), Msg: err.Error()}
		}
	}
	if p.r.Name == "" {
		return nil, fmt.Errorf("config: missing hostname directive")
	}
	if err := p.r.Validate(); err != nil {
		return nil, err
	}
	return p.r, nil
}

// appendFields appends strings.Fields(s) to dst: the same fields, without
// a slice of its own when s is ASCII.
func appendFields(dst []string, s string) []string {
	n := len(dst)
	for i := 0; i < len(s); {
		for i < len(s) && asciiSpace[s[i]] {
			i++
		}
		start := i
		for ; i < len(s) && !asciiSpace[s[i]]; i++ {
			if s[i] >= utf8.RuneSelf {
				return append(dst[:n], strings.Fields(s)...)
			}
		}
		if i > start {
			dst = append(dst, s[start:i])
		}
	}
	return dst
}

// asciiSpace marks the bytes strings.Fields splits ASCII text at.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// MustParse panics on parse errors; for tests and generators.
func MustParse(text string) *Router {
	r, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return r
}

type context int

const (
	ctxTop context = iota
	ctxInterface
	ctxOSPF
	ctxRIP
	ctxBGP
	ctxRouteMap
)

type parser struct {
	r      *Router
	lineNo int

	fields [16]string
	ifaces []Interface
	nbrs   []BGPNeighbor

	ctx     context
	curIf   *Interface
	curMap  *RouteMapClause
	curName string // current route-map name
}

// newInterface and newNeighbor place a new interface or neighbor in the
// current block, starting another when it is full.
func (p *parser) newInterface(i Interface) *Interface {
	if len(p.ifaces) == cap(p.ifaces) {
		p.ifaces = make([]Interface, 0, 16)
	}
	p.ifaces = append(p.ifaces, i)
	return &p.ifaces[len(p.ifaces)-1]
}

func (p *parser) newNeighbor(n BGPNeighbor) *BGPNeighbor {
	if len(p.nbrs) == cap(p.nbrs) {
		p.nbrs = make([]BGPNeighbor, 0, 16)
	}
	p.nbrs = append(p.nbrs, n)
	return &p.nbrs[len(p.nbrs)-1]
}

func (p *parser) dispatch(indented bool, f []string) error {
	if !indented {
		p.ctx = ctxTop
		return p.topLevel(f)
	}
	switch p.ctx {
	case ctxInterface:
		return p.interfaceLine(f)
	case ctxOSPF:
		return p.ospfLine(f)
	case ctxRIP:
		return p.ripLine(f)
	case ctxBGP:
		return p.bgpLine(f)
	case ctxRouteMap:
		return p.routeMapLine(f)
	}
	return fmt.Errorf("indented line outside any block")
}

func (p *parser) topLevel(f []string) error {
	switch f[0] {
	case "hostname":
		if len(f) != 2 {
			return fmt.Errorf("hostname needs one argument")
		}
		p.r.Name = f[1]
		return nil
	case "interface":
		if len(f) != 2 {
			return fmt.Errorf("interface needs a name")
		}
		if p.r.Iface(f[1]) != nil {
			return fmt.Errorf("duplicate interface %q", f[1])
		}
		i := p.newInterface(Interface{Name: f[1], OSPFCost: 1})
		p.r.Interfaces = append(p.r.Interfaces, i)
		p.curIf = i
		p.ctx = ctxInterface
		return nil
	case "router":
		return p.routerBlock(f)
	case "ip":
		return p.ipDirective(f)
	case "route-map":
		return p.routeMapHeader(f)
	case "access-list":
		return p.numberedACL(f)
	}
	return fmt.Errorf("unknown directive %q", f[0])
}

func (p *parser) routerBlock(f []string) error {
	if len(f) < 2 {
		return fmt.Errorf("router needs a protocol")
	}
	switch f[1] {
	case "ospf":
		id := 1
		if len(f) >= 3 {
			n, err := strconv.Atoi(f[2])
			if err != nil {
				return fmt.Errorf("bad ospf process id %q", f[2])
			}
			id = n
		}
		if p.r.OSPF == nil {
			p.r.OSPF = &OSPFConfig{ProcessID: id, MaxPaths: 1}
		}
		p.ctx = ctxOSPF
		return nil
	case "rip":
		if p.r.RIP == nil {
			p.r.RIP = &RIPConfig{}
		}
		p.ctx = ctxRIP
		return nil
	case "bgp":
		if len(f) != 3 {
			return fmt.Errorf("router bgp needs an ASN")
		}
		asn, err := strconv.ParseUint(f[2], 10, 32)
		if err != nil {
			return fmt.Errorf("bad ASN %q", f[2])
		}
		if p.r.BGP == nil {
			p.r.BGP = &BGPConfig{ASN: uint32(asn), MaxPaths: 1}
		}
		p.ctx = ctxBGP
		return nil
	}
	return fmt.Errorf("unsupported routing protocol %q", f[1])
}

func (p *parser) interfaceLine(f []string) error {
	i := p.curIf
	switch {
	case eq(f, "ip", "address"):
		if len(f) != 4 {
			return fmt.Errorf("ip address needs address and mask")
		}
		addr, err := network.ParseIP(f[2])
		if err != nil {
			return err
		}
		mask, err := network.ParseIP(f[3])
		if err != nil {
			return err
		}
		pre, err := network.PrefixFromMask(addr, mask)
		if err != nil {
			return err
		}
		i.Addr, i.Prefix = addr, pre
		return nil
	case eq(f, "ip", "access-group"):
		if len(f) != 4 || (f[3] != "in" && f[3] != "out") {
			return fmt.Errorf("ip access-group NAME in|out")
		}
		if f[3] == "in" {
			i.InACL = f[2]
		} else {
			i.OutACL = f[2]
		}
		return nil
	case eq(f, "ip", "ospf", "cost"):
		if len(f) != 4 {
			return fmt.Errorf("ip ospf cost needs a value")
		}
		n, err := strconv.Atoi(f[3])
		if err != nil || n < 1 || n > 65535 {
			return fmt.Errorf("bad ospf cost %q", f[3])
		}
		i.OSPFCost = n
		return nil
	case f[0] == "management":
		i.Management = true
		return nil
	case f[0] == "shutdown":
		i.Shutdown = true
		return nil
	case f[0] == "description":
		return nil
	}
	return fmt.Errorf("unknown interface directive %q", strings.Join(f, " "))
}

func (p *parser) ospfLine(f []string) error {
	o := p.r.OSPF
	switch {
	case f[0] == "network":
		// network A.B.C.D W.W.W.W area N
		if len(f) != 5 || f[3] != "area" {
			return fmt.Errorf("network A.B.C.D WILDCARD area N")
		}
		addr, err := network.ParseIP(f[1])
		if err != nil {
			return err
		}
		wc, err := network.ParseIP(f[2])
		if err != nil {
			return err
		}
		l, ok := network.WildcardLen(wc)
		if !ok {
			return fmt.Errorf("non-contiguous wildcard %v", wc)
		}
		o.Networks = append(o.Networks, network.Prefix{Addr: addr.Mask(l), Len: l})
		return nil
	case f[0] == "redistribute":
		rd, err := parseRedistribute(f)
		if err != nil {
			return err
		}
		o.Redistribute = append(o.Redistribute, rd)
		return nil
	case f[0] == "maximum-paths":
		return intArg(f, math.MaxInt, &o.MaxPaths)
	case f[0] == "distance":
		return intArg(f, 255, &o.AdminDistance)
	}
	return fmt.Errorf("unknown ospf directive %q", strings.Join(f, " "))
}

func (p *parser) ripLine(f []string) error {
	r := p.r.RIP
	switch f[0] {
	case "network":
		// RIP uses classful "network A.B.C.D"; we accept CIDR instead.
		if len(f) != 2 {
			return fmt.Errorf("network PREFIX")
		}
		pre, err := network.ParsePrefix(f[1])
		if err != nil {
			return err
		}
		r.Networks = append(r.Networks, pre)
		return nil
	case "redistribute":
		rd, err := parseRedistribute(f)
		if err != nil {
			return err
		}
		r.Redistribute = append(r.Redistribute, rd)
		return nil
	}
	return fmt.Errorf("unknown rip directive %q", strings.Join(f, " "))
}

// intArg parses "KEYWORD N", with N in [1, max], into dst.
func intArg(f []string, max int, dst *int) error {
	if len(f) == 2 {
		if n, err := strconv.Atoi(f[1]); err == nil && n >= 1 && n <= max {
			*dst = n
			return nil
		}
	}
	return fmt.Errorf("bad %s", f[0])
}

func parseRedistribute(f []string) (Redistribution, error) {
	if len(f) < 2 {
		return Redistribution{}, fmt.Errorf("redistribute needs a protocol")
	}
	var from Protocol
	switch f[1] {
	case "connected":
		from = Connected
	case "static":
		from = Static
	case "ospf":
		from = OSPF
	case "rip":
		from = RIP
	case "bgp":
		from = BGP
	default:
		return Redistribution{}, fmt.Errorf("cannot redistribute %q", f[1])
	}
	rd := Redistribution{From: from}
	for i := 2; i < len(f); i++ {
		switch f[i] {
		case "metric":
			if i+1 >= len(f) {
				return rd, fmt.Errorf("metric needs a value")
			}
			n, err := strconv.Atoi(f[i+1])
			if err != nil {
				return rd, fmt.Errorf("bad metric %q", f[i+1])
			}
			rd.Metric = n
			i++
		case "route-map":
			if i+1 >= len(f) {
				return rd, fmt.Errorf("route-map needs a name")
			}
			rd.RouteMap = f[i+1]
			i++
		default:
			return rd, fmt.Errorf("unknown redistribute option %q", f[i])
		}
	}
	return rd, nil
}

func (p *parser) bgpLine(f []string) error {
	b := p.r.BGP
	switch {
	case eq(f, "bgp", "router-id"):
		if len(f) != 3 {
			return fmt.Errorf("bgp router-id A.B.C.D")
		}
		ip, err := network.ParseIP(f[2])
		if err != nil {
			return err
		}
		b.RouterID = ip
		return nil
	case eq(f, "bgp", "always-compare-med"):
		b.AlwaysCompareMED = true
		return nil
	case f[0] == "neighbor":
		return p.bgpNeighbor(f)
	case f[0] == "network":
		// network A.B.C.D mask M.M.M.M
		if len(f) == 4 && f[2] == "mask" {
			addr, err := network.ParseIP(f[1])
			if err != nil {
				return err
			}
			m, err := network.ParseIP(f[3])
			if err != nil {
				return err
			}
			pre, err := network.PrefixFromMask(addr, m)
			if err != nil {
				return err
			}
			b.Networks = append(b.Networks, pre)
			return nil
		}
		if len(f) == 2 {
			pre, err := network.ParsePrefix(f[1])
			if err != nil {
				return err
			}
			b.Networks = append(b.Networks, pre)
			return nil
		}
		return fmt.Errorf("network A.B.C.D mask M.M.M.M")
	case f[0] == "redistribute":
		rd, err := parseRedistribute(f)
		if err != nil {
			return err
		}
		b.Redistribute = append(b.Redistribute, rd)
		return nil
	case f[0] == "aggregate-address":
		// aggregate-address A.B.C.D M.M.M.M [summary-only]
		if len(f) < 3 {
			return fmt.Errorf("aggregate-address A.B.C.D M.M.M.M [summary-only]")
		}
		addr, err := network.ParseIP(f[1])
		if err != nil {
			return err
		}
		m, err := network.ParseIP(f[2])
		if err != nil {
			return err
		}
		pre, err := network.PrefixFromMask(addr, m)
		if err != nil {
			return err
		}
		agg := Aggregate{Prefix: pre}
		if len(f) >= 4 {
			if f[3] != "summary-only" {
				return fmt.Errorf("unknown aggregate option %q", f[3])
			}
			agg.SummaryOnly = true
		}
		b.Aggregates = append(b.Aggregates, agg)
		return nil
	case f[0] == "maximum-paths":
		return intArg(f, math.MaxInt, &b.MaxPaths)
	case f[0] == "distance":
		return intArg(f, 255, &b.AdminDistance)
	}
	return fmt.Errorf("unknown bgp directive %q", strings.Join(f, " "))
}

func (p *parser) bgpNeighbor(f []string) error {
	if len(f) < 3 {
		return fmt.Errorf("neighbor needs an address and a directive")
	}
	addr, err := network.ParseIP(f[1])
	if err != nil {
		return err
	}
	b := p.r.BGP
	var n *BGPNeighbor
	for _, x := range b.Neighbors {
		if x.Addr == addr {
			n = x
			break
		}
	}
	switch f[2] {
	case "remote-as":
		if len(f) != 4 {
			return fmt.Errorf("remote-as needs an ASN")
		}
		asn, err := strconv.ParseUint(f[3], 10, 32)
		if err != nil {
			return fmt.Errorf("bad ASN %q", f[3])
		}
		if n != nil {
			if n.RemoteAS != uint32(asn) {
				return fmt.Errorf("neighbor %v redeclared with remote-as %d (was %d)", addr, asn, n.RemoteAS)
			}
			return nil
		}
		b.Neighbors = append(b.Neighbors, p.newNeighbor(BGPNeighbor{Addr: addr, RemoteAS: uint32(asn)}))
		return nil
	}
	if n == nil {
		return fmt.Errorf("neighbor %v has no remote-as yet", addr)
	}
	switch f[2] {
	case "route-map":
		if len(f) != 5 || (f[4] != "in" && f[4] != "out") {
			return fmt.Errorf("neighbor A.B.C.D route-map NAME in|out")
		}
		if f[4] == "in" {
			n.InMap = f[3]
		} else {
			n.OutMap = f[3]
		}
		return nil
	case "route-reflector-client":
		n.RouteReflectorClient = true
		return nil
	case "description":
		n.Description = strings.Join(f[3:], " ")
		return nil
	}
	return fmt.Errorf("unknown neighbor directive %q", f[2])
}

func (p *parser) ipDirective(f []string) error {
	if len(f) < 2 {
		return fmt.Errorf("incomplete ip directive")
	}
	switch f[1] {
	case "route":
		return p.staticRoute(f)
	case "prefix-list":
		return p.prefixList(f)
	case "community-list":
		return p.communityList(f)
	case "access-list":
		return p.namedACL(f)
	}
	return fmt.Errorf("unknown ip directive %q", f[1])
}

func (p *parser) staticRoute(f []string) error {
	// ip route A.B.C.D M.M.M.M (NEXTHOP | null0 | IFACE) [distance]
	if len(f) < 5 {
		return fmt.Errorf("ip route PREFIX MASK NEXTHOP")
	}
	addr, err := network.ParseIP(f[2])
	if err != nil {
		return err
	}
	m, err := network.ParseIP(f[3])
	if err != nil {
		return err
	}
	pre, err := network.PrefixFromMask(addr, m)
	if err != nil {
		return err
	}
	s := &StaticRoute{Prefix: pre}
	if f[4] == "null0" || f[4] == "Null0" {
		s.Drop = true
	} else if nh, err := network.ParseIP(f[4]); err == nil {
		s.NextHop = nh
	} else {
		s.Interface = f[4]
	}
	if len(f) >= 6 {
		d, err := strconv.Atoi(f[5])
		if err != nil || d < 1 || d > 255 {
			return fmt.Errorf("bad static distance %q", f[5])
		}
		s.AdminDistance = d
	}
	p.r.Statics = append(p.r.Statics, s)
	return nil
}

func (p *parser) prefixList(f []string) error {
	// ip prefix-list NAME [seq N] permit|deny PREFIX [ge N] [le N]
	if len(f) < 4 {
		return fmt.Errorf("incomplete prefix-list")
	}
	name := f[2]
	rest := f[3:]
	e := PrefixListEntry{}
	if rest[0] == "seq" {
		if len(rest) < 3 {
			return fmt.Errorf("seq needs a number")
		}
		n, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad seq %q", rest[1])
		}
		e.Seq = n
		rest = rest[2:]
	}
	switch rest[0] {
	case "permit":
		e.Action = Permit
	case "deny":
		e.Action = Deny
	default:
		return fmt.Errorf("prefix-list action must be permit or deny")
	}
	if len(rest) < 2 {
		return fmt.Errorf("prefix-list needs a prefix")
	}
	pre, err := network.ParsePrefix(rest[1])
	if err != nil {
		return err
	}
	e.Prefix = pre
	for i := 2; i < len(rest); i += 2 {
		if i+1 >= len(rest) {
			return fmt.Errorf("dangling %q", rest[i])
		}
		n, err := strconv.Atoi(rest[i+1])
		if err != nil || n < 0 || n > 32 {
			return fmt.Errorf("bad prefix length bound %q", rest[i+1])
		}
		switch rest[i] {
		case "ge":
			e.Ge = n
		case "le":
			e.Le = n
		default:
			return fmt.Errorf("unknown prefix-list option %q", rest[i])
		}
	}
	if e.Ge != 0 && e.Ge < e.Prefix.Len {
		return fmt.Errorf("ge %d below prefix length %d", e.Ge, e.Prefix.Len)
	}
	if e.Le != 0 && e.Ge != 0 && e.Le < e.Ge {
		return fmt.Errorf("le %d below ge %d", e.Le, e.Ge)
	}
	l := p.r.PrefixLists[name]
	if l == nil {
		l = &PrefixList{Name: name}
		p.r.PrefixLists[name] = l
	}
	if e.Seq == 0 {
		e.Seq = 5 * (len(l.Entries) + 1)
	}
	l.Entries = append(l.Entries, e)
	return nil
}

func (p *parser) communityList(f []string) error {
	// ip community-list NAME permit VALUE...
	if len(f) < 5 || f[3] != "permit" {
		return fmt.Errorf("ip community-list NAME permit VALUES")
	}
	name := f[2]
	l := p.r.CommunityLists[name]
	if l == nil {
		l = &CommunityList{Name: name}
		p.r.CommunityLists[name] = l
	}
	l.Values = append(l.Values, f[4:]...)
	return nil
}

func (p *parser) routeMapHeader(f []string) error {
	// route-map NAME permit|deny SEQ
	if len(f) != 4 {
		return fmt.Errorf("route-map NAME permit|deny SEQ")
	}
	name := f[1]
	var act Action
	switch f[2] {
	case "permit":
		act = Permit
	case "deny":
		act = Deny
	default:
		return fmt.Errorf("route-map action must be permit or deny")
	}
	seq, err := strconv.Atoi(f[3])
	if err != nil {
		return fmt.Errorf("bad route-map sequence %q", f[3])
	}
	m := p.r.RouteMaps[name]
	if m == nil {
		m = &RouteMap{Name: name}
		p.r.RouteMaps[name] = m
	}
	cl := &RouteMapClause{Seq: seq, Action: act}
	m.Clauses = append(m.Clauses, cl)
	p.curMap = cl
	p.curName = name
	p.ctx = ctxRouteMap
	return nil
}

func (p *parser) routeMapLine(f []string) error {
	cl := p.curMap
	switch {
	case eq(f, "match", "ip", "address", "prefix-list"):
		if len(f) != 5 {
			return fmt.Errorf("match ip address prefix-list NAME")
		}
		cl.MatchPrefixList = f[4]
		return nil
	case eq(f, "match", "community"):
		if len(f) != 3 {
			return fmt.Errorf("match community NAME")
		}
		cl.MatchCommunity = f[2]
		return nil
	case eq(f, "set", "local-preference"):
		if len(f) != 3 {
			return fmt.Errorf("set local-preference needs a value")
		}
		n, err := strconv.ParseUint(f[2], 10, 32)
		if err != nil || n == 0 {
			return fmt.Errorf("bad local-preference %q", f[2])
		}
		cl.SetLocalPref = uint32(n)
		return nil
	case eq(f, "set", "metric"):
		if len(f) != 3 {
			return fmt.Errorf("set metric needs a value")
		}
		n, err := strconv.Atoi(f[2])
		if err != nil || n < 0 {
			return fmt.Errorf("bad metric %q", f[2])
		}
		cl.SetMetric, cl.HasSetMetric = n, true
		return nil
	case eq(f, "set", "med"):
		if len(f) != 3 {
			return fmt.Errorf("set med needs a value")
		}
		n, err := strconv.Atoi(f[2])
		if err != nil || n < 0 {
			return fmt.Errorf("bad med %q", f[2])
		}
		cl.SetMED, cl.HasSetMED = n, true
		return nil
	case eq(f, "set", "community"):
		vals := f[2:]
		if len(vals) > 0 && vals[len(vals)-1] == "additive" {
			vals = vals[:len(vals)-1]
		}
		if len(vals) == 0 {
			return fmt.Errorf("set community needs values")
		}
		cl.SetCommunity = append(cl.SetCommunity, vals...)
		return nil
	case eq(f, "set", "comm-list") && len(f) == 4 && f[3] == "delete":
		cl.DelCommunity = append(cl.DelCommunity, f[2])
		return nil
	case eq(f, "set", "ip", "next-hop"):
		if len(f) != 4 {
			return fmt.Errorf("set ip next-hop A.B.C.D")
		}
		ip, err := network.ParseIP(f[3])
		if err != nil {
			return err
		}
		cl.SetNextHop, cl.HasSetNextHop = ip, true
		return nil
	case eq(f, "set", "as-path", "prepend"):
		// Count the prepended ASNs.
		cl.SetPrepend = len(f) - 3
		if cl.SetPrepend < 1 {
			return fmt.Errorf("as-path prepend needs ASNs")
		}
		return nil
	}
	return fmt.Errorf("unknown route-map directive %q (map %s)", strings.Join(f, " "), p.curName)
}

// numberedACL parses "access-list NAME permit|deny ip SRC [WILD] DST [WILD]".
func (p *parser) numberedACL(f []string) error {
	if len(f) < 4 {
		return fmt.Errorf("incomplete access-list")
	}
	name := f[1]
	var act Action
	switch f[2] {
	case "permit":
		act = Permit
	case "deny":
		act = Deny
	default:
		return fmt.Errorf("access-list action must be permit or deny")
	}
	e := AnyACLEntry(act)
	rest := f[3:]
	// Protocol.
	switch rest[0] {
	case "ip":
		e.Protocol = -1
	case "tcp":
		e.Protocol = 6
	case "udp":
		e.Protocol = 17
	case "icmp":
		e.Protocol = 1
	default:
		return fmt.Errorf("unknown ACL protocol %q", rest[0])
	}
	rest = rest[1:]
	src, rest, err := parseACLAddr(rest)
	if err != nil {
		return err
	}
	e.SrcPrefix = src
	var ports [2]int
	ports, rest, err = parseACLPorts(rest)
	if err != nil {
		return err
	}
	e.SrcPortLo, e.SrcPortHi = ports[0], ports[1]
	dst, rest, err := parseACLAddr(rest)
	if err != nil {
		return err
	}
	e.DstPrefix = dst
	ports, rest, err = parseACLPorts(rest)
	if err != nil {
		return err
	}
	e.DstPortLo, e.DstPortHi = ports[0], ports[1]
	if len(rest) != 0 {
		return fmt.Errorf("trailing ACL tokens %v", rest)
	}
	a := p.r.ACLs[name]
	if a == nil {
		a = &ACL{Name: name}
		p.r.ACLs[name] = a
	}
	a.Entries = append(a.Entries, e)
	return nil
}

// namedACL parses "ip access-list ..." as an alias of access-list.
func (p *parser) namedACL(f []string) error {
	return p.numberedACL(f[1:])
}

func parseACLAddr(f []string) (network.Prefix, []string, error) {
	if len(f) == 0 {
		return network.Prefix{}, nil, fmt.Errorf("missing ACL address")
	}
	if f[0] == "any" {
		return network.Prefix{}, f[1:], nil
	}
	if f[0] == "host" {
		if len(f) < 2 {
			return network.Prefix{}, nil, fmt.Errorf("host needs an address")
		}
		ip, err := network.ParseIP(f[1])
		if err != nil {
			return network.Prefix{}, nil, err
		}
		return network.Prefix{Addr: ip, Len: 32}, f[2:], nil
	}
	ip, err := network.ParseIP(f[0])
	if err != nil {
		return network.Prefix{}, nil, err
	}
	if len(f) < 2 {
		return network.Prefix{}, nil, fmt.Errorf("address %v needs a wildcard", ip)
	}
	wc, err := network.ParseIP(f[1])
	if err != nil {
		return network.Prefix{}, nil, err
	}
	l, ok := network.WildcardLen(wc)
	if !ok {
		return network.Prefix{}, nil, fmt.Errorf("non-contiguous wildcard %v", wc)
	}
	return network.Prefix{Addr: ip.Mask(l), Len: l}, f[2:], nil
}

func parseACLPorts(f []string) ([2]int, []string, error) {
	ports := [2]int{0, 65535}
	if len(f) == 0 {
		return ports, f, nil
	}
	switch f[0] {
	case "eq":
		if len(f) < 2 {
			return ports, nil, fmt.Errorf("eq needs a port")
		}
		n, err := strconv.Atoi(f[1])
		if err != nil || n < 0 || n > 65535 {
			return ports, nil, fmt.Errorf("bad port %q", f[1])
		}
		return [2]int{n, n}, f[2:], nil
	case "range":
		if len(f) < 3 {
			return ports, nil, fmt.Errorf("range needs two ports")
		}
		lo, err1 := strconv.Atoi(f[1])
		hi, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || lo < 0 || hi > 65535 || lo > hi {
			return ports, nil, fmt.Errorf("bad port range")
		}
		return [2]int{lo, hi}, f[3:], nil
	}
	return ports, f, nil
}

func eq(f []string, prefix ...string) bool {
	if len(f) < len(prefix) {
		return false
	}
	for i, p := range prefix {
		if f[i] != p {
			return false
		}
	}
	return true
}
