// Package config defines the vendor-style router configuration language
// consumed by the verifier: a typed in-memory representation (the analogue
// of Batfish's vendor-independent model), a Cisco-IOS-flavoured text
// parser, a printer, and layer-3 topology inference.
package config

import (
	"fmt"
	"sort"

	"repro/internal/network"
)

// Protocol identifies a routing-information source. Connected and static
// routes are modeled as protocols of their own, exactly as in the paper
// ("we model them as if they are another protocol to avoid special
// cases").
type Protocol int

// Routing protocols.
const (
	Connected Protocol = iota
	Static
	OSPF
	RIP
	BGP
)

func (p Protocol) String() string {
	switch p {
	case Connected:
		return "connected"
	case Static:
		return "static"
	case OSPF:
		return "ospf"
	case RIP:
		return "rip"
	case BGP:
		return "bgp"
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// DefaultAdminDistance returns the conventional administrative distance
// used when the configuration does not override it.
func DefaultAdminDistance(p Protocol) int {
	switch p {
	case Connected:
		return 0
	case Static:
		return 1
	case OSPF:
		return 110
	case RIP:
		return 120
	case BGP:
		return 20 // eBGP; iBGP uses 200
	}
	return 255
}

// Action is permit or deny in filters.
type Action int

// Filter actions.
const (
	Permit Action = iota
	Deny
)

func (a Action) String() string {
	if a == Permit {
		return "permit"
	}
	return "deny"
}

// Router is the configuration of one device.
type Router struct {
	Name       string
	Interfaces []*Interface
	OSPF       *OSPFConfig
	RIP        *RIPConfig
	BGP        *BGPConfig
	Statics    []*StaticRoute

	PrefixLists map[string]*PrefixList
	RouteMaps   map[string]*RouteMap
	ACLs        map[string]*ACL
	// CommunityLists names sets of community values for route-map matches.
	CommunityLists map[string]*CommunityList
}

// NewRouter returns an empty configuration for the named device.
func NewRouter(name string) *Router {
	return &Router{
		Name:           name,
		PrefixLists:    map[string]*PrefixList{},
		RouteMaps:      map[string]*RouteMap{},
		ACLs:           map[string]*ACL{},
		CommunityLists: map[string]*CommunityList{},
	}
}

// Interface is a layer-3 interface.
type Interface struct {
	Name string
	// Addr is the interface address; Prefix its connected subnet.
	Addr   network.IP
	Prefix network.Prefix
	// OSPFCost is the link cost (default 1 when the interface runs OSPF).
	OSPFCost int
	// InACL and OutACL name data-plane filters ("" = none).
	InACL, OutACL string
	// Management marks a device-management interface (the §8.1
	// reachability property targets these).
	Management bool
	// Shutdown interfaces are administratively down.
	Shutdown bool
}

// Iface returns the named interface or nil.
func (r *Router) Iface(name string) *Interface {
	for _, i := range r.Interfaces {
		if i.Name == name {
			return i
		}
	}
	return nil
}

// Permits applies the data-plane filter of the named interface in one
// direction (inbound: its InACL, else its OutACL) to a concrete packet.
// No interface name, an unknown interface, no ACL name or an unknown ACL
// permits.
func (r *Router) Permits(iface string, inbound bool, pkt Packet) bool {
	if iface == "" {
		return true
	}
	i := r.Iface(iface)
	if i == nil {
		return true
	}
	name := i.OutACL
	if inbound {
		name = i.InACL
	}
	acl := r.ACLs[name]
	return name == "" || acl == nil || acl.Permits(pkt)
}

// ManagementInterfaces returns all interfaces flagged as management.
func (r *Router) ManagementInterfaces() []*Interface {
	var out []*Interface
	for _, i := range r.Interfaces {
		if i.Management {
			out = append(out, i)
		}
	}
	return out
}

// Redistribution imports routes from another protocol into the enclosing
// one.
type Redistribution struct {
	From Protocol
	// Metric is the seed metric in the target protocol (0 = protocol
	// default).
	Metric int
	// RouteMap optionally filters/transforms redistributed routes.
	RouteMap string
}

// OSPFConfig is a link-state routing process.
type OSPFConfig struct {
	ProcessID int
	// Networks lists interface subnets activated for OSPF.
	Networks []network.Prefix
	// Redistribute imports other protocols.
	Redistribute []Redistribution
	// AdminDistance overrides the default of 110 when non-zero.
	AdminDistance int
	// MaxPaths >1 enables ECMP.
	MaxPaths int
}

// RIPConfig is a distance-vector routing process. Per the paper, RIP is
// modeled as shortest paths with every link of weight 1.
type RIPConfig struct {
	Networks      []network.Prefix
	Redistribute  []Redistribution
	AdminDistance int
}

// BGPConfig is a BGP process.
type BGPConfig struct {
	ASN      uint32
	RouterID network.IP
	// Networks are prefixes originated by this router.
	Networks []network.Prefix
	// Neighbors lists configured peers (internal or external).
	Neighbors []*BGPNeighbor
	// Redistribute imports other protocols.
	Redistribute []Redistribution
	// MaxPaths >1 enables BGP multipath.
	MaxPaths int
	// AdminDistance overrides the default (20 eBGP / 200 iBGP) when
	// non-zero.
	AdminDistance int
	// AlwaysCompareMED selects MED comparison independent of neighboring
	// AS (§4, first MED usage).
	AlwaysCompareMED bool
	// Aggregates are advertised summary prefixes (§4 aggregation).
	Aggregates []Aggregate
}

// Aggregate is a BGP aggregate-address statement. With SummaryOnly the
// more-specific routes are suppressed on eBGP export: following the paper,
// this is modeled as shortening the advertised prefix length to the
// aggregate's.
type Aggregate struct {
	Prefix      network.Prefix
	SummaryOnly bool
}

// BGPNeighbor is one BGP peering.
type BGPNeighbor struct {
	Addr     network.IP
	RemoteAS uint32
	// InMap and OutMap name route-maps applied on import/export.
	InMap, OutMap string
	// RouteReflectorClient marks the peer as an RR client of this router.
	RouteReflectorClient bool
	// Description is free-form.
	Description string
}

// IsInternal reports whether the peering is iBGP given the local ASN.
func (n *BGPNeighbor) IsInternal(localAS uint32) bool { return n.RemoteAS == localAS }

// StaticRoute is a static forwarding entry.
type StaticRoute struct {
	Prefix network.Prefix
	// NextHop is the next-hop address (0 if Interface is set).
	NextHop network.IP
	// Interface directs out a named interface when non-empty.
	Interface string
	// AdminDistance overrides the default of 1 when non-zero.
	AdminDistance int
	// Drop marks a "reject"/null0 route that blackholes the prefix.
	Drop bool
}

// PrefixList is an ordered prefix filter.
type PrefixList struct {
	Name    string
	Entries []PrefixListEntry
}

// PrefixListEntry is one prefix-list rule. Ge/Le of 0 mean "unset": the
// entry then matches the exact prefix length only.
type PrefixListEntry struct {
	Seq    int
	Action Action
	Prefix network.Prefix
	Ge, Le int
}

// Matches reports whether the entry matches a route for prefix p, per the
// standard semantics: first Prefix.Len bits must match and the length must
// satisfy the ge/le bounds. p.Addr is masked here, so p may pair an
// unmasked destination address with a record's length: that is the
// hoisted reading the simulator and the graph tier evaluate (first bits
// on the destination, length bounds on the record).
func (e PrefixListEntry) Matches(p network.Prefix) bool {
	if p.Addr.Mask(e.Prefix.Len) != e.Prefix.Addr {
		return false
	}
	lo, hi := e.Prefix.Len, e.Prefix.Len
	if e.Ge != 0 {
		lo = e.Ge
		hi = 32
	}
	if e.Le != 0 {
		hi = e.Le
		if e.Ge == 0 {
			lo = e.Prefix.Len
		}
	}
	return p.Len >= lo && p.Len <= hi
}

// Permits runs the prefix list against p with an implicit deny-all tail.
func (l *PrefixList) Permits(p network.Prefix) bool {
	for _, e := range l.Entries {
		if e.Matches(p) {
			return e.Action == Permit
		}
	}
	return false
}

// CommunityList names a set of community strings.
type CommunityList struct {
	Name   string
	Values []string
}

// RouteMap is an ordered sequence of match/set clauses.
type RouteMap struct {
	Name    string
	Clauses []*RouteMapClause
}

// RouteMapClause is one route-map stanza. All match conditions must hold
// for the clause to apply; an applying permit clause executes its sets and
// accepts, an applying deny clause rejects. A route matching no clause is
// rejected (implicit deny).
type RouteMapClause struct {
	Seq    int
	Action Action

	// Match conditions (zero values = unset).
	MatchPrefixList string
	MatchCommunity  string // community-list name

	// Set actions (applied when the clause permits).
	SetLocalPref  uint32 // 0 = unset
	SetMetric     int    // 0 = unset
	HasSetMetric  bool
	SetMED        int
	HasSetMED     bool
	SetCommunity  []string // communities to add
	DelCommunity  []string // communities to remove
	SetNextHop    network.IP
	HasSetNextHop bool
	// SetPrepend prepends the local ASN this many times on export,
	// lengthening the advertised AS path.
	SetPrepend int
}

// ACL is a data-plane packet filter.
type ACL struct {
	Name    string
	Entries []ACLEntry
}

// ACLEntry matches the 5-tuple fields of the symbolic packet.
type ACLEntry struct {
	Action Action
	// SrcPrefix/DstPrefix constrain addresses; zero-length prefixes match
	// any.
	SrcPrefix, DstPrefix network.Prefix
	// Protocol is the IP protocol number, or -1 for any.
	Protocol int
	// Port ranges; Lo=0,Hi=65535 means any.
	SrcPortLo, SrcPortHi int
	DstPortLo, DstPortHi int
}

// AnyACLEntry returns an entry matching every packet.
func AnyACLEntry(a Action) ACLEntry {
	return ACLEntry{Action: a, Protocol: -1, SrcPortHi: 65535, DstPortHi: 65535}
}

// Packet is a concrete data-plane packet header (used by the simulator and
// by counterexample replay).
type Packet struct {
	SrcIP, DstIP     network.IP
	SrcPort, DstPort int
	Protocol         int
}

// MatchesPacket reports whether the entry matches the concrete packet.
func (e ACLEntry) MatchesPacket(p Packet) bool {
	if e.SrcPrefix.Len > 0 && !e.SrcPrefix.Contains(p.SrcIP) {
		return false
	}
	if e.DstPrefix.Len > 0 && !e.DstPrefix.Contains(p.DstIP) {
		return false
	}
	if e.Protocol >= 0 && e.Protocol != p.Protocol {
		return false
	}
	if p.SrcPort < e.SrcPortLo || p.SrcPort > e.SrcPortHi {
		return false
	}
	if p.DstPort < e.DstPortLo || p.DstPort > e.DstPortHi {
		return false
	}
	return true
}

// Permits runs the ACL against a packet with the implicit deny-all tail.
func (a *ACL) Permits(p Packet) bool {
	for _, e := range a.Entries {
		if e.MatchesPacket(p) {
			return e.Action == Permit
		}
	}
	return false
}

// Protocols returns the routing protocols configured on the router,
// including the implicit Connected instance, in deterministic order.
func (r *Router) Protocols() []Protocol {
	out := []Protocol{Connected}
	if len(r.Statics) > 0 {
		out = append(out, Static)
	}
	if r.OSPF != nil {
		out = append(out, OSPF)
	}
	if r.RIP != nil {
		out = append(out, RIP)
	}
	if r.BGP != nil {
		out = append(out, BGP)
	}
	return out
}

// OriginatedPrefixes returns every prefix the router can inject into
// routing: connected subnets, static destinations, and BGP network
// statements.
func (r *Router) OriginatedPrefixes() []network.Prefix {
	seen := map[network.Prefix]bool{}
	var out []network.Prefix
	add := func(p network.Prefix) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, i := range r.Interfaces {
		if !i.Shutdown {
			add(i.Prefix)
		}
	}
	for _, s := range r.Statics {
		add(s.Prefix)
	}
	if r.BGP != nil {
		for _, p := range r.BGP.Networks {
			add(p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Len < out[j].Len
	})
	return out
}

// Validate performs basic structural checks: referenced route-maps,
// prefix-lists and ACLs must exist, interfaces must have addresses, and
// BGP neighbors must be unique.
func (r *Router) Validate() error {
	for _, i := range r.Interfaces {
		if i.Prefix.Len == 0 && i.Addr == 0 {
			return fmt.Errorf("%s: interface %s has no address", r.Name, i.Name)
		}
		for _, acl := range []string{i.InACL, i.OutACL} {
			if acl != "" && r.ACLs[acl] == nil {
				return fmt.Errorf("%s: interface %s references undefined ACL %q", r.Name, i.Name, acl)
			}
		}
	}
	if r.BGP != nil {
		for k, n := range r.BGP.Neighbors {
			for _, m := range r.BGP.Neighbors[:k] {
				if m.Addr == n.Addr {
					return fmt.Errorf("%s: duplicate BGP neighbor %v", r.Name, n.Addr)
				}
			}
			for _, m := range []string{n.InMap, n.OutMap} {
				if m != "" && r.RouteMaps[m] == nil {
					return fmt.Errorf("%s: neighbor %v references undefined route-map %q", r.Name, n.Addr, m)
				}
			}
		}
	}
	for _, rm := range r.RouteMaps {
		for _, cl := range rm.Clauses {
			if cl.MatchPrefixList != "" && r.PrefixLists[cl.MatchPrefixList] == nil {
				return fmt.Errorf("%s: route-map %s references undefined prefix-list %q", r.Name, rm.Name, cl.MatchPrefixList)
			}
			if cl.MatchCommunity != "" && r.CommunityLists[cl.MatchCommunity] == nil {
				return fmt.Errorf("%s: route-map %s references undefined community-list %q", r.Name, rm.Name, cl.MatchCommunity)
			}
		}
	}
	return nil
}
