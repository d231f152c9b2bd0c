package config

import "repro/internal/network"

// This file is the one home of what a configuration says once its
// defaults are resolved: administrative distances, the BGP router id,
// which prefixes a network statement may originate, which interfaces an
// IGP runs on, redistribution seed metrics, the predicates over a
// router's redistributions, and the destinations it discards. The encoder, the simulator, the graph tier
// and the modular cut all read these facts here; how routes are then
// selected and propagated stays written separately in the encoder and in
// the simulator, which is tested against it (DESIGN §7).

// Distance is the static route's administrative distance: the configured
// override, else 1.
func (s *StaticRoute) Distance() int { return orDefault(s.AdminDistance, 1) }

// OSPFDistance is the administrative distance of the router's OSPF
// routes: the configured override, else 110.
func (r *Router) OSPFDistance() int {
	if r.OSPF == nil {
		return 110
	}
	return orDefault(r.OSPF.AdminDistance, 110)
}

// RIPDistance is the administrative distance of the router's RIP routes:
// the configured override, else 120.
func (r *Router) RIPDistance() int {
	if r.RIP == nil {
		return 120
	}
	return orDefault(r.RIP.AdminDistance, 120)
}

// BGPDistance is the administrative distance of the router's BGP routes:
// the configured override, else 200 for routes learned over iBGP and 20
// for every other BGP route.
func (r *Router) BGPDistance(internal bool) int {
	if r.BGP != nil && r.BGP.AdminDistance != 0 {
		return r.BGP.AdminDistance
	}
	if internal {
		return 200
	}
	return 20
}

// RouterID is the router's BGP router id: the configured one, else
// index+1, where index is the router's position in the topology's
// name-sorted node list (so an unset id is never 0).
func (r *Router) RouterID(index int) uint32 {
	if r.BGP != nil && r.BGP.RouterID != 0 {
		return uint32(r.BGP.RouterID)
	}
	return uint32(index) + 1
}

// Owns reports whether a BGP network statement for p originates a route:
// some interface that is not shut down, or some static route, carries
// exactly p.
func (r *Router) Owns(p network.Prefix) bool {
	for _, i := range r.Interfaces {
		if !i.Shutdown && i.Prefix == p {
			return true
		}
	}
	for _, st := range r.Statics {
		if st.Prefix == p {
			return true
		}
	}
	return false
}

// RunsOSPF reports whether the interface runs OSPF: it is not shut down
// and an OSPF network statement covers its subnet.
func (r *Router) RunsOSPF(i *Interface) bool {
	return r.OSPF != nil && activated(r.OSPF.Networks, i)
}

// RunsRIP reports whether the interface runs RIP: it is not shut down
// and a RIP network statement covers its subnet.
func (r *Router) RunsRIP(i *Interface) bool {
	return r.RIP != nil && activated(r.RIP.Networks, i)
}

// activated reports whether a network statement covers the up
// interface's subnet. A statement with host bits set covers nothing, so
// it activates only the interface whose prefix it equals.
func activated(nets []network.Prefix, i *Interface) bool {
	if i.Shutdown {
		return false
	}
	for _, n := range nets {
		if n.Covers(i.Prefix) || n == i.Prefix {
			return true
		}
	}
	return false
}

// SeedMetric is the metric a redistributed route starts with in the
// target protocol: the configured one, else 20 into OSPF, 1 into RIP and
// 0 into BGP.
func (rd Redistribution) SeedMetric(into Protocol) int {
	switch {
	case rd.Metric != 0:
		return rd.Metric
	case into == OSPF:
		return 20
	case into == RIP:
		return 1
	}
	return 0
}

// Redistributes reports whether some routing process on the router
// imports routes from another protocol.
func (r *Router) Redistributes() bool {
	return r.redistributes(func(Protocol) bool { return true })
}

// Dynamic reports whether the protocol's routes are computed by a routing
// process (OSPF, RIP, BGP), as opposed to configured (connected, static).
func (p Protocol) Dynamic() bool { return p == OSPF || p == RIP || p == BGP }

// RedistributesDynamic reports whether some routing process on the router
// imports routes from a dynamic protocol, which can carry a route around a
// loop of protocols.
func (r *Router) RedistributesDynamic() bool {
	return r.redistributes(Protocol.Dynamic)
}

// MayLoop reports whether the router's configuration can close a
// forwarding cycle through it: it has static routes or redistributes.
func (r *Router) MayLoop() bool { return len(r.Statics) > 0 || r.Redistributes() }

func (r *Router) redistributes(from func(Protocol) bool) bool {
	var sets [3][]Redistribution
	if r.OSPF != nil {
		sets[0] = r.OSPF.Redistribute
	}
	if r.RIP != nil {
		sets[1] = r.RIP.Redistribute
	}
	if r.BGP != nil {
		sets[2] = r.BGP.Redistribute
	}
	for _, set := range sets {
		for _, rd := range set {
			if from(rd.From) {
				return true
			}
		}
	}
	return false
}

// Discards lists the destinations the router's configuration itself
// discards: filtered, the destination prefix of each deny entry of an
// ACL bound to an interface that is up (a deny of every destination
// names none), in interface and entry order; nulled, the prefix of each
// null0/reject static route. A prefix may repeat.
func (r *Router) Discards() (filtered, nulled []network.Prefix) {
	for _, i := range r.Interfaces {
		if i.Shutdown {
			continue
		}
		for _, name := range []string{i.InACL, i.OutACL} {
			acl := r.ACLs[name]
			if name == "" || acl == nil {
				continue
			}
			for _, e := range acl.Entries {
				if e.Action == Deny && e.DstPrefix.Len > 0 {
					filtered = append(filtered, e.DstPrefix)
				}
			}
		}
	}
	for _, st := range r.Statics {
		if st.Drop {
			nulled = append(nulled, st.Prefix)
		}
	}
	return filtered, nulled
}

func orDefault(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}
