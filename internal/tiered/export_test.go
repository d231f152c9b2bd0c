package tiered

import (
	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/provenance"
)

// MayDecide exposes the may-graph decision to the external tests.
func (a *Analysis) MayDecide(goal Goal) Outcome { return a.mayDecide(goal) }

// DetReason is the residue reason of the deterministic path's
// precondition for the whole network, "" inside its fragment.
func (a *Analysis) DetReason() string { return a.detReason }

// Simulations counts the simulator runs the Analysis has made.
func (a *Analysis) Simulations() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sims
}

// RefMayDecide is mayDecide as it was before the reverse sweep and the
// per-edge ACL resolution: one forward search per source, each edge visit
// looking up the first link between the two routers and the interfaces'
// ACLs by name. It is the reference the new mayDecide is held to, field
// for field (reason, verdict, blame order, witness).
func (a *Analysis) RefMayDecide(goal Goal) Outcome {
	srcs := goal.Sources()
	region := goal.Subnet
	reach := make([]bool, len(srcs))
	var blockers []provenance.Origin
	for i, src := range srcs {
		r, b := a.refMayReach(src, region, "")
		reach[i] = r
		blockers = append(blockers, b...)
	}
	unreachBlame := func() []provenance.Origin {
		out := append([]provenance.Origin{propertyOrigin}, blockers...)
		provenance.SortOrigins(out)
		return provenance.DedupeOrigins(out)
	}
	allUnreach := true
	for _, r := range reach {
		allUnreach = allUnreach && !r
	}
	switch goal.Check {
	case "isolation":
		if !reach[0] {
			return verified("may-unreachable", unreachBlame())
		}
	case "bounded-length", "bounded-length-all":
		if allUnreach {
			return verified("may-unreachable", unreachBlame())
		}
	case "equal-lengths":
		n := 0
		for _, r := range reach {
			if r {
				n++
			}
		}
		if n <= 1 {
			return verified("may-unreachable", unreachBlame())
		}
	case "waypoint":
		if ok, b := a.refMayReach(goal.Src, region, goal.Via); !ok {
			blame := append([]provenance.Origin{propertyOrigin}, b...)
			provenance.SortOrigins(blame)
			return verified("cannot-avoid-waypoint", provenance.DedupeOrigins(blame))
		}
	case "reachability", "reachability-all":
		for i, r := range reach {
			if !r {
				return a.mayFalsifyReach(goal, srcs[i], unreachBlame())
			}
		}
	}
	return residue("may-graph-inconclusive")
}

func (a *Analysis) delivers(router string, region network.Prefix) bool {
	return delivers(a.G.Configs[router], region)
}

func (a *Analysis) refMayReach(src string, region network.Prefix, avoid string) (bool, []provenance.Origin) {
	if src == avoid {
		return false, nil
	}
	if a.G.Topo.Node(src) == nil {
		return false, nil
	}
	var blockers []provenance.Origin
	visited := map[string]bool{src: true}
	queue := []string{src}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		if a.delivers(at, region) {
			return true, nil
		}
		for _, e := range a.may[a.G.Topo.Node(at).Index] {
			to := a.G.Topo.Nodes[e.to].Name
			if visited[to] || to == avoid {
				continue
			}
			if e.scoped && !e.pfx.Overlaps(region) {
				continue
			}
			if blocked, origins := a.refEdgeBlocked(at, to, region); blocked {
				blockers = append(blockers, origins...)
				continue
			}
			visited[to] = true
			queue = append(queue, to)
		}
	}
	provenance.SortOrigins(blockers)
	return false, provenance.DedupeOrigins(blockers)
}

func (a *Analysis) refEdgeBlocked(from, to string, region network.Prefix) (bool, []provenance.Origin) {
	var link *network.Link
	for _, l := range a.G.Topo.Links { // the first link of the pair, by scan
		if (l.A.Name == from && l.B.Name == to) || (l.A.Name == to && l.B.Name == from) {
			link = l
			break
		}
	}
	if link == nil {
		return false, nil
	}
	outIface := link.IfaceOf(a.G.Topo.Node(from))
	inIface := link.IfaceOf(a.G.Topo.Node(to))
	if name, blocked := refIfaceACLBlocks(a.G.Configs[from], outIface, false, region); blocked {
		return true, []provenance.Origin{{Router: from, Kind: "acl", Name: name}}
	}
	if name, blocked := refIfaceACLBlocks(a.G.Configs[to], inIface, true, region); blocked {
		return true, []provenance.Origin{{Router: to, Kind: "acl", Name: name}}
	}
	return false, nil
}

func refIfaceACLBlocks(cfg *config.Router, ifaceName string, inbound bool, region network.Prefix) (string, bool) {
	if ifaceName == "" {
		return "", false
	}
	iface := cfg.Iface(ifaceName)
	if iface == nil {
		return "", false
	}
	name := iface.OutACL
	if inbound {
		name = iface.InACL
	}
	if name == "" {
		return "", false
	}
	acl := cfg.ACLs[name]
	if acl == nil {
		return "", false
	}
	return name, aclDefinitelyDenies(acl, region)
}

// MenuTries counts the (representative, environment) pairs the
// simulated-falsification rule has evaluated.
func (a *Analysis) MenuTries() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.menuTries
}
