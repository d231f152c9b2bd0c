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

// RefDecide is Decide as it was before the walk: the deterministic path
// (rule 3) over the empty environment, then, when it handed the goal down
// only because the network is outside its fragment, simulated
// falsification (rule 4) walking the menu again from the start. It is the
// reference the walk is held to, field for field.
func (a *Analysis) RefDecide(goal Goal) Outcome {
	for _, r := range append(append([]string{}, goal.Sources()...), goal.Via) {
		if r != "" && a.G.Topo.Node(r) == nil {
			return residue("unknown-router")
		}
	}
	switch goal.Check {
	case "loops":
		if len(a.loopCandidates()) == 0 {
			return verified("no-loop-candidates", []provenance.Origin{propertyOrigin})
		}
		return a.refDetDecide(goal, scope(goal))
	case "blackholes", "multipath-consistency":
		return a.refDetDecide(goal, scope(goal))
	case "mgmt-reachability":
		mgmt := a.managementAddrs(scope(goal))
		if len(mgmt) == 0 {
			return verified("no-management-interfaces", []provenance.Origin{propertyOrigin})
		}
		return a.refDetMgmt(goal, mgmt)
	case "no-leak":
		if len(a.G.Topo.Externals) == 0 {
			return verified("no-external-peers", []provenance.Origin{propertyOrigin})
		}
		return residue("environment-dependent-exports")
	case "reachability", "reachability-all", "isolation", "waypoint",
		"bounded-length", "bounded-length-all", "equal-lengths":
		if !goal.HasSubnet {
			return residue("missing-subnet")
		}
		if len(goal.Sources()) == 0 {
			return residue("missing-source")
		}
		if out := a.mayDecide(goal); out.Decided {
			return out
		}
		return a.refDetDecide(goal, goal.Subnet)
	}
	return residue("unsupported-check")
}

func (a *Analysis) refDetDecide(goal Goal, region network.Prefix) Outcome {
	out := a.refDetEvaluate(goal, region)
	if !a.refOutsideFragment(out) {
		return out
	}
	reps, ok := a.reps(region)
	if !ok {
		return out
	}
	return a.refFalsify(out, reps, func(pl *plane, _ int) (bool, string) { return pl.evaluate(goal) })
}

func (a *Analysis) refDetEvaluate(goal Goal, region network.Prefix) Outcome {
	if a.detReason != "" {
		return residue(a.detReason)
	}
	if a.aclReason != "" {
		return residue(a.aclReason)
	}
	reps, ok := a.reps(region)
	if !ok {
		return residue("too-many-fecs")
	}
	blame := []provenance.Origin{propertyOrigin}
	for _, rep := range reps {
		pl, reason := a.plane(rep)
		if reason != "" {
			return residue(reason)
		}
		violated, reason := pl.evaluate(goal)
		if reason != "" {
			return residue(reason)
		}
		if violated {
			return falsified("stable-state-violation", append([]provenance.Origin(nil), pl.origins...), pl.pkt, pl.env)
		}
		blame = append(blame, pl.origins...)
	}
	if goal.MaxFailures > 0 {
		return residue("failure-budget")
	}
	provenance.SortOrigins(blame)
	return verified("stable-state", provenance.DedupeOrigins(blame))
}

func (a *Analysis) refDetMgmt(goal Goal, mgmt []mgmtAddr) Outcome {
	out := a.refDetMgmtEvaluate(goal, mgmt)
	if !a.refOutsideFragment(out) {
		return out
	}
	reps := make([]network.IP, len(mgmt))
	for i, m := range mgmt {
		reps[i] = m.Addr
	}
	return a.refFalsify(out, reps, func(pl *plane, i int) (bool, string) {
		return pl.unreached(mgmt[i].Router) != "", ""
	})
}

func (a *Analysis) refDetMgmtEvaluate(goal Goal, mgmt []mgmtAddr) Outcome {
	if a.detReason != "" {
		return residue(a.detReason)
	}
	if a.aclReason != "" {
		return residue(a.aclReason)
	}
	blame := []provenance.Origin{propertyOrigin}
	for _, m := range mgmt {
		pl, reason := a.plane(m.Addr)
		if reason != "" {
			return residue(reason)
		}
		if r := pl.unreached(m.Router); r != "" {
			return falsified("mgmt-unreachable:"+r, append([]provenance.Origin(nil), pl.origins...), pl.pkt, pl.env)
		}
		blame = append(blame, pl.origins...)
	}
	if goal.MaxFailures > 0 {
		return residue("failure-budget")
	}
	provenance.SortOrigins(blame)
	return verified("stable-state", provenance.DedupeOrigins(blame))
}

func (a *Analysis) refOutsideFragment(out Outcome) bool {
	if out.Decided || out.Reason == "" {
		return false
	}
	switch out.Reason {
	case a.detReason, a.aclReason, "external-influence", "no-convergence":
		return true
	}
	return false
}

func (a *Analysis) refFalsify(old Outcome, reps []network.IP, violated func(pl *plane, i int) (bool, string)) Outcome {
	peers := a.menuPeers()
	tries := 0
	defer func() {
		a.mu.Lock()
		a.menuTries += tries
		a.mu.Unlock()
	}()
	for entry := -1; entry < len(peers); entry++ {
		k := planeKey{peer: -1}
		if entry >= 0 {
			k.peer = peers[entry].ext
		}
		for i, rep := range reps {
			if entry >= 0 && !a.admits(peers[entry], rep) {
				continue
			}
			if tries == menuLimit {
				return old
			}
			tries++
			k.rep = rep
			pl, _ := a.planeUnder(k)
			if pl == nil {
				continue
			}
			if bad, reason := violated(pl, i); !bad || reason != "" {
				continue
			}
			blame := pl.selections()
			if entry >= 0 {
				e := a.G.Topo.Externals[k.peer]
				blame = append(blame, provenance.Origin{Router: e.Router.Name, Proto: "bgp", Kind: "neighbor", Name: "ext." + e.Name})
				provenance.SortOrigins(blame)
			}
			return falsified(ReasonSimulated, blame, pl.pkt, pl.env)
		}
	}
	return old
}
