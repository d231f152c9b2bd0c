package tiered

import (
	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/protograph"
	"repro/internal/provenance"
	"repro/internal/simulator"
)

// propertyOrigin matches the origin the SAT path attaches to the
// property assertion itself, so fast-path blame stays in the same
// vocabulary (and trivially-true verdicts blame exactly what SAT does).
var propertyOrigin = provenance.Origin{Kind: "property"}

// Decide attempts a definitive verdict for the goal. The decision rules,
// in order of cost:
//
//  1. Trivially-true properties (no loop candidates, no management
//     interfaces, no external peers) — sound for any failure budget.
//  2. May-graph verdicts: if the over-approximate forwarding graph says
//     src cannot reach the destination region (optionally avoiding the
//     waypoint), then no environment and no stable state can make it
//     reach — verifying isolation/waypoint/bounded-length vacuously and
//     falsifying reachability, for any failure budget.
//  3. The deterministic path: when the network's stable state is provably
//     unique and environment-independent (detPrecondition), simulate one
//     representative per forwarding-equivalence class and evaluate the
//     property concretely — both polarities under zero failures,
//     falsification only under a positive failure budget.
//
// Everything else is residue and falls through to SAT.
func (a *Analysis) Decide(goal Goal) Outcome {
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
		return a.detDecide(goal, scope(goal))
	case "blackholes", "multipath-consistency":
		return a.detDecide(goal, scope(goal))
	case "mgmt-reachability":
		mgmt := a.managementAddrs(scope(goal))
		if len(mgmt) == 0 {
			return verified("no-management-interfaces", []provenance.Origin{propertyOrigin})
		}
		return a.detMgmt(goal, mgmt)
	case "no-leak":
		if len(a.G.Topo.Externals) == 0 {
			return verified("no-external-peers", []provenance.Origin{propertyOrigin})
		}
		// Exports are functions of the symbolic announcements; the graph
		// abstraction has no sound bound for them.
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
		return a.detDecide(goal, goal.Subnet)
	}
	return residue("unsupported-check")
}

// scope is the destination region of a whole-network goal: its subnet
// when it has one — the restriction pipeline.Property's DstIn assumption
// puts on the SAT path — and the whole space otherwise.
func scope(goal Goal) network.Prefix {
	if goal.HasSubnet {
		return goal.Subnet
	}
	return wholeSpace
}

// mayDecide derives verdicts that need only the over-approximation.
func (a *Analysis) mayDecide(goal Goal) Outcome {
	srcs := goal.Sources()
	region := goal.Subnet
	reachable := a.mayReachable(region)
	reach := make([]bool, len(srcs))
	var blockers []provenance.Origin
	for i, src := range srcs {
		if n := a.G.Topo.Node(src); n != nil && reachable[n.Index] {
			reach[i] = true
			continue
		}
		// Cut off: the forward search from src names the ACLs that do it.
		_, b := a.mayReach(src, region, "")
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
		// Pairwise property: vacuous when at most one source can ever
		// reach.
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
		if ok, b := a.mayReach(goal.Src, region, goal.Via); !ok {
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

// mayFalsifyReach turns a may-unreachability proof into a falsification.
// Unreachability alone shows no stable state delivers src's traffic; a
// counterexample additionally needs some stable state to exist for a
// destination in the subnet, witnessed by the simulator's empty-
// environment fixpoint (the zero-failure environment is admissible under
// every failure budget).
func (a *Analysis) mayFalsifyReach(goal Goal, src string, blame []provenance.Origin) Outcome {
	pl, reason := a.plane(goal.Subnet.First())
	if pl == nil {
		return residue(reason)
	}
	return falsified("may-unreachable:"+src, blame, pl.pkt, pl.env)
}

// detDecide evaluates the goal concretely on the unique stable state,
// one representative destination per forwarding-equivalence class.
func (a *Analysis) detDecide(goal Goal, region network.Prefix) Outcome {
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
			return falsified("stable-state-violation", pl.blame(), pl.pkt, pl.env)
		}
		blame = append(blame, pl.blame()...)
	}
	if goal.MaxFailures > 0 {
		// The unique-stable-state argument only covers the zero-failure
		// environment; nothing was falsified there, but a failure could
		// still break the property.
		return residue("failure-budget")
	}
	provenance.SortOrigins(blame)
	return verified("stable-state", provenance.DedupeOrigins(blame))
}

// detMgmt evaluates management reachability: for every management
// address in scope, every other router must reach it. Each address is its
// own forwarding-equivalence class.
func (a *Analysis) detMgmt(goal Goal, mgmt []mgmtAddr) Outcome {
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
		reach := pl.reach(false, "")
		for _, n := range a.G.Topo.Nodes {
			if n.Name != m.Router && !reach[n.Name] {
				return falsified("mgmt-unreachable:"+n.Name, pl.blame(), pl.pkt, pl.env)
			}
		}
		blame = append(blame, pl.blame()...)
	}
	if goal.MaxFailures > 0 {
		return residue("failure-budget")
	}
	provenance.SortOrigins(blame)
	return verified("stable-state", provenance.DedupeOrigins(blame))
}

// plane is the concrete data plane for one representative destination:
// the simulator's stable state plus the ACL-filtered forwarding edges,
// mirroring the encoder's DataFwd relation.
type plane struct {
	a      *Analysis
	rep    network.IP
	pkt    config.Packet
	env    *simulator.Environment
	states map[string]*simulator.RouterState
	// edges[x] lists internal routers x data-forwards to (control hop
	// surviving both directional ACLs); extFwd[x] marks a surviving hop
	// to an external peer.
	edges  map[string][]string
	extFwd map[string]bool
}

// memoPlane is one entry of Analysis.planes: what plane returned for a
// representative.
type memoPlane struct {
	pl     *plane
	reason string
}

// plane returns the representative's data plane: the empty-environment
// stable state, simulated on the first call for rep and shared by every
// later one. A non-empty reason is residue for the deterministic path:
// "no-convergence" (the plane is nil) or "external-influence" (the plane
// is a real stable state, but an announcement could displace it).
func (a *Analysis) plane(rep network.IP) (*plane, string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if m, ok := a.planes[rep]; ok {
		return m.pl, m.reason
	}
	a.sims++
	pl, reason := a.simulate(rep)
	a.planes[rep] = memoPlane{pl, reason}
	return pl, reason
}

// simulate runs the simulator for the representative under the empty
// environment and checks the state is environment-independent.
func (a *Analysis) simulate(rep network.IP) (*plane, string) {
	env := simulator.NewEnvironment()
	res, err := a.sim.Run(rep, env)
	if err != nil {
		return nil, "no-convergence"
	}
	pl := &plane{
		a: a, rep: rep, pkt: config.Packet{DstIP: rep}, env: env,
		states: res.States, edges: map[string][]string{}, extFwd: map[string]bool{},
	}
	pl.buildEdges()
	// Environment independence: external announcements can inject BGP
	// records of at most the filtered prefix length; if every BGP
	// speaker's installed route is strictly longer, longest-prefix-match
	// selection keeps every forwarding decision identical under any
	// announcements (see DESIGN.md §14).
	bound := a.maxExtPlen(rep)
	if bound >= 0 {
		for _, n := range a.G.Topo.Nodes {
			if a.G.Configs[n.Name].BGP == nil {
				continue
			}
			st := res.States[n.Name]
			if !st.Best.Valid || st.Best.PrefixLen <= bound {
				return pl, "external-influence"
			}
		}
	}
	return pl, ""
}

// buildEdges applies the walk's ACL discipline to every control hop.
func (p *plane) buildEdges() {
	topo := p.a.G.Topo
	for _, n := range topo.Nodes {
		st := p.states[n.Name]
		if st == nil || !st.Best.Valid || st.DeliveredLocal || st.DroppedNull {
			continue
		}
		cfg := p.a.G.Configs[n.Name]
		for _, h := range st.Hops {
			if h.Ext != "" {
				if cfg.Permits(topo.ExternalIface(n, h.Ext), false, p.pkt) {
					p.extFwd[n.Name] = true
				}
				continue
			}
			link := topo.FindLink(n.Name, h.Node)
			var outIface, inIface string
			if link != nil {
				outIface = link.IfaceOf(topo.Node(n.Name))
				inIface = link.IfaceOf(topo.Node(h.Node))
			}
			if cfg.Permits(outIface, false, p.pkt) && p.a.G.Configs[h.Node].Permits(inIface, true, p.pkt) {
				p.edges[n.Name] = append(p.edges[n.Name], h.Node)
			}
		}
	}
}

func (p *plane) delivered(router string) bool {
	st := p.states[router]
	return st != nil && st.Best.Valid && st.DeliveredLocal
}

// reach mirrors the encoder's Reach relation: a router reaches the
// destination when it delivers locally, exits to an external peer
// (countExit only), or data-forwards to an internal router that reaches.
// A non-empty avoid mirrors ReachAvoiding: that router is removed from
// the graph first.
func (p *plane) reach(countExit bool, avoid string) map[string]bool {
	rev := map[string][]string{}
	for x, hs := range p.edges {
		if x == avoid {
			continue
		}
		for _, h := range hs {
			if h != avoid {
				rev[h] = append(rev[h], x)
			}
		}
	}
	out := map[string]bool{}
	var queue []string
	for _, n := range p.a.G.Topo.Nodes {
		if n.Name != avoid && (p.delivered(n.Name) || (countExit && p.extFwd[n.Name])) {
			out[n.Name] = true
			queue = append(queue, n.Name)
		}
	}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, x := range rev[at] {
			if !out[x] {
				out[x] = true
				queue = append(queue, x)
			}
		}
	}
	return out
}

// lens mirrors PathLengths: over live branches (data edges into reaching
// routers), a delivered router has length 0 and every other reaching
// router's length is one more than its longest live branch. A live cycle
// would make the SAT relation unbounded-by-construction; declare residue
// rather than reason about it.
func (p *plane) lens() (map[string]int, bool) {
	reach := p.reach(false, "")
	live := map[string][]string{}
	for x, hs := range p.edges {
		for _, h := range hs {
			if reach[h] {
				live[x] = append(live[x], h)
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	out := map[string]int{}
	ok := true
	var visit func(x string) int
	visit = func(x string) int {
		if color[x] == gray {
			ok = false
			return 0
		}
		if color[x] == black {
			return out[x]
		}
		color[x] = gray
		v := 0
		if p.delivered(x) {
			v = 0
		} else {
			for _, h := range live[x] {
				if l := visit(h) + 1; l > v {
					v = l
				}
				if !ok {
					break
				}
			}
		}
		color[x] = black
		out[x] = v
		return v
	}
	for x := range live {
		visit(x)
		if !ok {
			return nil, false
		}
	}
	return out, true
}

// evaluate checks the goal's property on this plane, mirroring the
// internal/properties formulas clause for clause. It returns
// (violated, residueReason).
func (p *plane) evaluate(goal Goal) (bool, string) {
	switch goal.Check {
	case "reachability", "reachability-all":
		reach := p.reach(false, "")
		for _, src := range goal.Sources() {
			if !reach[src] {
				return true, ""
			}
		}
		return false, ""
	case "isolation":
		return p.reach(false, "")[goal.Src], ""
	case "waypoint":
		return p.reach(false, goal.Via)[goal.Src], ""
	case "bounded-length", "bounded-length-all":
		reach := p.reach(false, "")
		lens, ok := p.lens()
		if !ok {
			return false, "live-cycle"
		}
		for _, src := range goal.Sources() {
			if reach[src] && lens[src] > goal.Hops {
				return true, ""
			}
		}
		return false, ""
	case "equal-lengths":
		reach := p.reach(false, "")
		lens, ok := p.lens()
		if !ok {
			return false, "live-cycle"
		}
		srcs := goal.Sources()
		for i := 0; i < len(srcs); i++ {
			for j := i + 1; j < len(srcs); j++ {
				if reach[srcs[i]] && reach[srcs[j]] && lens[srcs[i]] != lens[srcs[j]] {
					return true, ""
				}
			}
		}
		return false, ""
	case "blackholes":
		incoming := map[string]bool{}
		for _, hs := range p.edges {
			for _, h := range hs {
				incoming[h] = true
			}
		}
		for _, n := range p.a.G.Topo.Nodes {
			if !incoming[n.Name] {
				continue
			}
			st := p.states[n.Name]
			handled := len(p.edges[n.Name]) > 0 || p.extFwd[n.Name] ||
				(st != nil && st.Best.Valid && (st.DeliveredLocal || st.DroppedNull))
			if !handled {
				return true, ""
			}
		}
		return false, ""
	case "multipath-consistency":
		reach := p.reach(true, "")
		for _, n := range p.a.G.Topo.Nodes {
			if !reach[n.Name] {
				continue
			}
			st := p.states[n.Name]
			if st == nil || !st.Best.Valid || st.DeliveredLocal || st.DroppedNull {
				continue
			}
			cfg := p.a.G.Configs[n.Name]
			for _, h := range st.Hops {
				if h.Ext != "" {
					if !cfg.Permits(p.a.G.Topo.ExternalIface(n, h.Ext), false, p.pkt) {
						return true, ""
					}
					continue
				}
				if !containsStr(p.edges[n.Name], h.Node) || !reach[h.Node] {
					return true, ""
				}
			}
		}
		return false, ""
	case "loops":
		for _, r := range p.a.loopCandidates() {
			taint := map[string]bool{r: true}
			queue := []string{r}
			for len(queue) > 0 {
				at := queue[0]
				queue = queue[1:]
				for _, h := range p.edges[at] {
					if !taint[h] {
						taint[h] = true
						queue = append(queue, h)
					}
				}
			}
			for x := range taint {
				if x != r && containsStr(p.edges[x], r) {
					return true, ""
				}
			}
		}
		return false, ""
	}
	return false, "unsupported-check"
}

// blame names the routing decisions the plane's verdict rests on: each
// router's installed best route, in the provenance vocabulary the SAT
// path's counterexample blame uses.
func (p *plane) blame() []provenance.Origin {
	out := []provenance.Origin{propertyOrigin}
	for _, n := range p.a.G.Topo.Nodes {
		st := p.states[n.Name]
		if st == nil || !st.Best.Valid {
			continue
		}
		out = append(out, provenance.Origin{
			Router: n.Name, Proto: st.Best.Proto.String(), Kind: "selection", Name: st.Best.Origin,
		})
	}
	provenance.SortOrigins(out)
	return provenance.DedupeOrigins(out)
}

// maxExtPlen bounds the prefix length of any BGP record derived from an
// external announcement anywhere in the network, for destinations in
// rep's forwarding-equivalence class: the longest length surviving some
// external session's import filter (-1 when nothing survives). Internal
// propagation preserves the length (internal-session policy is
// prefix-list-only under detPrecondition) and aggregation only shortens
// it, so the per-import bound is global.
func (a *Analysis) maxExtPlen(rep network.IP) int {
	bound := -1
	for _, sess := range a.G.Sessions {
		if sess.Kind != protograph.EBGPExternal {
			continue
		}
		if b := extPlenBound(a.G.Configs[sess.A.Name], sess.NbrAtA.InMap, rep); b > bound {
			bound = b
		}
	}
	return bound
}

// extPlenBound is the conservative per-session bound: the longest
// announcement prefix length that may survive the inbound route map for
// this destination class.
func extPlenBound(cfg *config.Router, mapName string, rep network.IP) int {
	if mapName == "" {
		return 32
	}
	rm := cfg.RouteMaps[mapName]
	if rm == nil {
		return -1 // applyRouteMap invalidates everything on a missing map
	}
	bound := -1
	for plen := 32; plen >= 0; plen-- {
		if plenMaySurvive(cfg, rm, plen, rep) {
			bound = plen
			break
		}
	}
	return bound
}

// plenMaySurvive runs the route map's clause scan abstractly: the prefix
// -list component evaluates concretely under the hoisted semantics
// (destination plus record length), the community component of an
// announcement is unknown and treated as possibly-either. A clause that
// may match and permits lets the length survive; a deny that certainly
// matches stops it; a deny that only may match falls through.
func plenMaySurvive(cfg *config.Router, rm *config.RouteMap, plen int, rep network.IP) bool {
	for _, cl := range rm.Clauses {
		if cl.MatchPrefixList != "" {
			pl := cfg.PrefixLists[cl.MatchPrefixList]
			if pl == nil || !prefixListPermitsHoisted(pl, plen, rep) {
				continue // clause cannot match this length/destination
			}
		}
		certain := true
		if cl.MatchCommunity != "" {
			if cfg.CommunityLists[cl.MatchCommunity] == nil {
				continue // clauseMatches is false on a missing list
			}
			certain = false // depends on the announcement's communities
		}
		if cl.Action == config.Permit {
			return true
		}
		if certain {
			return false
		}
		// may-deny: the announcement might fall through to later clauses
	}
	return false // implicit deny
}

// prefixListPermitsHoisted mirrors the simulator's hoisted prefix-list
// evaluation: first-bits match on the destination, length bounds on the
// record.
func prefixListPermitsHoisted(pl *config.PrefixList, plen int, dstIP network.IP) bool {
	for _, e := range pl.Entries {
		if dstIP.Mask(e.Prefix.Len) != e.Prefix.Addr {
			continue
		}
		lo, hi := e.Prefix.Len, e.Prefix.Len
		if e.Ge != 0 {
			lo, hi = e.Ge, 32
		}
		if e.Le != 0 {
			hi = e.Le
			if e.Ge == 0 {
				lo = e.Prefix.Len
			}
		}
		if plen >= lo && plen <= hi {
			return e.Action == config.Permit
		}
	}
	return false
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
