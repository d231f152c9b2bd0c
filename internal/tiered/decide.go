package tiered

import (
	"slices"

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
//  4. Simulated falsification: when rule 3 hands a goal down only because
//     the network is outside its fragment, evaluate the property on the
//     stable states of a fixed menu of concrete environments (falsify);
//     any violation is a counterexample. This rule never verifies.
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
// one representative destination per forwarding-equivalence class, and
// hands residue outside the fragment to the simulated-falsification rule.
func (a *Analysis) detDecide(goal Goal, region network.Prefix) Outcome {
	out := a.detEvaluate(goal, region)
	if !a.outsideFragment(out) {
		return out
	}
	reps, ok := a.reps(region)
	if !ok {
		return out
	}
	return a.falsify(out, reps, func(pl *plane, _ int) (bool, string) { return pl.evaluate(goal) })
}

// detEvaluate is rule 3 for the data-plane checks.
func (a *Analysis) detEvaluate(goal Goal, region network.Prefix) Outcome {
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
		blame = append(blame, pl.origins...)
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
// own forwarding-equivalence class, and the representative of the
// simulated-falsification rule.
func (a *Analysis) detMgmt(goal Goal, mgmt []mgmtAddr) Outcome {
	out := a.detMgmtEvaluate(goal, mgmt)
	if !a.outsideFragment(out) {
		return out
	}
	reps := make([]network.IP, len(mgmt))
	for i, m := range mgmt {
		reps[i] = m.Addr
	}
	return a.falsify(out, reps, func(pl *plane, i int) (bool, string) {
		return pl.unreached(mgmt[i].Router) != "", ""
	})
}

// detMgmtEvaluate is rule 3 for management reachability.
func (a *Analysis) detMgmtEvaluate(goal Goal, mgmt []mgmtAddr) Outcome {
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
			return falsified("mgmt-unreachable:"+r, pl.blame(), pl.pkt, pl.env)
		}
		blame = append(blame, pl.origins...)
	}
	if goal.MaxFailures > 0 {
		return residue("failure-budget")
	}
	provenance.SortOrigins(blame)
	return verified("stable-state", provenance.DedupeOrigins(blame))
}

// unreached is the first router, in Node.Index order, other than owner
// that does not reach the plane's destination, or "".
func (p *plane) unreached(owner string) string {
	reach := p.reach(false, -1)
	for i, n := range p.a.G.Topo.Nodes {
		if n.Name != owner && !reach[i] {
			return n.Name
		}
	}
	return ""
}

// plane is the concrete data plane for one representative destination
// under one concrete environment: the simulator's stable state plus the
// ACL-filtered forwarding edges, mirroring the encoder's DataFwd
// relation. Routers are numbered by Node.Index throughout.
type plane struct {
	a      *Analysis
	rep    network.IP
	pkt    config.Packet
	env    *simulator.Environment
	states []*simulator.RouterState
	// Router x's control hops are hopTo[hopOff[x]:hopOff[x+1]], in Hops
	// order: the internal router each leads to (-1 for an external peer)
	// and, in hopPass, whether the hop survives both directional ACLs.
	hopOff  []int
	hopTo   []int
	hopPass []bool
	// edges[off[x]:off[x+1]] lists the internal routers x data-forwards
	// to (surviving internal hops), rev[revOff[y]:revOff[y+1]] the
	// routers that data-forward to y; extFwd[x] marks a surviving hop to
	// an external peer.
	off, edges  []int
	revOff, rev []int
	extFwd      []bool
	// origins is blame's answer, built once the plane is known to be
	// environment-independent.
	origins []provenance.Origin
}

// memoPlane is one entry of Analysis.planes: what plane returned for a
// representative.
type memoPlane struct {
	pl     *plane
	reason string
}

// planeKey names a memoised plane: a representative destination and a
// menu environment — silent (peer < 0), or the external peer at that
// position of Topo.Externals announcing the representative's /32.
type planeKey struct {
	rep  network.IP
	peer int
}

// plane returns the representative's data plane: the empty-environment
// stable state, simulated on the first call for rep and shared by every
// later one. A non-empty reason is residue for the deterministic path:
// "no-convergence" (the plane is nil) or "external-influence" (the plane
// is a real stable state, but an announcement could displace it).
func (a *Analysis) plane(rep network.IP) (*plane, string) {
	return a.planeUnder(planeKey{rep, -1})
}

// planeUnder is plane for any menu environment, memoised the same way.
func (a *Analysis) planeUnder(k planeKey) (*plane, string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if m, ok := a.planes[k]; ok {
		return m.pl, m.reason
	}
	a.sims++
	pl, reason := a.simulate(k)
	a.planes[k] = memoPlane{pl, reason}
	return pl, reason
}

// simulate runs the simulator for the representative under the key's
// environment. For the empty environment it also checks the state is
// environment-independent; an announcing peer's plane is one concrete
// environment's, with nothing to bound.
func (a *Analysis) simulate(k planeKey) (*plane, string) {
	rep, env := k.rep, simulator.NewEnvironment()
	if k.peer >= 0 {
		env.Announce(a.G.Topo.Externals[k.peer].Name, simulator.Announcement{Prefix: network.Prefix{Addr: rep, Len: 32}})
	}
	res, err := a.sim.Run(rep, env)
	if err != nil {
		return nil, "no-convergence"
	}
	nodes := a.G.Topo.Nodes
	pl := &plane{a: a, rep: rep, pkt: config.Packet{DstIP: rep}, env: env, states: make([]*simulator.RouterState, len(nodes))}
	for i, n := range nodes {
		pl.states[i] = res.States[n.Name]
	}
	pl.buildEdges()
	if k.peer >= 0 {
		return pl, ""
	}
	// Environment independence (DESIGN.md §14): an external announcement
	// injects records of at most maxExtPlen's prefix length, and every
	// router it can reach (exposed) prefers a strictly longer installed
	// route, so longest-prefix-match selection keeps every forwarding
	// decision under any announcements. The slices of the multihop iBGP
	// peering addresses decide session liveness and recursive next hops,
	// and are held to the same bound for their own addresses.
	if a.displaceable(rep, func(i int) *simulator.RouterState { return pl.states[i] }) {
		return pl, "external-influence"
	}
	for _, addr := range a.peerAddrs {
		slice := a.sim.AddrSlice(addr)
		if slice == nil || a.displaceable(addr, func(i int) *simulator.RouterState { return slice.States[nodes[i].Name] }) {
			return pl, "external-influence"
		}
	}
	pl.origins = pl.selections()
	return pl, ""
}

// buildEdges applies the walk's ACL discipline to every control hop. Only
// a router with an interface ACL can drop a packet, so a hop between two
// routers without one needs no link or filter lookup.
func (p *plane) buildEdges() {
	a, topo := p.a, p.a.G.Topo
	n := len(p.states)
	p.hopOff = make([]int, n+1)
	p.off = make([]int, n+1)
	p.extFwd = make([]bool, n)
	for x, st := range p.states {
		p.hopOff[x] = len(p.hopTo)
		p.off[x] = len(p.edges)
		if st == nil || !st.Best.Valid || st.DeliveredLocal || st.DroppedNull {
			continue
		}
		from := topo.Nodes[x]
		for _, h := range st.Hops {
			if h.Ext != "" {
				pass := !a.filtered[x] || a.cfgs[x].Permits(topo.ExternalIface(from, h.Ext), false, p.pkt)
				p.hopTo, p.hopPass = append(p.hopTo, -1), append(p.hopPass, pass)
				p.extFwd[x] = p.extFwd[x] || pass
				continue
			}
			to := topo.Node(h.Node)
			pass := true
			if a.filtered[x] || a.filtered[to.Index] {
				var outIface, inIface string
				if link := firstLink(topo, from, to); link != nil {
					outIface, inIface = link.IfaceOf(from), link.IfaceOf(to)
				}
				pass = a.cfgs[x].Permits(outIface, false, p.pkt) && a.cfgs[to.Index].Permits(inIface, true, p.pkt)
			}
			p.hopTo, p.hopPass = append(p.hopTo, to.Index), append(p.hopPass, pass)
			if pass {
				p.edges = append(p.edges, to.Index)
			}
		}
	}
	p.hopOff[n], p.off[n] = len(p.hopTo), len(p.edges)
	// The reverse adjacency, by counting.
	p.revOff = make([]int, n+1)
	for _, y := range p.edges {
		p.revOff[y+1]++
	}
	for y := 0; y < n; y++ {
		p.revOff[y+1] += p.revOff[y]
	}
	p.rev = make([]int, len(p.edges))
	fill := append([]int(nil), p.revOff[:n]...)
	for x := 0; x < n; x++ {
		for _, y := range p.out(x) {
			p.rev[fill[y]] = x
			fill[y]++
		}
	}
}

// out is the routers x data-forwards to.
func (p *plane) out(x int) []int { return p.edges[p.off[x]:p.off[x+1]] }

func (p *plane) delivered(x int) bool {
	st := p.states[x]
	return st != nil && st.Best.Valid && st.DeliveredLocal
}

// reach mirrors the encoder's Reach relation: a router reaches the
// destination when it delivers locally, exits to an external peer
// (countExit only), or data-forwards to an internal router that reaches.
// avoid >= 0 mirrors ReachAvoiding: that router is removed from the graph
// first.
func (p *plane) reach(countExit bool, avoid int) []bool {
	out := make([]bool, len(p.states))
	var queue []int
	for x := range p.states {
		if x != avoid && (p.delivered(x) || (countExit && p.extFwd[x])) {
			out[x] = true
			queue = append(queue, x)
		}
	}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, x := range p.rev[p.revOff[at]:p.revOff[at+1]] {
			if x != avoid && !out[x] {
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
func (p *plane) lens(reach []bool) ([]int, bool) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	n := len(p.states)
	color := make([]uint8, n)
	out := make([]int, n)
	ok := true
	var visit func(x int) int
	visit = func(x int) int {
		if color[x] == gray {
			ok = false
			return 0
		}
		if color[x] == black {
			return out[x]
		}
		color[x] = gray
		v := 0
		if !p.delivered(x) {
			for _, h := range p.out(x) {
				if !reach[h] {
					continue
				}
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
	for x := 0; x < n; x++ {
		if color[x] == white && p.live(x, reach) {
			visit(x)
			if !ok {
				return nil, false
			}
		}
	}
	return out, true
}

// live reports whether x has a data edge into a reaching router.
func (p *plane) live(x int, reach []bool) bool {
	for _, h := range p.out(x) {
		if reach[h] {
			return true
		}
	}
	return false
}

// indexOf numbers the goal's routers; "" (no waypoint) is -1. Decide
// has already turned unknown routers into residue.
func (p *plane) indexOf(router string) int {
	if n := p.a.G.Topo.Node(router); n != nil {
		return n.Index
	}
	return -1
}

// evaluate checks the goal's property on this plane, mirroring the
// internal/properties formulas clause for clause. It returns
// (violated, residueReason).
func (p *plane) evaluate(goal Goal) (bool, string) {
	switch goal.Check {
	case "reachability", "reachability-all":
		reach := p.reach(false, -1)
		for _, src := range goal.Sources() {
			if !reach[p.indexOf(src)] {
				return true, ""
			}
		}
		return false, ""
	case "isolation":
		return p.reach(false, -1)[p.indexOf(goal.Src)], ""
	case "waypoint":
		return p.reach(false, p.indexOf(goal.Via))[p.indexOf(goal.Src)], ""
	case "bounded-length", "bounded-length-all":
		reach := p.reach(false, -1)
		lens, ok := p.lens(reach)
		if !ok {
			return false, "live-cycle"
		}
		for _, src := range goal.Sources() {
			if x := p.indexOf(src); reach[x] && lens[x] > goal.Hops {
				return true, ""
			}
		}
		return false, ""
	case "equal-lengths":
		reach := p.reach(false, -1)
		lens, ok := p.lens(reach)
		if !ok {
			return false, "live-cycle"
		}
		srcs := goal.Sources()
		xs := make([]int, len(srcs))
		for i, src := range srcs {
			xs[i] = p.indexOf(src)
		}
		for i := 0; i < len(xs); i++ {
			for j := i + 1; j < len(xs); j++ {
				if reach[xs[i]] && reach[xs[j]] && lens[xs[i]] != lens[xs[j]] {
					return true, ""
				}
			}
		}
		return false, ""
	case "blackholes":
		incoming := make([]bool, len(p.states))
		for _, h := range p.edges {
			incoming[h] = true
		}
		for x, st := range p.states {
			if !incoming[x] {
				continue
			}
			handled := len(p.out(x)) > 0 || p.extFwd[x] ||
				(st != nil && st.Best.Valid && (st.DeliveredLocal || st.DroppedNull))
			if !handled {
				return true, ""
			}
		}
		return false, ""
	case "multipath-consistency":
		reach := p.reach(true, -1)
		for x := range p.states {
			if !reach[x] {
				continue
			}
			// Every control hop must survive its ACLs and, if internal,
			// lead to a reaching router.
			for k := p.hopOff[x]; k < p.hopOff[x+1]; k++ {
				if to := p.hopTo[k]; !p.hopPass[k] || (to >= 0 && !reach[to]) {
					return true, ""
				}
			}
		}
		return false, ""
	case "loops":
		taint := make([]bool, len(p.states))
		var queue []int
		for _, r := range p.a.loopCandidates() {
			clear(taint)
			taint[r] = true
			queue = append(queue[:0], r)
			for len(queue) > 0 {
				at := queue[0]
				queue = queue[1:]
				for _, h := range p.out(at) {
					if !taint[h] {
						taint[h] = true
						queue = append(queue, h)
					}
				}
			}
			for x, t := range taint {
				if t && x != r && slices.Contains(p.out(x), r) {
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
// path's counterexample blame uses. The slice is the caller's.
func (p *plane) blame() []provenance.Origin {
	return append([]provenance.Origin(nil), p.origins...)
}

// selections computes blame's answer.
func (p *plane) selections() []provenance.Origin {
	out := []provenance.Origin{propertyOrigin}
	for x, n := range p.a.G.Topo.Nodes {
		st := p.states[x]
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

// displaceable reports whether an external announcement could displace
// the installed route of some exposed router for destinations in rep's
// forwarding-equivalence class: the router has no route, or one no longer
// than maxExtPlen(rep). state reads a router's stable state by
// Node.Index.
func (a *Analysis) displaceable(rep network.IP, state func(i int) *simulator.RouterState) bool {
	bound := a.maxExtPlen(rep)
	if bound < 0 {
		return false
	}
	for i, exposed := range a.exposed {
		if !exposed {
			continue
		}
		if st := state(i); st == nil || !st.Best.Valid || st.Best.PrefixLen <= bound {
			return true
		}
	}
	return false
}

// maxExtPlen bounds the prefix length of any record derived from an
// external announcement anywhere in the network, for destinations in
// rep's forwarding-equivalence class: the longest length surviving some
// external session's import filter (-1 when nothing survives). Internal
// propagation preserves the length (internal-session policy is
// prefix-list-only under detPrecondition), so does redistribution (no
// route map on dynamic redistribution), and aggregation only shortens
// it, so the per-import bound is global.
func (a *Analysis) maxExtPlen(rep network.IP) int {
	bound := -1
	for _, sess := range a.G.Sessions {
		if sess.Kind != protograph.EBGPExternal {
			continue
		}
		if b := extPlenBound(a.cfgs[sess.A.Index], sess.NbrAtA.InMap, rep); b > bound {
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
			if pl == nil || !pl.Permits(network.Prefix{Addr: rep, Len: plen}) {
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
