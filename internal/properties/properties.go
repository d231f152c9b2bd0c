// Package properties encodes the verification properties of §5 of the
// paper as SMT constraints over a core.Model: reachability, isolation,
// waypointing, bounded and equal path length, disjoint paths, forwarding
// loops, black holes, multipath consistency, neighbor preferences, load
// balancing, aggregation/leaking, and the equivalence and fault properties.
//
// Each builder returns a property term P; core.Model.Check(P) then decides
// N ∧ ¬P. Builders may instrument the model with definitional constraints
// (reachability ranks, path lengths, taint); instrumentation is
// value-preserving and may be shared across properties.
package properties

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/smt"
)

// inSubnet constrains the symbolic destination to the prefix.
func inSubnet(m *core.Model, p network.Prefix) *smt.Term {
	return m.Ctx.InRange(m.DstIP, uint64(p.First()), uint64(p.Last()))
}

// DstIn restricts queries to destinations within the prefix; use it as a
// Check assumption or property guard.
func DstIn(m *core.Model, p network.Prefix) *smt.Term { return inSubnet(m, p) }

// Reachable asserts that packets for the subnet sourced at src are
// delivered (for any environment and any packet in the subnet).
func Reachable(m *core.Model, src string, subnet network.Prefix) *smt.Term {
	reach := m.Reach(m.Main, false)
	return m.Ctx.Implies(inSubnet(m, subnet), reach[src])
}

// ReachableAll is the many-sources single-query form the paper highlights:
// every listed router can reach the subnet.
func ReachableAll(m *core.Model, srcs []string, subnet network.Prefix) *smt.Term {
	c := m.Ctx
	reach := m.Reach(m.Main, false)
	var all []*smt.Term
	for _, s := range srcs {
		all = append(all, reach[s])
	}
	return c.Implies(inSubnet(m, subnet), c.And(all...))
}

// ReachesExternally asserts packets from src for the subnet are delivered
// or leave toward an external peer.
func ReachesExternally(m *core.Model, src string, subnet network.Prefix) *smt.Term {
	reach := m.Reach(m.Main, true)
	return m.Ctx.Implies(inSubnet(m, subnet), reach[src])
}

// Isolated asserts src can never deliver packets to the subnet, under any
// environment.
func Isolated(m *core.Model, src string, subnet network.Prefix) *smt.Term {
	reach := m.Reach(m.Main, false)
	return m.Ctx.Implies(inSubnet(m, subnet), m.Ctx.Not(reach[src]))
}

// ManagementReachable is the §8.1 property: every router can reach every
// management interface, irrespective of the environment.
func ManagementReachable(m *core.Model) *smt.Term {
	c := m.Ctx
	reach := m.Reach(m.Main, false)
	out := c.True()
	for _, n := range m.G.Topo.Nodes {
		cfg := m.G.Configs[n.Name]
		for _, mi := range cfg.ManagementInterfaces() {
			dstIs := c.Eq(m.DstIP, c.BV(uint64(mi.Addr), core.WidthIP))
			for _, other := range m.G.Topo.Nodes {
				if other == n {
					continue
				}
				out = c.And(out, c.Implies(dstIs, reach[other.Name]))
			}
		}
	}
	return out
}

// Waypointed asserts that all delivered traffic from src to the subnet
// traverses the waypoint router (§5, service chaining with k=1).
func Waypointed(m *core.Model, src, waypoint string, subnet network.Prefix) *smt.Term {
	avoiding := m.ReachAvoiding(m.Main, waypoint, false)
	return m.Ctx.Implies(inSubnet(m, subnet), m.Ctx.Not(avoiding[src]))
}

// BoundedLength asserts every forwarding path from src to the subnet has
// at most k hops.
func BoundedLength(m *core.Model, src string, subnet network.Prefix, k int) *smt.Term {
	c := m.Ctx
	lens, w := m.PathLengths(m.Main)
	reach := m.Reach(m.Main, false)
	return c.Implies(c.And(inSubnet(m, subnet), reach[src]),
		atMostHops(c, lens[src], k, w))
}

// BoundedLengthAll bounds every source at once (the paper's all-ToR form).
func BoundedLengthAll(m *core.Model, srcs []string, subnet network.Prefix, k int) *smt.Term {
	c := m.Ctx
	lens, w := m.PathLengths(m.Main)
	reach := m.Reach(m.Main, false)
	out := c.True()
	for _, s := range srcs {
		out = c.And(out, c.Implies(c.And(inSubnet(m, subnet), reach[s]),
			atMostHops(c, lens[s], k, w)))
	}
	return out
}

// atMostHops is "length ≤ k" for a path-length counter w bits wide. The
// counter is sized for the network, not for the bound, so a k it cannot
// hold must not be cut to w bits (8 hops on three routers would read as
// 0): it saturates to all ones, which no length reaches, leaving plain
// reachability. No length is below zero.
func atMostHops(c *smt.Context, length *smt.Term, k, w int) *smt.Term {
	if k < 0 {
		return c.False()
	}
	bound, most := uint64(k), ^uint64(0)>>(64-uint(w))
	if bound > most {
		bound = most
	}
	return c.Ule(length, c.BV(bound, w))
}

// EqualLengths asserts all listed sources that reach the subnet use paths
// of identical length (§8.2, equal-length pod).
func EqualLengths(m *core.Model, srcs []string, subnet network.Prefix) *smt.Term {
	c := m.Ctx
	lens, _ := m.PathLengths(m.Main)
	reach := m.Reach(m.Main, false)
	out := c.True()
	for i := 0; i < len(srcs); i++ {
		for j := i + 1; j < len(srcs); j++ {
			both := c.And(inSubnet(m, subnet), reach[srcs[i]], reach[srcs[j]])
			out = c.And(out, c.Implies(both, c.Eq(lens[srcs[i]], lens[srcs[j]])))
		}
	}
	return out
}

// DisjointPaths asserts traffic from the two sources to the subnet never
// shares a directed link (§5).
func DisjointPaths(m *core.Model, s1, s2 string, subnet network.Prefix) *smt.Term {
	c := m.Ctx
	t1 := m.Tainted(m.Main, s1)
	t2 := m.Tainted(m.Main, s2)
	out := c.True()
	for _, x := range m.G.Topo.Nodes {
		for _, h := range hopsOf(m, x.Name) {
			if h.Node == "" {
				continue
			}
			edge := m.Main.DataFwd[x.Name][h]
			used1 := c.And(t1[x.Name], edge)
			used2 := c.And(t2[x.Name], edge)
			out = c.And(out, c.Not(c.And(used1, used2)))
		}
	}
	return c.Implies(inSubnet(m, subnet), out)
}

func hopsOf(m *core.Model, router string) []core.Hop {
	fwd := m.Main.DataFwd[router]
	hops := make([]core.Hop, 0, len(fwd))
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

// LoopCandidates returns the routers where forwarding loops are possible
// — those with static routes or redistribution (config.Router.MayLoop) —
// mirroring the paper's optimization of instrumenting only such routers.
func LoopCandidates(m *core.Model) []string {
	var out []string
	for _, n := range m.G.Topo.Nodes {
		if m.G.Configs[n.Name].MayLoop() {
			out = append(out, n.Name)
		}
	}
	return out
}

// NoForwardingLoops asserts no data-plane cycle passes through any of the
// given routers (nil = the LoopCandidates optimization set).
func NoForwardingLoops(m *core.Model, routers []string) *smt.Term {
	c := m.Ctx
	if routers == nil {
		routers = LoopCandidates(m)
	}
	out := c.True()
	for _, r := range routers {
		taint := m.Tainted(m.Main, r)
		loop := c.False()
		for _, x := range m.G.Topo.Nodes {
			if x.Name == r {
				continue
			}
			if edge, ok := m.Main.DataFwd[x.Name][core.Hop{Node: r}]; ok {
				loop = c.Or(loop, c.And(taint[x.Name], edge))
			}
		}
		out = c.And(out, c.Not(loop))
	}
	return out
}

// NoBlackholes asserts no router silently discards traffic some neighbor
// data-forwards to it: arriving traffic is delivered, forwarded onward, or
// intentionally dropped by a null route (§5).
func NoBlackholes(m *core.Model) *smt.Term {
	c := m.Ctx
	out := c.True()
	for _, x := range m.G.Topo.Nodes {
		incoming := c.False()
		for _, y := range m.G.Topo.Nodes {
			if edge, ok := m.Main.DataFwd[y.Name][core.Hop{Node: x.Name}]; ok {
				incoming = c.Or(incoming, edge)
			}
		}
		onward := c.False()
		for _, h := range hopsOf(m, x.Name) {
			onward = c.Or(onward, m.Main.DataFwd[x.Name][h])
		}
		handled := c.Or(onward, m.Main.DeliveredLocal[x.Name], m.Main.DroppedNull[x.Name])
		out = c.And(out, c.Implies(incoming, handled))
	}
	return out
}

// DropsAtEdgeOnly asserts ACL drops happen only at edge routers: at any
// interior router the control- and data-plane decisions agree (the §8.1
// blackhole check that flagged "traffic dropped deep in the network").
func DropsAtEdgeOnly(m *core.Model, isEdge func(router string) bool) *smt.Term {
	c := m.Ctx
	out := c.True()
	for _, x := range m.G.Topo.Nodes {
		if isEdge(x.Name) {
			continue
		}
		for _, h := range hopsOf(m, x.Name) {
			ctrl := m.Main.CtrlFwd[x.Name][h]
			data := m.Main.DataFwd[x.Name][h]
			out = c.And(out, c.Implies(ctrl, data))
		}
	}
	return out
}

// MultipathConsistent encodes the Batfish multipath-consistency property
// exactly as in §5: wherever a router can reach the destination, each of
// its control-plane branches must also pass the data plane and lead to a
// neighbor that can reach it.
func MultipathConsistent(m *core.Model) *smt.Term {
	c := m.Ctx
	reach := m.Reach(m.Main, true)
	out := c.True()
	for _, x := range m.G.Topo.Nodes {
		branchOK := c.True()
		for _, h := range hopsOf(m, x.Name) {
			ctrl := m.Main.CtrlFwd[x.Name][h]
			data := m.Main.DataFwd[x.Name][h]
			tail := c.True()
			if h.Node != "" {
				tail = reach[h.Node]
			}
			branchOK = c.And(branchOK, c.Implies(ctrl, c.And(data, tail)))
		}
		out = c.And(out, c.Implies(reach[x.Name], branchOK))
	}
	return out
}

// PrefersNeighbors asserts the router honors the given external-neighbor
// preference order (§5): if the i-th neighbor's advertisement survives the
// import filter and all more-preferred ones do not, traffic exits via the
// i-th neighbor.
func PrefersNeighbors(m *core.Model, router string, prefs []string) *smt.Term {
	c := m.Ctx
	out := c.True()
	for i, nbr := range prefs {
		imp := m.Main.ExtImports[nbr]
		if imp == nil {
			continue
		}
		cond := imp.Valid
		for _, higher := range prefs[:i] {
			if h := m.Main.ExtImports[higher]; h != nil {
				cond = c.And(cond, c.Not(h.Valid))
			}
		}
		fwd := m.Main.CtrlFwd[router][core.Hop{Ext: nbr}]
		if fwd == nil {
			fwd = c.False()
		}
		out = c.And(out, c.Implies(cond, fwd))
	}
	return out
}

// NoLeak asserts nothing more specific than maxLen is ever exported to the
// listed external peers (nil = all): the §5 aggregation property.
func NoLeak(m *core.Model, peers []string, maxLen int) *smt.Term {
	c := m.Ctx
	if peers == nil {
		for name := range m.Main.ExtExports {
			peers = append(peers, name)
		}
		sort.Strings(peers)
	}
	out := c.True()
	for _, p := range peers {
		rec := m.Main.ExtExports[p]
		if rec == nil {
			continue
		}
		out = c.And(out, c.Implies(rec.Valid,
			c.Ule(rec.PrefixLen, c.BV(uint64(maxLen), core.WidthPrefixLen))))
	}
	return out
}

// AlwaysExportsCommunity asserts every advertisement to the external peers
// carries the community (§5's local-equivalence motivation). The model
// must be encoded with Options.KeepAllCommunities: the slicing analysis
// otherwise removes community bits that no filter matches on, and a
// missing bit reads as "never attached".
func AlwaysExportsCommunity(m *core.Model, peers []string, comm string) *smt.Term {
	c := m.Ctx
	out := c.True()
	for _, p := range peers {
		rec := m.Main.ExtExports[p]
		if rec == nil {
			continue
		}
		bit, ok := rec.Comms[comm]
		if !ok {
			bit = c.False()
		}
		out = c.And(out, c.Implies(rec.Valid, bit))
	}
	return out
}

// LoadBalanced instruments the §5 load-balancing model: each source
// injects `scale` units of traffic, every forwarding router splits its
// load equally over its active branches (the paper's shared-variable
// trick), and the property bounds |total(a) − total(b)| ≤ tol.
func LoadBalanced(m *core.Model, sources []string, a, b string, scale, tol uint64) *smt.Term {
	c := m.Ctx
	const w = 32
	reach := m.Reach(m.Main, false)
	total := map[string]*smt.Term{}
	for _, n := range m.G.Topo.Nodes {
		total[n.Name] = c.BVVar("load|total|"+n.Name, w)
	}
	srcSet := map[string]bool{}
	for _, s := range sources {
		srcSet[s] = true
	}
	// Per-edge load contributions.
	outFlow := map[string]map[core.Hop]*smt.Term{}
	for _, n := range m.G.Topo.Nodes {
		share := c.BVVar("load|share|"+n.Name, w)
		outFlow[n.Name] = map[core.Hop]*smt.Term{}
		sum := c.BV(0, w)
		for _, h := range hopsOf(m, n.Name) {
			live := m.Main.DataFwd[n.Name][h]
			if h.Node != "" {
				live = c.And(live, reach[h.Node])
			}
			f := c.Ite(live, share, c.BV(0, w))
			outFlow[n.Name][h] = f
			sum = c.Add(sum, f)
		}
		// Conservation: a reaching, non-delivering router forwards its
		// whole load; a delivering router absorbs it.
		m.AssertExtra(c.Implies(c.And(reach[n.Name], c.Not(m.Main.DeliveredLocal[n.Name])),
			c.Eq(sum, total[n.Name])))
	}
	// Totals: seed plus incoming flow.
	for _, n := range m.G.Topo.Nodes {
		seed := c.BV(0, w)
		if srcSet[n.Name] {
			seed = c.BV(scale, w)
		}
		sum := seed
		for _, y := range m.G.Topo.Nodes {
			if f, ok := outFlow[y.Name][core.Hop{Node: n.Name}]; ok {
				sum = c.Add(sum, f)
			}
		}
		m.AssertExtra(c.Eq(total[n.Name], sum))
	}
	diffAB := c.Sub(total[a], total[b])
	diffBA := c.Sub(total[b], total[a])
	bound := c.BV(tol, w)
	return c.Or(
		c.And(c.Ule(total[b], total[a]), c.Ule(diffAB, bound)),
		c.And(c.Ule(total[a], total[b]), c.Ule(diffBA, bound)),
	)
}

// Describe renders a property-check outcome for CLI output. A result
// that kept no solver counts (the graph tier, the equivalence sweep)
// prints none, and a falsified verdict without a counterexample
// (equivalence) prints as a bare VIOLATED line.
func Describe(name string, res *core.Result) string {
	ms := float64(res.Elapsed.Microseconds()) / 1000
	switch {
	case res.Verified && res.SATVars == 0:
		return fmt.Sprintf("%s: verified (%.1fms)", name, ms)
	case res.Verified:
		return fmt.Sprintf("%s: verified (%.1fms, %d vars, %d clauses)", name, ms, res.SATVars, res.SATClauses)
	case res.Counterexample == nil:
		return fmt.Sprintf("%s: VIOLATED (%.1fms)", name, ms)
	}
	return fmt.Sprintf("%s: VIOLATED (%.1fms)\n%s", name, ms, res.Counterexample)
}

// WaypointedChain asserts all delivered traffic from src to the subnet
// traverses the waypoints in order (§5 service chaining, general form): a
// violation is a delivery whose chain progress is below k.
func WaypointedChain(m *core.Model, src string, chain []string, subnet network.Prefix) *smt.Term {
	c := m.Ctx
	k := len(chain)
	prog := m.ChainProgress(m.Main, src, chain)
	out := c.True()
	for _, n := range m.G.Topo.Nodes {
		for j := 0; j < k; j++ {
			bad := c.And(m.Main.DeliveredLocal[n.Name], prog[n.Name][j])
			out = c.And(out, c.Not(bad))
		}
	}
	return c.Implies(inSubnet(m, subnet), out)
}
