package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/smt"
)

// FailureCount returns a bitvector counting failed links, for the §5
// fault-tolerance bound Σ failed ≤ k.
func (m *Model) FailureCount() *smt.Term {
	c := m.Ctx
	w := bitsFor(len(m.Failed) + 1)
	sum := c.BV(0, w)
	for _, id := range m.failedIDs() {
		sum = c.Add(sum, c.Ite(m.Failed[id], c.BV(1, w), c.BV(0, w)))
	}
	return sum
}

// AtMostFailures returns the constraint Σ failed ≤ k, used as a Check
// assumption for fault-tolerance properties.
func (m *Model) AtMostFailures(k int) *smt.Term {
	c := m.Ctx
	w := bitsFor(len(m.Failed) + 1)
	return c.Ule(m.FailureCount(), c.BV(uint64(k), w))
}

// NoFailures returns the constraint that every link is up.
func (m *Model) NoFailures() *smt.Term {
	c := m.Ctx
	out := c.True()
	for _, id := range m.failedIDs() {
		out = c.And(out, c.Not(m.Failed[id]))
	}
	return out
}

func (m *Model) failedIDs() []string {
	ids := make([]string, 0, len(m.Failed))
	for id := range m.Failed {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ReachAvoiding is Reach with one router's forwarding removed: reach_x is
// true iff the packet from x delivers without ever transiting `avoid`.
// Used by the waypointing property (§5).
func (m *Model) ReachAvoiding(sl *Slice, avoid string, countExit bool) map[string]*smt.Term {
	tag := fmt.Sprintf("avoid.%s.%v", avoid, countExit)
	return instrumentOnce(sl, tag, func() map[string]*smt.Term {
		return m.reachability(sl, tag, tag+"|dist", func(string) bool { return countExit }, avoid)
	})
}

// Tainted returns per-router booleans: true iff traffic entering the
// network at src can arrive at the router through the data plane. The
// encoding is well-founded (strictly increasing distance from the source),
// so cycles cannot fabricate taint.
func (m *Model) Tainted(sl *Slice, src string) map[string]*smt.Term {
	return instrumentOnce(sl, "taint."+src, func() map[string]*smt.Term {
		c := m.Ctx
		w := bitsFor(len(m.G.Topo.Nodes) + 2)
		taint := map[string]*smt.Term{}
		dist := map[string]*smt.Term{}
		tag := sl.Name + "|taint." + src + "|"
		for _, n := range m.G.Topo.Nodes {
			taint[n.Name] = c.BoolVar(tag + n.Name)
			dist[n.Name] = c.BVVar(tag+"dist|"+n.Name, w)
		}
		// Collect predecessors.
		preds := map[string][]string{}
		for _, x := range m.G.Topo.Nodes {
			for _, h := range sortedHops(sl.DataFwd[x.Name]) {
				if h.Node != "" {
					preds[h.Node] = append(preds[h.Node], x.Name)
				}
			}
		}
		for _, n := range m.G.Topo.Nodes {
			if n.Name == src {
				m.assert(taint[n.Name])
				continue
			}
			var alts []*smt.Term
			for _, p := range preds[n.Name] {
				edge := sl.DataFwd[p][Hop{Node: n.Name}]
				alts = append(alts, c.And(taint[p], edge, c.Ult(dist[p], dist[n.Name])))
				m.assert(c.Implies(c.And(taint[p], edge), taint[n.Name]))
			}
			m.assert(c.Implies(taint[n.Name], c.Or(alts...)))
		}
		return taint
	})
}

// PathLengths instruments a slice with the exact longest-forwarding-path
// length per router (§5, bounded/equal path length): delivered routers
// have length 0; a forwarding router's length is one more than the
// maximum over its live multipath branches. The returned width sizes
// constants for comparisons.
func (m *Model) PathLengths(sl *Slice) (map[string]*smt.Term, int) {
	w := bitsFor(len(m.G.Topo.Nodes) + 3)
	return instrumentOnce(sl, "plen", func() map[string]*smt.Term {
		c := m.Ctx
		nodes := m.G.Topo.Nodes
		cap64 := uint64(len(nodes) + 1)
		reach := m.Reach(sl, false)
		length := map[string]*smt.Term{}
		for _, n := range nodes {
			length[n.Name] = c.BVVar(sl.Name+"|plen|"+n.Name, w)
			m.assert(c.Ule(length[n.Name], c.BV(cap64, w)))
		}
		for _, n := range nodes {
			name := n.Name
			m.assert(c.Implies(sl.DeliveredLocal[name], c.Eq(length[name], c.BV(0, w))))
			var ubAlts []*smt.Term
			for _, h := range sortedHops(sl.DataFwd[name]) {
				if h.Ext != "" {
					continue
				}
				t := sl.DataFwd[name][h]
				live := c.And(t, reach[h.Node])
				succ := c.Add(length[h.Node], c.BV(1, w))
				// Lower bound: at least one more than every live branch.
				m.assert(c.Implies(c.And(reach[name], live), c.Uge(length[name], succ)))
				ubAlts = append(ubAlts, c.And(live, c.Ule(length[name], succ)))
			}
			// Upper bound: equal to some live branch plus one.
			cond := c.And(reach[name], c.Not(sl.DeliveredLocal[name]))
			m.assert(c.Implies(cond, c.Or(ubAlts...)))
		}
		return length
	}), w
}

// ChainProgress instruments a slice with service-chain taint (§5
// waypointing, general form): progress[x][j] is true iff some data-plane
// path from src to x matches exactly j elements of the chain, in order.
// The encoding is distance-ranked like Tainted, so cycles cannot fabricate
// progress.
func (m *Model) ChainProgress(sl *Slice, src string, chain []string) map[string][]*smt.Term {
	// The chain is part of the name: two chains from one source are two
	// instrumentations, with variables of their own.
	key := "chain." + src + "." + strings.Join(chain, ".")
	return instrumentOnce(sl, key, func() map[string][]*smt.Term {
		tag := sl.Name + "|" + key + "|"
		c := m.Ctx
		k := len(chain)
		w := bitsFor(len(m.G.Topo.Nodes)*(k+1) + 2)
		pos := map[string]int{}
		for j, name := range chain {
			pos[name] = j
		}
		// stepTo returns the progress index after arriving at router y with
		// progress j.
		stepTo := func(y string, j int) int {
			if next, ok := pos[y]; ok && next == j {
				return j + 1
			}
			return j
		}
		prog := map[string][]*smt.Term{}
		dist := map[string][]*smt.Term{}
		for _, n := range m.G.Topo.Nodes {
			prog[n.Name] = make([]*smt.Term, k+1)
			dist[n.Name] = make([]*smt.Term, k+1)
			for j := 0; j <= k; j++ {
				prog[n.Name][j] = c.BoolVar(fmt.Sprintf("%s%s.%d", tag, n.Name, j))
				dist[n.Name][j] = c.BVVar(fmt.Sprintf("%sdist|%s.%d", tag, n.Name, j), w)
			}
		}
		// Predecessor edges.
		preds := map[string][]string{}
		for _, x := range m.G.Topo.Nodes {
			for _, h := range sortedHops(sl.DataFwd[x.Name]) {
				if h.Node != "" {
					preds[h.Node] = append(preds[h.Node], x.Name)
				}
			}
		}
		srcStart := stepTo(src, 0)
		for _, n := range m.G.Topo.Nodes {
			for j := 0; j <= k; j++ {
				var alts []*smt.Term
				if n.Name == src && j == srcStart {
					alts = append(alts, c.True())
				}
				for _, p := range preds[n.Name] {
					edge := sl.DataFwd[p][Hop{Node: n.Name}]
					// Arriving at n with prior progress i yields j when
					// stepTo(n, i) == j.
					for i := 0; i <= k; i++ {
						if stepTo(n.Name, i) != j {
							continue
						}
						t := c.And(prog[p][i], edge, c.Ult(dist[p][i], dist[n.Name][j]))
						alts = append(alts, t)
						m.assert(c.Implies(c.And(prog[p][i], edge), prog[n.Name][j]))
					}
				}
				if n.Name == src && j == srcStart {
					m.assert(prog[n.Name][j])
				}
				m.assert(c.Implies(prog[n.Name][j], c.Or(alts...)))
			}
		}
		return prog
	})
}
