package tiered_test

import (
	"context"
	"flag"
	"fmt"
	"sync"
	"testing"

	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/tiered"
)

// auditSample is how many deterministic-path verdicts per audit network
// TestAuditTierParity holds to the solver: every one on a network with at
// most that many, an evenly spaced sample otherwise, and every one on all
// networks at 0. The default takes about 12 s on two cores (about 2
// minutes under -race), 192 (CI's tiered-parity job) about 2.5 minutes,
// and 0 about 23 minutes:
// go test ./internal/tiered -run TestAuditTierParity -v -audit.sample 0
var auditSample = flag.Int("audit.sample", 6, "TestAuditTierParity: deterministic verdicts per audit network held to the solver (0: all)")

// auditGoals are the goals TestAuditTierParity asks of one audit network:
// reachability, isolation, waypoint (through the first core, or the first
// border without cores) and bounded-length at 2 and 4 hops, from every
// router to every access subnet, to the last router's management /32 and
// to an external /24; and the four whole-network checks, unscoped and
// scoped to each of those destinations.
func auditGoals(n *netgen.Network) []tiered.Goal {
	var dsts []network.Prefix
	for i := range n.Access {
		dsts = append(dsts, network.MustParsePrefix(fmt.Sprintf("10.%d.0.0/24", 10+i)))
	}
	last := n.Routers[len(n.Routers)-1]
	for _, ifc := range last.ManagementInterfaces() {
		dsts = append(dsts, network.Prefix{Addr: ifc.Addr, Len: 32})
		break
	}
	dsts = append(dsts, network.MustParsePrefix("203.0.113.0/24"))
	via := n.Borders[0]
	if len(n.Cores) > 0 {
		via = n.Cores[0]
	}
	whole := []string{"loops", "blackholes", "multipath-consistency", "mgmt-reachability"}
	var goals []tiered.Goal
	for _, check := range whole {
		goals = append(goals, tiered.Goal{Check: check})
	}
	for _, dst := range dsts {
		for _, check := range whole {
			goals = append(goals, tiered.Goal{Check: check, Subnet: dst, HasSubnet: true})
		}
		for _, r := range n.Routers {
			to := func(g tiered.Goal) tiered.Goal {
				g.Src, g.Subnet, g.HasSubnet = r.Name, dst, true
				return g
			}
			goals = append(goals,
				to(tiered.Goal{Check: "reachability"}),
				to(tiered.Goal{Check: "isolation"}),
				to(tiered.Goal{Check: "bounded-length", Hops: 2}),
				to(tiered.Goal{Check: "bounded-length", Hops: 4}))
			if r.Name != via {
				goals = append(goals, to(tiered.Goal{Check: "waypoint", Via: via}))
			}
		}
	}
	return goals
}

// TestAuditTierParity holds the deterministic path to the solver on the
// 24 netgen.Audit networks, which its fragment admits since redistribution
// may be acyclic and iBGP reflector-free (DESIGN.md §14, "The layered
// fragment"): every verdict rule 3 decides among auditGoals — a sample of
// -audit.sample per network — must equal pipeline.Run's with the graph
// tier off. It also fails when rule 3 decides nothing on the population,
// so a narrowed fragment cannot pass it quietly.
func TestAuditTierParity(t *testing.T) {
	var mu sync.Mutex
	asked, decided, held := 0, 0, 0
	t.Cleanup(func() {
		t.Logf("audit population: %d goals, %d decided by the deterministic path, %d held to the solver", asked, decided, held)
		if asked > 0 && decided == 0 {
			t.Error("the deterministic path decided nothing on the audit population")
		}
	})
	for size := 2; size <= 25; size++ {
		n, err := netgen.Audit(size)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Access) == 0 {
			continue
		}
		t.Run(n.Name, func(t *testing.T) {
			t.Parallel()
			net, err := pipeline.Build(n.Routers)
			if err != nil {
				t.Fatal(err)
			}
			goals := auditGoals(n)
			var rule3 []tiered.Goal
			var outs []tiered.Outcome
			for _, goal := range goals {
				if out := net.Analysis().Decide(goal); out.Rule() == "stable-state" {
					rule3, outs = append(rule3, goal), append(outs, out)
				}
			}
			stride := 1
			if k := *auditSample; k > 0 && len(rule3) > k {
				stride = (len(rule3) + k - 1) / k
			}
			var opts pipeline.Options
			opts.Core.Tiers = "sat"
			checked := 0
			for i := 0; i < len(rule3); i += stride {
				goal, out := rule3[i], outs[i]
				v, err := pipeline.Run(context.Background(), net, goal, opts)
				if err != nil {
					t.Fatal(err)
				}
				checked++
				if v.Result.Verified != out.Verified {
					t.Errorf("%s %s src=%s via=%s subnet=%v hops=%d: graph tier says verified=%v (%s), solver %v",
						n.Name, goal.Check, goal.Src, goal.Via, goal.Subnet, goal.Hops, out.Verified, out.Reason, v.Result.Verified)
				}
			}
			mu.Lock()
			asked, decided, held = asked+len(goals), decided+len(rule3), held+checked
			mu.Unlock()
		})
	}
}
