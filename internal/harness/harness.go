// Package harness drives the paper's evaluation (§8): the four-property
// audit of the operational-network population (§8.1 violations table and
// Figure 7 timing panels), the synthetic data-center property sweep
// (Figure 8) and the optimization ablation (§8.3). cmd/bench and the
// repository benchmarks are thin wrappers over this package.
package harness

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/obs/cost"
	"repro/internal/pipeline"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

// Section 8.1 property names.
const (
	PropMgmtReach  = "mgmt-reachability"
	PropLocalEquiv = "local-equivalence"
	PropBlackholes = "blackholes"
	PropFaultInvar = "fault-invariance"
)

// AllSection81Props lists the four §8.1 properties in paper order.
func AllSection81Props() []string {
	return []string{PropMgmtReach, PropLocalEquiv, PropBlackholes, PropFaultInvar}
}

// CheckNetwork asks the requested §8.1 properties of one generated
// network through the pipeline, with the graph tier off so the solver
// answers every check. The verdicts are in props order; local
// equivalence's is the total of one goal per pair of routers.
func CheckNetwork(n *netgen.Network, props []string) ([]*pipeline.Verdict, error) {
	net, err := pipeline.Build(n.Routers)
	if err != nil {
		return nil, err
	}
	var opts pipeline.Options
	opts.Core.Tiers = "none"
	ctx := context.Background()
	out := make([]*pipeline.Verdict, len(props))
	for i, prop := range props {
		var v *pipeline.Verdict
		switch prop {
		case PropMgmtReach:
			v, err = pipeline.Run(ctx, net, tiered.Goal{Check: "mgmt-reachability"}, opts)
		case PropLocalEquiv:
			v, err = localConsistency(net, opts, n.Roles)
		case PropBlackholes:
			edge := append(append([]string(nil), n.Access...), n.Borders...)
			v, err = pipeline.Run(ctx, net, tiered.Goal{Check: "drops-at-edge", Srcs: edge}, opts)
		case PropFaultInvar:
			v, err = pipeline.Run(ctx, net, tiered.Goal{Check: "fault-invariance", MaxFailures: 1}, opts)
		default:
			err = fmt.Errorf("harness: unknown property %q", prop)
		}
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", n.Name, prop, err)
		}
		out[i] = v
	}
	return out, nil
}

// localConsistency asks an equivalence goal of each pair of adjacent
// routers in each role, roles in name order, and totals them in one
// verdict: the goals' results folded by core.ComposeVerdicts (verified
// when every goal is; summed Stats and certificates), one ledger merged
// from theirs with the times read from it, and the difference of the
// first pair that differs.
func localConsistency(net *pipeline.Network, opts pipeline.Options, roles map[string][]string) (*pipeline.Verdict, error) {
	names := make([]string, 0, len(roles))
	for role := range roles {
		names = append(names, role)
	}
	sort.Strings(names)
	ledger := cost.New("goal")
	var goals []*core.Result
	sum := &pipeline.Verdict{}
	for _, role := range names {
		members := roles[role]
		for i := 0; i+1 < len(members); i++ {
			v, err := pipeline.Run(context.Background(), net, tiered.Goal{Check: "equivalence", Srcs: members[i : i+2]}, opts)
			if err != nil {
				return nil, err
			}
			goals = append(goals, v.Result)
			ledger.Merge(v.Result.Cost)
			if v.Difference != "" && sum.Difference == "" {
				sum.Difference = fmt.Sprintf("%s vs %s: %s", members[i], members[i+1], v.Difference)
			}
		}
	}
	res := core.ComposeVerdicts(goals)
	res.Cost = ledger
	if len(goals) > 0 {
		res.Tier = goals[0].Tier
	}
	res.FillTimes()
	sum.Result = res
	return sum, nil
}

// Figure 8 property names (paper legend order).
const (
	Fig8NoBlackholes   = "no-blackholes"
	Fig8Multipath      = "multipath-consistency"
	Fig8LocalConsist   = "local-consistency"
	Fig8ReachSingle    = "single-tor-reachability"
	Fig8ReachAll       = "all-tor-reachability"
	Fig8BoundedSingle  = "single-tor-bounded-length"
	Fig8BoundedAll     = "all-tor-bounded-length"
	Fig8EqualLengthPod = "equal-length-pod"
)

// AllFig8Props lists the Figure 8 properties.
func AllFig8Props() []string {
	return []string{
		Fig8NoBlackholes, Fig8Multipath, Fig8LocalConsist,
		Fig8ReachSingle, Fig8ReachAll,
		Fig8BoundedSingle, Fig8BoundedAll, Fig8EqualLengthPod,
	}
}

// Fabric caches a generated fat-tree and its loaded network. How a
// query runs on it — passes, tiers, certification, spans, progress — is
// the caller's pipeline.Options.
type Fabric struct {
	FT  *topogen.FatTree
	Net *pipeline.Network
}

// Fig8Goal states a Figure 8 property as a goal (ok=false for
// local-consistency, a pairwise-equivalence sweep no goal models). The
// destination is the first ToR's subnet, the far source the last pod's
// first ToR, matching the paper's fixed-destination queries.
func Fig8Goal(f *Fabric, prop string) (tiered.Goal, bool) {
	k := f.FT.K
	dst := topogen.ToRSubnet(0, 0)
	destToR := topogen.ToRName(0, 0)
	farToR := topogen.ToRName(k-1, 0)
	var others []string
	for _, t := range f.FT.AllToRs() {
		if t != destToR {
			others = append(others, t)
		}
	}
	goal := tiered.Goal{Subnet: dst, HasSubnet: true}
	switch prop {
	case Fig8NoBlackholes:
		return tiered.Goal{Check: "blackholes"}, true
	case Fig8Multipath:
		return tiered.Goal{Check: "multipath-consistency"}, true
	case Fig8ReachSingle:
		goal.Check, goal.Src = "reachability", farToR
	case Fig8ReachAll:
		goal.Check, goal.Srcs = "reachability-all", others
	case Fig8BoundedSingle:
		goal.Check, goal.Src, goal.Hops = "bounded-length", farToR, 4
	case Fig8BoundedAll:
		goal.Check, goal.Srcs, goal.Hops = "bounded-length-all", others, 4
	case Fig8EqualLengthPod:
		goal.Check, goal.Srcs = "equal-lengths", f.FT.ToRs[k-1]
	default:
		return tiered.Goal{}, false
	}
	return goal, true
}

// Fig8ModularGoal is Fig8Goal with the whole-network properties
// (no-blackholes, multipath-consistency) scoped to the destination
// subnet. The modular composition always works per destination prefix
// — its contracts describe announcements for one prefix — and the
// monolithic reference adds the matching DstIn assumption, so both
// sides of a modular-vs-monolithic comparison answer the same
// subnet-scoped question.
func Fig8ModularGoal(f *Fabric, prop string) (tiered.Goal, bool) {
	goal, ok := Fig8Goal(f, prop)
	if !ok {
		return goal, false
	}
	if !goal.HasSubnet {
		goal.Subnet = topogen.ToRSubnet(0, 0)
		goal.HasSubnet = true
	}
	return goal, true
}

// BuildFabric generates a k-pod fabric.
func BuildFabric(k int) (*Fabric, error) {
	ft, err := topogen.Generate(k)
	if err != nil {
		return nil, err
	}
	net, err := pipeline.Build(ft.Routers)
	if err != nil {
		return nil, err
	}
	return &Fabric{FT: ft, Net: net}, nil
}

// RunFig8Property checks one Figure 8 property on a fabric under opts,
// through the query pipeline: the row is the pipeline's verdict.
// Local-consistency is the n−1 equivalence goals over the core tier of
// §8.2 ("to ensure all n spine routers are equivalent... n−1 separate
// queries"); its verdict totals them.
func RunFig8Property(f *Fabric, prop string, opts pipeline.Options) (*pipeline.Verdict, error) {
	if prop == Fig8LocalConsist {
		return localConsistency(f.Net, opts, map[string][]string{"core": f.FT.Cores})
	}
	goal, ok := Fig8Goal(f, prop)
	if !ok {
		return nil, fmt.Errorf("harness: unknown figure-8 property %q", prop)
	}
	return pipeline.Run(context.Background(), f.Net, goal, opts)
}

// AblationPasses lists the §8.3 configurations as Options.Passes values:
// the naive encoding, each optimization pass alone, and the full
// pipeline.
func AblationPasses() []string {
	return append(append([]string{"none"}, core.PassNames()...), "all")
}

// RunAblation answers the §8.3 query, single-source reachability, under
// opts on the monolithic solver: the graph tier is off, because the
// ablation measures the encoding. The verdict's Model is that encoding.
func RunAblation(f *Fabric, opts pipeline.Options) (*pipeline.Verdict, error) {
	goal, _ := Fig8Goal(f, Fig8ReachSingle)
	opts.Core.Tiers = "none"
	return pipeline.Run(context.Background(), f.Net, goal, opts)
}
