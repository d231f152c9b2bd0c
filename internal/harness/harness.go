// Package harness drives the paper's evaluation (§8): the four-property
// audit of the operational-network population (§8.1 violations table and
// Figure 7 timing panels), the synthetic data-center property sweep
// (Figure 8) and the optimization ablation (§8.3). cmd/bench and the
// repository benchmarks are thin wrappers over this package.
package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/properties"
	"repro/internal/protograph"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

// PropResult is one §8.1 check outcome. Result is the solver's answer
// behind a SAT-backed check, the same row the pipeline returns; it is nil
// for local-equivalence, a structural sweep.
type PropResult struct {
	Violated bool
	Elapsed  time.Duration
	Detail   string
	Result   *core.Result
}

// satResult is the outcome of a SAT-backed check.
func satResult(res *core.Result) PropResult {
	pr := PropResult{Violated: !res.Verified, Elapsed: res.Elapsed, Result: res}
	if !res.Verified {
		pr.Detail = res.Counterexample.String()
	}
	return pr
}

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

// NetCheck is the audit result for one network.
type NetCheck struct {
	Name    string
	Routers int
	Lines   int
	Results map[string]PropResult
}

// CheckNetwork runs the requested §8.1 properties on one generated
// network.
func CheckNetwork(n *netgen.Network, props []string) (*NetCheck, error) {
	net, err := pipeline.Build(n.Routers)
	if err != nil {
		return nil, err
	}
	g := net.Graph
	out := &NetCheck{Name: n.Name, Routers: len(n.Routers), Lines: n.Lines, Results: map[string]PropResult{}}
	for _, prop := range props {
		var pr PropResult
		switch prop {
		case PropMgmtReach:
			pr, err = checkMgmt(net)
		case PropLocalEquiv:
			pr, err = checkLocalEquiv(g, n.Roles)
		case PropBlackholes:
			pr, err = checkDropsAtEdge(g, n)
		case PropFaultInvar:
			pr, err = checkFaultInvariance(g)
		default:
			err = fmt.Errorf("harness: unknown property %q", prop)
		}
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", n.Name, prop, err)
		}
		out.Results[prop] = pr
	}
	return out, nil
}

// checkMgmt asks the pipeline with the graph tier off, so the solver
// answers and the row carries its counts.
func checkMgmt(net *pipeline.Network) (PropResult, error) {
	var opts pipeline.Options
	opts.Core.Tiers = "none"
	v, err := pipeline.Run(context.Background(), net, tiered.Goal{Check: "mgmt-reachability"}, opts)
	if err != nil {
		return PropResult{}, err
	}
	return satResult(v.Result), nil
}

func checkLocalEquiv(g *protograph.Graph, roles map[string][]string) (PropResult, error) {
	start := time.Now()
	pr := PropResult{}
	for _, members := range roles {
		for i := 0; i+1 < len(members); i++ {
			res, err := core.CheckLocalEquivalence(g, members[i], members[i+1], core.DefaultOptions())
			if err != nil {
				return pr, err
			}
			if !res.Equivalent && !pr.Violated {
				pr.Violated = true
				pr.Detail = fmt.Sprintf("%s vs %s: %s", members[i], members[i+1], res.Difference)
			}
		}
	}
	pr.Elapsed = time.Since(start)
	return pr, nil
}

func checkDropsAtEdge(g *protograph.Graph, n *netgen.Network) (PropResult, error) {
	m, err := core.Encode(g, core.DefaultOptions())
	if err != nil {
		return PropResult{}, err
	}
	edge := map[string]bool{}
	for _, r := range n.Access {
		edge[r] = true
	}
	for _, r := range n.Borders {
		edge[r] = true
	}
	p := properties.DropsAtEdgeOnly(m, func(r string) bool { return edge[r] })
	res, err := m.Check(p, m.NoFailures())
	if err != nil {
		return PropResult{}, err
	}
	return satResult(res), nil
}

func checkFaultInvariance(g *protograph.Graph) (PropResult, error) {
	pair, prop, err := core.FaultInvariance(g, core.DefaultOptions(), 1)
	if err != nil {
		return PropResult{}, err
	}
	// §8.1 asks whether router-pair reachability survives any single
	// failure; environment-induced changes are the hijack property's
	// business, so the announcements are held silent here (they are
	// linked across the two copies already).
	silent := pair.Ctx.True()
	for _, rec := range pair.A.Main.Env {
		silent = pair.Ctx.And(silent, pair.Ctx.Not(rec.Valid))
	}
	res, err := pair.Check(prop, silent)
	if err != nil {
		return PropResult{}, err
	}
	return satResult(res), nil
}

// Section81Summary aggregates an §8.1 audit.
type Section81Summary struct {
	Total      int
	Violations map[string]int
	PerNet     []*NetCheck
}

// RunSection81 audits a population.
func RunSection81(pop []*netgen.Network, props []string) (*Section81Summary, error) {
	sum := &Section81Summary{Total: len(pop), Violations: map[string]int{}}
	for _, n := range pop {
		nc, err := CheckNetwork(n, props)
		if err != nil {
			return nil, err
		}
		sum.PerNet = append(sum.PerNet, nc)
		for prop, pr := range nc.Results {
			if pr.Violated {
				sum.Violations[prop]++
			}
		}
	}
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
// through the query pipeline: the row is the pipeline's Result.
// Local-consistency, the n−1 pairwise equivalence queries over the core
// tier of §8.2 ("to ensure all n spine routers are equivalent... n−1
// separate queries"), has no goal form; its Result carries only Verified
// and Elapsed.
func RunFig8Property(f *Fabric, prop string, opts pipeline.Options) (*core.Result, error) {
	if prop == Fig8LocalConsist {
		start := time.Now()
		res := &core.Result{Verified: true}
		cores := f.FT.Cores
		for i := 0; i+1 < len(cores); i++ {
			eq, err := core.CheckLocalEquivalence(f.Net.Graph, cores[i], cores[i+1], opts.Core)
			if err != nil {
				return nil, err
			}
			res.Verified = res.Verified && eq.Equivalent
		}
		res.Elapsed = time.Since(start)
		return res, nil
	}
	goal, ok := Fig8Goal(f, prop)
	if !ok {
		return nil, fmt.Errorf("harness: unknown figure-8 property %q", prop)
	}
	v, err := pipeline.Run(context.Background(), f.Net, goal, opts)
	if err != nil {
		return nil, err
	}
	return v.Result, nil
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
