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
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/properties"
	"repro/internal/protograph"
	"repro/internal/provenance"
	"repro/internal/sat"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

// PropResult is one property check outcome. Encode/Simplify/Solve split
// Elapsed by pipeline phase; they stay zero for checks that do not go
// through the solver (structural local-equivalence).
type PropResult struct {
	Violated bool
	Elapsed  time.Duration
	Encode   time.Duration
	Simplify time.Duration
	Solve    time.Duration
	Detail   string
}

// splitFrom copies the phase breakdown out of a core.Result.
func (pr *PropResult) splitFrom(res *core.Result) {
	pr.Encode = res.EncodeElapsed
	pr.Simplify = res.SimplifyElapsed
	pr.Solve = res.SolveElapsed
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
			pr, err = checkMgmt(g)
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

func checkMgmt(g *protograph.Graph) (PropResult, error) {
	m, err := core.Encode(g, core.DefaultOptions())
	if err != nil {
		return PropResult{}, err
	}
	res, err := m.Check(properties.ManagementReachable(m), m.NoFailures())
	if err != nil {
		return PropResult{}, err
	}
	pr := PropResult{Violated: !res.Verified, Elapsed: res.Elapsed}
	pr.splitFrom(res)
	if !res.Verified {
		pr.Detail = res.Counterexample.String()
	}
	return pr, nil
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
	pr := PropResult{Violated: !res.Verified, Elapsed: res.Elapsed}
	pr.splitFrom(res)
	if !res.Verified {
		pr.Detail = res.Counterexample.String()
	}
	return pr, nil
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
	pr := PropResult{Violated: !res.Verified, Elapsed: res.Elapsed}
	pr.splitFrom(res)
	if !res.Verified {
		pr.Detail = res.Counterexample.String()
	}
	return pr, nil
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

// Fig8Row is one point of Figure 8. Encode/Simplify/Solve split Elapsed
// by pipeline phase (zero for the structural local-consistency property).
// The Proof columns stay zero unless the fabric runs with Certify: they
// give the DRAT trace size and the independent checker's replay time
// behind a verified verdict.
type Fig8Row struct {
	Pods, Routers int
	Property      string
	// Tier names the verification tier that answered the row: "graph"
	// for the fast path, "sat" for the solver (including fast-path
	// residue), "" when the fabric ran untiered.
	Tier string
	// FastPath is the graph tier's classification time (the whole row
	// cost on a hit, overhead on residue; zero untiered).
	FastPath    time.Duration
	Elapsed     time.Duration
	Encode      time.Duration
	Simplify    time.Duration
	Solve       time.Duration
	Verified    bool
	SATVars     int
	SATClauses  int
	Conflicts   int64
	ProofSteps  int
	ProofLemmas int
	// ProofHinted/ProofFallbacks split the lemmas the checker did not
	// find already entailed: verified from the solver's recorded
	// antecedents, or by searching the whole database.
	ProofHinted    int
	ProofFallbacks int
	ProofCheck     time.Duration
	// Deterministic work columns, from the search's counters and the cost
	// ledger's byte estimates. These are machine-independent, so the
	// regression gate holds them exactly.
	Decisions     int64
	Propagations  int64
	ClauseDBBytes int64
	ProofBytes    int64
	// Profile is the per-origin hot-constraint profile, populated only
	// when the fabric runs with ProfileOrigins.
	Profile *provenance.Profile
}

// Fabric caches a generated fat-tree and its loaded network. The optional
// observability fields are threaded into every model built from the
// fabric: Obs parents the per-query spans, and ProgressEvery/OnProgress
// install the solver progress hook.
type Fabric struct {
	FT  *topogen.FatTree
	Net *pipeline.Network

	// Passes, when non-empty, overrides the optimization pipeline for
	// every encode that does not already pin Options.Passes (the cmd
	// -passes flag lands here).
	Passes string

	// Tiers enables the graph fast path for Fig8 rows when
	// tiered.Enabled(Tiers) holds (the cmd -tiers flag lands here; unlike
	// there, the zero value here means OFF so existing callers measure the
	// solver unchanged — pass "graph,sat" to opt in).
	Tiers string

	// Certify turns on DRAT proof recording for every encode: verified
	// verdicts carry an independently checked certificate and the Fig8Row
	// proof columns are populated.
	Certify bool

	// ProfileOrigins turns on solver origin attribution for every encode:
	// rows carry the per-origin hot-constraint profile.
	ProfileOrigins bool

	Obs           *obs.Span
	ProgressEvery int64
	OnProgress    func(sat.Progress)
}

// encode builds a model from the fabric with its observability wiring.
func (f *Fabric) encode(opts core.Options) (*core.Model, error) {
	opts.Span = f.Obs
	if opts.Passes == "" {
		opts.Passes = f.Passes
	}
	if f.Certify {
		opts.Certify = true
	}
	if f.ProfileOrigins {
		opts.ProfileOrigins = true
	}
	m, err := core.Encode(f.Net.Graph, opts)
	if err != nil {
		return nil, err
	}
	m.ProgressEvery = f.ProgressEvery
	m.OnProgress = f.OnProgress
	return m, nil
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

// RunFig8Property checks one Figure 8 property on a fabric: through the
// query pipeline, with the graph tier on only when Fabric.Tiers asks (a
// decided goal then costs one analysis pass instead of an encode and a
// solve; residue rows pay the classification as overhead).
func RunFig8Property(f *Fabric, prop string) (*Fig8Row, error) {
	row := &Fig8Row{Pods: f.FT.K, Routers: len(f.FT.Routers), Property: prop}
	if prop == Fig8LocalConsist {
		// n−1 pairwise equivalence queries over the core tier, as in
		// §8.2 ("to ensure all n spine routers are equivalent... n−1
		// separate queries").
		start := time.Now()
		cores := f.FT.Cores
		row.Verified = true
		opts := core.DefaultOptions()
		opts.Span = f.Obs
		for i := 0; i+1 < len(cores); i++ {
			res, err := core.CheckLocalEquivalence(f.Net.Graph, cores[i], cores[i+1], opts)
			if err != nil {
				return nil, err
			}
			if !res.Equivalent {
				row.Verified = false
			}
		}
		row.Elapsed = time.Since(start)
		return row, nil
	}

	goal, ok := Fig8Goal(f, prop)
	if !ok {
		return nil, fmt.Errorf("harness: unknown figure-8 property %q", prop)
	}
	return RunFig8Goal(f, prop, goal)
}

// RunFig8Goal is RunFig8Property for the property stated as the given
// goal: Fig8Goal's, or another form of it such as Fig8ModularGoal's.
func RunFig8Goal(f *Fabric, prop string, goal tiered.Goal) (*Fig8Row, error) {
	row := &Fig8Row{Pods: f.FT.K, Routers: len(f.FT.Routers), Property: prop}
	opts := pipeline.Options{Live: func() (*core.Model, *core.Session, error) {
		m, err := f.encode(core.DefaultOptions())
		return m, nil, err
	}}
	opts.Core.Span = f.Obs
	opts.Core.Tiers = f.Tiers
	if f.Tiers == "" {
		opts.Core.Tiers = "none"
	}
	v, err := pipeline.Run(context.Background(), f.Net, goal, opts)
	if err != nil {
		return nil, err
	}
	res := v.Result
	row.Tier = res.Tier
	row.FastPath = res.FastPathElapsed
	row.Elapsed = res.Elapsed
	row.Encode = res.EncodeElapsed
	row.Simplify = res.SimplifyElapsed
	row.Solve = res.SolveElapsed
	row.Verified = res.Verified
	row.SATVars = res.SATVars
	row.SATClauses = res.SATClauses
	row.Conflicts = res.Stats.Conflicts
	row.Decisions = res.Stats.Decisions
	row.Propagations = res.Stats.Propagations
	if res.Cost != nil {
		t := res.Cost.Total()
		row.ClauseDBBytes = t.ClauseDBBytes
		row.ProofBytes = t.ProofBytes
	}
	if cert := res.Certificate; cert != nil {
		row.ProofSteps = cert.Steps
		row.ProofLemmas = cert.Lemmas
		row.ProofHinted = cert.Hinted
		row.ProofFallbacks = cert.Fallbacks
		row.ProofCheck = cert.CheckElapsed
	}
	row.Profile = res.OriginProfile
	return row, nil
}

// AblationRow is one §8.3 data point: single-source reachability with a
// given optimization configuration. Encode is the symbolic model build,
// Check the full query; CNF/Simplify/Solve split Check by solver phase.
type AblationRow struct {
	Config        string
	Opts          core.Options
	Pods, Routers int
	Encode        time.Duration
	Check         time.Duration
	CNF           time.Duration
	Simplify      time.Duration
	Solve         time.Duration
	Verified      bool
	RecordVars    int
	SATVars       int
	SATClauses    int
	Conflicts     int64
}

// AblationConfigs enumerates the §8.3 configurations: the naive
// encoding, each optimization pass alone, and the full pipeline.
func AblationConfigs() []struct {
	Name string
	Opts core.Options
} {
	out := []struct {
		Name string
		Opts core.Options
	}{{"none", core.Options{Passes: "none"}}}
	for _, name := range core.PassNames() {
		out = append(out, struct {
			Name string
			Opts core.Options
		}{name, core.Options{Passes: name}})
	}
	return append(out, struct {
		Name string
		Opts core.Options
	}{"all", core.Options{Passes: "all"}})
}

// RunAblation measures the optimizations on single-source reachability
// over a k-pod fabric.
func RunAblation(f *Fabric, name string, opts core.Options) (*AblationRow, error) {
	k := f.FT.K
	row := &AblationRow{Config: name, Opts: opts, Pods: k, Routers: len(f.FT.Routers)}
	t0 := time.Now()
	m, err := f.encode(opts)
	if err != nil {
		return nil, err
	}
	row.Encode = time.Since(t0)
	row.RecordVars = m.NumRecordVars
	goal, _ := Fig8Goal(f, Fig8ReachSingle)
	p, assumptions, err := pipeline.Property(m, goal)
	if err != nil {
		return nil, err
	}
	res, err := m.Check(p, assumptions...)
	if err != nil {
		return nil, err
	}
	row.Check = res.Elapsed
	row.CNF = res.EncodeElapsed
	row.Simplify = res.SimplifyElapsed
	row.Solve = res.SolveElapsed
	row.Verified = res.Verified
	row.SATVars = res.SATVars
	row.SATClauses = res.SATClauses
	row.Conflicts = res.Stats.Conflicts
	return row, nil
}
