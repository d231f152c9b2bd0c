package modular

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs/cost"
	"repro/internal/properties"
	"repro/internal/protograph"
	"repro/internal/smt"
)

// Options configure one modular run.
type Options struct {
	// Core is what a monolithic check would use (certification, blame,
	// passes, the progress hook, ...). Components run concurrently, so
	// they are compiled without its span and event sink, which receives
	// the run's own events ("modular.class", ...).
	Core core.Options
	// Workers is the number of goroutines Run checks classes on (<=0
	// means one).
	Workers int
	// NoFallback is read by pipeline.Run, which embeds these options: it
	// makes residue final instead of handing the goal to the monolithic
	// step. Run itself never falls back. For fabrics where the
	// whole-network encoding is off the table, a surprise residue must not
	// quietly start an infeasible solve.
	NoFallback bool
}

// Report is the outcome of a modular run over one plan.
type Report struct {
	Verified   bool
	Components int
	Classes    int
	// AliasHits counts components whose verdict was taken from an
	// isomorphic class representative instead of being solved.
	AliasHits int
	// Checks counts the component-level SMT checks actually solved.
	Checks int
	// Residue is the runtime residue: empty means the composed Result
	// stands; non-empty means a component check failed to discharge and
	// the caller must fall back to the monolithic encoding.
	Residue []string
	// Violated names the first violated contract (when a discharge check
	// failed), in Contract.String() form.
	Violated string
	// Result is the composed verdict (nil when Residue is non-empty).
	Result *core.Result
	// PeakTerms is the largest per-component term count — the modular
	// answer to the monolithic model-size question.
	PeakTerms int
	Elapsed   time.Duration
	// Cost is the run's resource ledger: one "class:N" child per solved
	// isomorphism class (N the representative's component index) holding
	// that class's compile and per-check phase costs, with meta members
	// and amortized_units recording how far aliasing stretched the work —
	// a class solved once on behalf of k members costs units/k per
	// component.
	Cost *cost.Node
}

func emit(o Options, event string, fields map[string]any) {
	if o.Core.OnEvent != nil {
		o.Core.OnEvent(event, fields)
	}
}

// classOutcome is one class representative's solved checks.
type classOutcome struct {
	rep      *CompPlan
	members  []*CompPlan
	verdicts []*core.ComponentVerdict
	residue  string // "" = all checks verified
	violated string
	terms    int
	cost     *cost.Node
	err      error
}

// TaskPanic is a class check's panic, raised again on Run's goroutine
// once every class has run: Value is what the check panicked with, Stack
// the stack of the goroutine it panicked on.
type TaskPanic struct {
	Value any
	Stack []byte
}

// runAll runs tasks on workers goroutines (at least one). A task that
// panics stops neither its goroutine nor the other tasks: once all have
// returned, the first panic is raised again as a *TaskPanic.
func runAll(workers int, tasks []func()) {
	var failed atomic.Pointer[TaskPanic]
	var wg sync.WaitGroup
	ch := make(chan func())
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				func() {
					defer func() {
						if r := recover(); r != nil {
							failed.CompareAndSwap(nil, &TaskPanic{r, debug.Stack()})
						}
					}()
					t()
				}()
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	if p := failed.Load(); p != nil {
		panic(p)
	}
}

// Run executes a runnable multi-component plan: groups components into
// isomorphism classes, verifies one representative per class (discharge
// strata, then the goal's obligations and per-component properties) and
// composes the verdicts. Any failed component check surfaces as runtime
// residue — the modular pipeline never turns a component counterexample
// into a network counterexample, because the other components need not
// have matching stable states; falsification is the monolithic
// fallback's job.
func Run(ctx context.Context, g *protograph.Graph, plan *Plan, opts Options) (*Report, error) {
	start := time.Now()
	if !plan.Runnable() {
		return &Report{Components: len(plan.Comps), Residue: plan.AllResidue()}, nil
	}
	if !opts.Core.Hoists() {
		return &Report{Components: len(plan.Comps), Residue: []string{"no-hoist"}}, nil
	}

	byKey := map[string]*classOutcome{}
	var order []string
	for _, cp := range plan.Comps {
		cl, ok := byKey[cp.Key]
		if !ok {
			cl = &classOutcome{rep: cp}
			byKey[cp.Key] = cl
			order = append(order, cp.Key)
		}
		cl.members = append(cl.members, cp)
	}
	emit(opts, "modular.plan", map[string]any{
		"components": len(plan.Comps), "classes": len(order), "cut_sessions": len(plan.Cut.Sessions)})

	tasks := make([]func(), len(order))
	for i, key := range order {
		cl := byKey[key]
		tasks[i] = func() {
			runClass(ctx, g, plan, cl, opts)
			fields := map[string]any{"routers": len(cl.rep.Comp.Routers),
				"members": len(cl.members), "checks": len(cl.verdicts)}
			if cl.err != nil {
				fields["error"] = cl.err.Error()
			}
			if cl.residue != "" {
				fields["residue"] = cl.residue
			}
			emit(opts, "modular.class", fields)
		}
	}
	runAll(opts.Workers, tasks)

	rep := &Report{Components: len(plan.Comps), Classes: len(order), Cost: cost.New("modular")}
	var all []*core.ComponentVerdict
	for _, key := range order {
		cl := byKey[key]
		if cl.err != nil {
			return nil, cl.err
		}
		if cl.cost != nil {
			cl.cost.SetMeta("members", int64(len(cl.members)))
			cl.cost.SetMeta("checks", int64(len(cl.verdicts)))
			if n := int64(len(cl.members)); n > 0 {
				cl.cost.SetMeta("amortized_units", cl.cost.Total().Units()/n)
			}
			rep.Cost.AddChild(cl.cost)
		}
		rep.Checks += len(cl.verdicts)
		if cl.terms > rep.PeakTerms {
			rep.PeakTerms = cl.terms
		}
		if cl.residue != "" {
			rep.Residue = append(rep.Residue, cl.residue)
			if rep.Violated == "" {
				rep.Violated = cl.violated
			}
			continue
		}
		all = append(all, cl.verdicts...)
		// Alias members inherit the representative's verdicts with blame
		// rewritten through the router/value bijection; no solver work or
		// stats are double-counted.
		for _, m := range cl.members {
			if m == cl.rep {
				continue
			}
			rep.AliasHits++
			for _, v := range cl.verdicts {
				if v.Res == nil || len(v.Res.Blame) == 0 {
					continue
				}
				all = append(all, &core.ComponentVerdict{
					Component: m.Comp.Index,
					Check:     v.Check + ":alias",
					Res: &core.Result{Verified: v.Res.Verified,
						Blame: renameOrigins(v.Res.Blame, cl.rep, m)},
				})
			}
		}
	}
	sort.Strings(rep.Residue)
	rep.Elapsed = time.Since(start)
	if len(rep.Residue) > 0 {
		emit(opts, "modular.residue", map[string]any{"residue": strings.Join(rep.Residue, ","), "violated": rep.Violated})
		return rep, nil
	}

	// Length goals compose arithmetically: with singleton components and
	// exact discharges, a reached source's path length equals its BGP-hop
	// distance (every internal hop is an AS hop and delivery happens only
	// at the originators — both enforced by plan residue rules).
	if isLengthCheck(plan.Goal.Check) {
		if res := composeLengths(plan); res != "" {
			rep.Residue = []string{res}
			emit(opts, "modular.residue", map[string]any{"residue": res})
			return rep, nil
		}
	}

	rep.Result = core.ComposeVerdicts(all)
	rep.Verified = rep.Result.Verified
	emit(opts, "modular.compose", map[string]any{
		"verified": rep.Verified, "checks": rep.Checks, "alias_hits": rep.AliasHits,
		"blame": len(rep.Result.Blame)})
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// composeLengths discharges a length goal by contract-metric arithmetic.
// Sound verified claims only; anything else is residue.
func composeLengths(plan *Plan) string {
	dists := map[string]int{}
	infinite := false
	for _, src := range plan.Goal.Sources() {
		d, ok := plan.Con.Dist[src]
		if !ok {
			infinite = true
			continue
		}
		dists[src] = d
	}
	switch plan.Goal.Check {
	case "bounded-length", "bounded-length-all":
		// Unreachable sources satisfy the bound vacuously; reached ones
		// use exactly dist hops.
		for src, d := range dists {
			if d > plan.Goal.Hops {
				return fmt.Sprintf("length-bound:%s", src)
			}
		}
	case "equal-lengths":
		if infinite {
			// A source the BGP graph cannot reach may still make the
			// property vacuously true monolithically; don't guess.
			return "length-unreachable-src"
		}
		first, have := 0, false
		for _, src := range plan.Goal.Sources() {
			d := dists[src]
			if !have {
				first, have = d, true
			} else if d != first {
				return "length-unequal"
			}
		}
	}
	return ""
}

// buildComponent rebuilds a component's subset network: the far ends of
// cut sessions fall out of the router set, so BuildTopology re-infers
// them as external peers and the ordinary environment machinery models
// their announcements.
func buildComponent(g *protograph.Graph, cp *CompPlan) (*protograph.Graph, error) {
	if len(cp.Comp.Routers) == len(g.Topo.Nodes) {
		return g, nil
	}
	subset := make([]*config.Router, 0, len(cp.Comp.Routers))
	byName := make(map[string]*config.Router, len(cp.Comp.Routers))
	for _, name := range cp.Comp.Routers {
		cfg := g.Configs[name]
		subset = append(subset, cfg)
		byName[name] = cfg
	}
	topo, err := config.BuildTopology(subset)
	if err != nil {
		return nil, fmt.Errorf("modular: component %d topology: %w", cp.Comp.Index, err)
	}
	return protograph.Build(topo, byName)
}

// extFor resolves which external of the component graph carries a cut
// contract: the peer's address identifies it uniquely on the local
// router.
func extFor(cg *protograph.Graph, router string, peerAddr network.IP) (string, error) {
	n := cg.Topo.Node(router)
	if n == nil {
		return "", fmt.Errorf("modular: router %q missing from component", router)
	}
	for _, e := range cg.Topo.ExternalsOf(n) {
		if e.PeerAddr == peerAddr {
			return e.Name, nil
		}
	}
	return "", fmt.Errorf("modular: no external for %s peer %v", router, peerAddr)
}

// runClass verifies one class representative. Check order: discharge the
// export guarantees stratum by stratum (induction on contract metric),
// then the goal's reachability obligations and per-component property.
func runClass(ctx context.Context, g *protograph.Graph, plan *Plan, cl *classOutcome, opts Options) {
	cp := cl.rep
	fail := func(err error) { cl.err = err }

	cg, err := buildComponent(g, cp)
	if err != nil {
		fail(err)
		return
	}
	// The graph is already cut: far ends of boundary sessions appear as
	// externals (config.BuildTopology infers them for BGP neighbors outside
	// the subset), so the encoder's ordinary environment machinery provides
	// the assume-side records.
	copts := opts.Core
	copts.Span, copts.OnEvent = nil, nil
	m, err := core.Encode(cg, copts)
	if err != nil {
		fail(err)
		return
	}
	// One compile per class, a phase of the class ledger; the checks below
	// merge their own phases in beside it.
	cl.cost = cost.New(fmt.Sprintf("class:%d", cp.Comp.Index))
	ph := cost.Open(nil, cl.cost, nil)
	ph.Begin("compile")
	cn := m.Compile()
	ph.End(cost.Work{})
	defer func() { cl.terms = m.Ctx.NumTerms() }()

	type boundExt struct {
		con *Contract
		ext string
		pin core.EnvPin
	}
	bind := func(cons []*Contract, localOf func(*Contract) (string, network.IP)) ([]boundExt, error) {
		out := make([]boundExt, 0, len(cons))
		for _, con := range cons {
			router, addr := localOf(con)
			ext, err := extFor(cg, router, addr)
			if err != nil {
				return nil, err
			}
			out = append(out, boundExt{con, ext,
				core.EnvPin{Ext: ext, Valid: con.Valid, Prefix: con.Prefix, Metric: con.Metric}})
		}
		return out, nil
	}
	imports, err := bind(cp.Imports, func(c *Contract) (string, network.IP) {
		return c.Session.To, c.Session.FromAddr
	})
	if err != nil {
		fail(err)
		return
	}
	exports, err := bind(cp.Exports, func(c *Contract) (string, network.IP) {
		return c.Session.From, c.Session.ToAddr
	})
	if err != nil {
		fail(err)
		return
	}

	dst := properties.DstIn(m, plan.Goal.Subnet)
	noFail := m.NoFailures()

	// The invariant assumption for every import: silence for invalid
	// contracts, and the support-chain lower bound (right prefix, metric
	// >= contract, no MED) for valid ones. Sound unconditionally under
	// the cut's static residue rules — every announcement for the goal
	// prefix is relayed from an originator gaining one metric per AS hop.
	var lb []*smt.Term
	for _, im := range imports {
		t, err := m.EnvContractLB(im.pin)
		if err != nil {
			fail(err)
			return
		}
		lb = append(lb, t)
	}
	exactBelow := func(metric int) ([]*smt.Term, error) {
		var pins []core.EnvPin
		for _, im := range imports {
			if im.con.Valid && im.con.Metric < metric {
				pins = append(pins, im.pin)
			}
		}
		return m.PinEnv(pins)
	}

	check := func(name, contract string, property *smt.Term, assumptions []*smt.Term) (bool, error) {
		res, err := m.CheckGoal(ctx, cn, property, assumptions...)
		if err != nil {
			return false, err
		}
		// Fold the check's phase ledger into the class node (same-name
		// phases accumulate, like origin profiles); Merge only reads
		// res.Cost, which the composed verdict merges once more.
		cl.cost.Merge(res.Cost)
		cl.verdicts = append(cl.verdicts, &core.ComponentVerdict{
			Component: cp.Comp.Index, Check: name, Contract: contract, Res: res})
		return res.Verified, nil
	}

	// Discharge strata: guarantees at metric m may depend only on
	// assumptions at metrics < m, so pinning those exactly (and the rest
	// to the lower bound) and proving the stratum's exports breaks the
	// assume/guarantee circle by induction on m.
	strata := map[int][]boundExt{}
	var metrics []int
	for _, ex := range exports {
		if !ex.con.Valid {
			// Silence guarantees follow from the support-chain theorem
			// (no finite-distance chain exists); nothing to solve.
			continue
		}
		if _, ok := strata[ex.con.Metric]; !ok {
			metrics = append(metrics, ex.con.Metric)
		}
		strata[ex.con.Metric] = append(strata[ex.con.Metric], ex)
	}
	sort.Ints(metrics)
	for _, metric := range metrics {
		below, err := exactBelow(metric)
		if err != nil {
			fail(err)
			return
		}
		assumptions := append(append([]*smt.Term{dst, noFail}, lb...), below...)
		var goals []*smt.Term
		for _, ex := range strata[metric] {
			t, err := m.ExportMatches(ex.ext, ex.pin)
			if err != nil {
				fail(err)
				return
			}
			goals = append(goals, t)
		}
		ok, err := check(fmt.Sprintf("discharge[m=%d]", metric), "", m.Ctx.And(goals...), assumptions)
		if err != nil {
			fail(err)
			return
		}
		if !ok {
			// Bisect the stratum to name the violated contract.
			violated := strata[metric][0].con
			for _, ex := range strata[metric] {
				t, err := m.ExportMatches(ex.ext, ex.pin)
				if err != nil {
					fail(err)
					return
				}
				one, err := check(fmt.Sprintf("discharge[m=%d]:%s", metric, ex.con.Session.ID),
					ex.con.Session.ID, t, assumptions)
				if err != nil {
					fail(err)
					return
				}
				if !one {
					violated = ex.con
					break
				}
			}
			cl.residue = "discharge:" + violated.Session.ID
			cl.violated = violated.String()
			return
		}
	}

	if isLengthCheck(plan.Goal.Check) {
		return // composed by metric arithmetic in Run
	}

	// Everything below runs under the full exact environment: every
	// import pinned to its contract.
	var allPins []core.EnvPin
	for _, im := range imports {
		allPins = append(allPins, im.pin)
	}
	pinned, err := m.PinEnv(allPins)
	if err != nil {
		fail(err)
		return
	}
	assumptions := append([]*smt.Term{dst, noFail}, pinned...)

	// Obligations: the goal sources in this component — plus the ingress
	// routers, where neighbor components hand packets in — must reach the
	// destination counting only exits toward valid contracts (each such
	// exit crosses to a component whose own ingress obligation continues
	// the chain; contract metrics strictly decrease across crossings, so
	// the chain ends at an originator that delivers).
	obliged := map[string]bool{}
	switch plan.Goal.Check {
	case "reachability", "reachability-all":
		for _, s := range cp.Srcs {
			obliged[s] = true
		}
	}
	for _, ex := range exports {
		if ex.con.Valid {
			obliged[ex.con.Session.From] = true
		}
	}
	if len(obliged) > 0 {
		allowed := map[string]bool{}
		for _, im := range imports {
			if im.con.Valid {
				allowed[im.ext] = true
			}
		}
		reach := m.ReachVia(m.Main, allowed)
		var names []string
		for r := range obliged {
			names = append(names, r)
		}
		sort.Strings(names)
		var goals []*smt.Term
		for _, r := range names {
			goals = append(goals, reach[r])
		}
		ok, err := check("obligation:"+strings.Join(names, ","), "", m.Ctx.And(goals...), assumptions)
		if err != nil {
			fail(err)
			return
		}
		if !ok {
			cl.residue = "obligation:" + cp.Comp.Routers[0]
			return
		}
	}

	// Per-component property for the whole-network goals; the blackhole /
	// multipath conditions are local to each router's forwarding state,
	// so the component property plus the ingress obligations cover every
	// router of the fabric.
	var prop *smt.Term
	switch plan.Goal.Check {
	case "blackholes":
		prop = properties.NoBlackholes(m)
	case "multipath-consistency":
		prop = properties.MultipathConsistent(m)
	}
	if prop != nil {
		ok, err := check("property:"+plan.Goal.Check, "", prop, assumptions)
		if err != nil {
			fail(err)
			return
		}
		if !ok {
			cl.residue = "property:" + cp.Comp.Routers[0]
			return
		}
	}
}
