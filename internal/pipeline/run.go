package pipeline

import (
	"context"

	"repro/internal/core"
	"repro/internal/modular"
	"repro/internal/obs/cost"
	"repro/internal/obs/stream"
	"repro/internal/tiered"
)

// Mode labels how the modular step of Run ended.
const (
	// ModeModular means the composed component verdict stands.
	ModeModular = "modular"
	// ModeMonolithic means the network is a single component, so there
	// was nothing to compose and the monolithic step answered.
	ModeMonolithic = "monolithic"
	// ModeFallback means residue forced the monolithic step.
	ModeFallback = "fallback"
)

// Options configure Run. One ordering is in use — graph tier, modular
// composition, monolithic solver — so the options only switch steps off
// and carry what the steps need; there is no step interface and no
// strategy tree until a second ordering exists.
type Options struct {
	// Options are the modular step's scheduling knobs. Core configures
	// every encode of every step and carries the observers, which get
	// Run's own phases (fastpath, property) too; a Live model is checked
	// with the options it carries. Core.Tiers switches the graph tier
	// (tiered.ValidateTiers syntax). NoFallback makes the modular step's
	// residue final: Run reports it with a nil Result instead of starting
	// a whole-network solve that may be infeasible.
	modular.Options
	// Modular turns the assume/guarantee step on.
	Modular bool
	// Live, when set, supplies the monolithic step's model in place of a
	// fresh encode of the network: the caller's long-lived model and its
	// incremental session, or its model and a nil session (which is then
	// checked fresh). It is called at most once per Run and only when the
	// goal reaches the monolithic step, so a network answered by the
	// earlier steps never pays the encode.
	Live func() (*core.Model, *core.Session, error)
}

// Verdict is Run's answer and the account of how it was reached: which
// step decided, and the named residue of the steps that could not.
type Verdict struct {
	// Result is the answer. It is nil only when Options.NoFallback left
	// modular residue undecided, and on error.
	Result *core.Result
	// Model is the monolithic model Result was checked on, nil when an
	// earlier step answered and for equivalence; for fault-invariance it
	// is the failure-free copy of the pair. Decoding a counterexample's
	// forwarding state and replaying it in the simulator need it.
	Model *core.Model
	// Difference says where the two routers of a falsified equivalence
	// goal diverge; that verdict has no counterexample.
	Difference string
	// GraphResidue is the reason the graph tier handed the goal down
	// (tiered.Outcome.Reason); "" when the tier was off or decided.
	GraphResidue string
	// Mode names how the modular step ended (ModeModular, ModeMonolithic,
	// ModeFallback); "" when the step was off or not reached.
	Mode string
	// Residue names why the modular step handed the goal down: the cut's,
	// the contracts' and the goal's static rules, "discharge:<session>",
	// "obligation:<router>", "property:<router>", "error: ...", or
	// "single-component". Violated names the interface contract a failed
	// discharge blamed, when there is one.
	Residue  []string
	Violated string
	// Modular carries the component-level detail of the modular run (nil
	// when the network was a single component or the run errored).
	Modular *modular.Report
}

// Run answers a goal on a network. It is a plain function with three
// steps tried in a fixed order, cheapest first; each returns a verdict
// or named residue, and residue is all the next step inherits:
//
//  1. the graph tier (unless Options.Core.Tiers disables it) decides the
//     goal from the network's cached analysis or names why it cannot;
//  2. the modular composition (with Options.Modular) verifies the
//     components of the network's cached cut against interface contracts
//     and composes a verified verdict, or names residue — it never
//     falsifies;
//  3. the monolithic step builds the goal's Property on a model of the
//     whole network — a fresh one, or the caller's (Options.Live) — and
//     checks it; the pair goals (equivalence, fault-invariance) build a
//     model of their own instead.
//
// Run's own phases (fastpath, property) are charged to one goal ledger;
// whichever step answers, its result's ledger is merged in behind them
// (and a modular run that ended in residue under a "modular" node, its
// checks folded into the Stats), and the result's times are read from
// the whole, so a verdict prices everything Run did for it under the
// same names on every tier.
//
// On error the returned Verdict still carries the residue of the steps
// that ran. Run calls that share a Live session must be serialized by
// the caller; the network's caches are safe to share.
func Run(ctx context.Context, net *Network, goal tiered.Goal, opts Options) (*Verdict, error) {
	v := &Verdict{}
	ledger := cost.New("goal")
	answer := func(res *core.Result) {
		ledger.Merge(res.Cost)
		res.Cost = ledger
		res.FillTimes()
		v.Result = res
	}
	tiersOn := tiered.Enabled(opts.Core.Tiers)
	if tiersOn {
		// The analysis is the network's, cached across goals: building it
		// is not part of deciding this one.
		a := net.Analysis()
		ph := cost.Open(opts.Core.Span, ledger, opts.Core.OnEvent)
		sp := ph.Begin("fastpath")
		out := a.Decide(goal)
		sp.SetStr("reason", out.Reason)
		ph.End(cost.Work{})
		if out.Decided {
			v.Result = tiered.Synthesize(out, ledger, opts.Core.Blame)
			return v, nil
		}
		v.GraphResidue = out.Reason
	}

	if opts.Modular {
		if err := compose(ctx, net, goal, opts, v); err != nil {
			return v, err
		}
		if v.Result != nil {
			answer(v.Result)
			return v, nil
		}
		if v.Mode == ModeFallback && opts.NoFallback {
			return v, nil
		}
	}

	if err := ctx.Err(); err != nil {
		return v, err
	}
	res, err := monolithic(ctx, net, goal, opts, ledger, v)
	if err != nil {
		return v, err
	}
	if tiersOn {
		res.Tier = tiered.TierSAT
	}
	if v.Modular != nil && v.Modular.Result != nil {
		// The modular run's checks ran before its residue handed the goal
		// down: the verdict pays for them too.
		ledger.Child("modular").Merge(v.Modular.Result.Cost)
		res.Stats = res.Stats.Plus(v.Modular.Result.Stats)
	}
	answer(res)
	return v, nil
}

// compose is the modular step. It fills in v.Mode and either v.Result
// (the composed verdict stands) or v.Residue. A context error is
// returned as it is: a timed-out component check times the query out, it
// never degrades into a verdict from partial components.
func compose(ctx context.Context, net *Network, goal tiered.Goal, opts Options, v *Verdict) error {
	cut := net.Cut()
	if !cut.MultiComponent() {
		v.Mode, v.Residue = ModeMonolithic, []string{"single-component"}
		return nil
	}
	// The modular span prices the whole run.
	plan := modular.NewPlan(net.Graph, cut, goal)
	sp := opts.Core.Span.Start("modular")
	sp.SetInt("components", int64(len(plan.Comps)))
	rep, err := modular.Run(ctx, net.Graph, plan, opts.Options)
	sp.End()
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		// A component-level runtime error is residue, not a failure: the
		// monolithic step still owns the answer.
		if opts.Core.OnEvent != nil {
			opts.Core.OnEvent(stream.EventModularResidue, map[string]any{"error": err.Error()})
		}
		v.Mode, v.Residue = ModeFallback, []string{"error: " + err.Error()}
		return nil
	}
	v.Modular = rep
	if len(rep.Residue) > 0 {
		v.Mode, v.Residue, v.Violated = ModeFallback, rep.Residue, rep.Violated
		return nil
	}
	v.Mode, v.Result = ModeModular, rep.Result
	return nil
}

// monolithic is the last step: the goal's property checked on a model of
// the whole network, fresh or live, which it leaves on v.Model. Building
// the property is a phase of the goal's ledger; the check opens its own.
func monolithic(ctx context.Context, net *Network, goal tiered.Goal, opts Options, ledger *cost.Node, v *Verdict) (*core.Result, error) {
	switch goal.Check {
	case "equivalence":
		return equivalence(ctx, net, goal, opts, ledger, v)
	case "fault-invariance":
		return faultInvariance(ctx, net, goal, opts, ledger, v)
	}
	var m *core.Model
	var sess *core.Session
	var err error
	if opts.Live != nil {
		m, sess, err = opts.Live()
	} else {
		m, err = core.Encode(net.Graph, opts.Core)
	}
	if err != nil {
		return nil, err
	}
	ph := cost.Open(opts.Core.Span, ledger, opts.Core.OnEvent)
	ph.Begin("property")
	prop, assumptions, err := Property(m, goal)
	ph.End(cost.Work{})
	if err != nil {
		return nil, err
	}
	v.Model = m
	if sess != nil {
		return sess.CheckContext(ctx, prop, assumptions...)
	}
	return m.CheckGoal(ctx, nil, prop, assumptions...)
}

// equivalence answers §5 local equivalence of the goal's two routers
// with core's structural sweep. The sweep's many small solver queries
// are one solve phase of the goal's ledger, charged their summed work;
// the Result carries their summed counts and, when they were certified,
// their summed certificate. A falsified verdict carries v.Difference and
// no counterexample.
func equivalence(ctx context.Context, net *Network, goal tiered.Goal, opts Options, ledger *cost.Node, v *Verdict) (*core.Result, error) {
	if len(goal.Srcs) != 2 {
		return nil, requestErrorf("pipeline: check %q requires two routers", goal.Check)
	}
	if err := knownRouters(net.Graph, goal.Srcs); err != nil {
		return nil, err
	}
	ph := cost.Open(opts.Core.Span, ledger, opts.Core.OnEvent)
	ph.Begin("solve")
	eq, err := core.CheckLocalEquivalenceContext(ctx, net.Graph, goal.Srcs[0], goal.Srcs[1], opts.Core)
	if err != nil {
		ph.End(cost.Work{})
		return nil, err
	}
	ph.End(cost.FromStats(eq.Stats))
	v.Difference = eq.Difference
	return &core.Result{Verified: eq.Equivalent, Stats: eq.Stats, SATVars: eq.SATVars, SATClauses: eq.SATClauses,
		Certificate: eq.Certificate}, nil
}

// faultInvariance answers the §8.1 fault-invariance question: does every
// router's reachability survive any goal.MaxFailures link failures? The
// property is core's, over a failure-free and a failing copy of the
// network with linked environments. Environment-induced changes are the
// hijack property's business, so the announcements are held silent. Under
// no failures the copies agree by construction: that goal is refused.
func faultInvariance(ctx context.Context, net *Network, goal tiered.Goal, opts Options, ledger *cost.Node, v *Verdict) (*core.Result, error) {
	if goal.MaxFailures < 1 {
		return nil, requestErrorf("pipeline: check %q requires max_failures >= 1, got %d", goal.Check, goal.MaxFailures)
	}
	pair, prop, err := core.FaultInvariance(net.Graph, opts.Core, goal.MaxFailures)
	if err != nil {
		return nil, err
	}
	ph := cost.Open(opts.Core.Span, ledger, opts.Core.OnEvent)
	ph.Begin("property")
	silent := pair.Ctx.True()
	for _, e := range net.Graph.Topo.Externals {
		silent = pair.Ctx.And(silent, pair.Ctx.Not(pair.A.Main.Env[e.Name].Valid))
	}
	ph.End(cost.Work{})
	v.Model = pair.A
	return pair.Check(ctx, prop, silent)
}
