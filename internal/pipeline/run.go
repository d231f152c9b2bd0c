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
	// every encode of every step (passes, certification, blame, parent
	// span); Core.Tiers switches the graph tier
	// (tiered.ValidateTiers syntax). OnEvent is additionally the sink of
	// Run's own phases (fastpath, property); the phases of the monolithic
	// check go to its model's OnEvent, which a Live caller routes to the
	// same place. NoFallback makes the modular step's residue final:
	// Run reports it with a nil Result instead of starting a
	// whole-network solve that may be infeasible.
	modular.Options
	// Modular turns the assume/guarantee step on.
	Modular bool
	// Live, when set, supplies the monolithic step's model in place of a
	// fresh encode of the network: the caller's long-lived model and its
	// incremental session, or a model the caller wired hooks into and a
	// nil session (which is then checked fresh). It is called at most once
	// per Run and only when the goal reaches the monolithic step, so a
	// network answered by the earlier steps never pays the encode.
	Live func() (*core.Model, *core.Session, error)
}

// Verdict is Run's answer and the account of how it was reached: which
// step decided, and the named residue of the steps that could not.
type Verdict struct {
	// Result is the answer. It is nil only when Options.NoFallback left
	// modular residue undecided, and on error.
	Result *core.Result
	// Model is the monolithic model Result was checked on, nil when an
	// earlier step answered. Decoding a counterexample's forwarding state
	// and replaying it in the simulator need it.
	Model *core.Model
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
//     checks it.
//
// Run's own phases (fastpath, property) are charged to one goal ledger;
// whichever step answers, its result's ledger is merged in behind them
// and the result's times are read from the whole, so a verdict prices
// everything Run did for it under the same names on every tier.
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
		ph := cost.Open(opts.Core.Span, ledger, opts.OnEvent)
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
	res, m, err := monolithic(ctx, net, goal, opts, ledger)
	if err != nil {
		return v, err
	}
	if tiersOn {
		res.Tier = tiered.TierSAT
	}
	v.Model = m
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
	mopts := opts.Options
	// Component checks run concurrently and the span tree is
	// single-writer: the modular span prices the whole run.
	mopts.Core.Span = nil
	plan := modular.NewPlan(net.Graph, cut, goal)
	sp := opts.Core.Span.Start("modular")
	sp.SetInt("components", int64(len(plan.Comps)))
	rep, err := modular.Run(ctx, net.Graph, plan, mopts)
	sp.End()
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		// A component-level runtime error is residue, not a failure: the
		// monolithic step still owns the answer.
		if opts.OnEvent != nil {
			opts.OnEvent(stream.EventModularResidue, map[string]any{"error": err.Error()})
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
// the whole network, fresh or live. Building the property is a phase of
// the goal's ledger; the check opens its own.
func monolithic(ctx context.Context, net *Network, goal tiered.Goal, opts Options, ledger *cost.Node) (*core.Result, *core.Model, error) {
	var m *core.Model
	var sess *core.Session
	var err error
	if opts.Live != nil {
		m, sess, err = opts.Live()
	} else {
		m, err = core.Encode(net.Graph, opts.Core)
	}
	if err != nil {
		return nil, nil, err
	}
	ph := cost.Open(opts.Core.Span, ledger, opts.OnEvent)
	ph.Begin("property")
	prop, assumptions, err := Property(m, goal)
	ph.End(cost.Work{})
	if err != nil {
		return nil, nil, err
	}
	var res *core.Result
	if sess != nil {
		res, err = sess.CheckContext(ctx, prop, assumptions...)
	} else {
		res, err = m.CheckContext(ctx, prop, assumptions...)
	}
	return res, m, err
}
