package pipeline

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/modular"
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
	// every encode of every step (passes, certification, blame, parallel
	// strategy, parent span); Core.Tiers switches the graph tier
	// (tiered.ValidateTiers syntax). OnEvent additionally receives Run's
	// own phase events. NoFallback makes the modular step's residue final:
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

func (o Options) emit(event string, fields map[string]any) {
	if o.OnEvent != nil {
		o.OnEvent(event, fields)
	}
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
// On error the returned Verdict still carries the residue of the steps
// that ran. Run calls that share a Live session must be serialized by
// the caller; the network's caches are safe to share.
func Run(ctx context.Context, net *Network, goal tiered.Goal, opts Options) (*Verdict, error) {
	v := &Verdict{}
	tiersOn := tiered.Enabled(opts.Core.Tiers)
	var fastElapsed time.Duration
	if tiersOn {
		opts.emit(stream.EventPhaseStart, map[string]any{"phase": "fastpath"})
		sp := opts.Core.Span.Start("fastpath")
		a := net.Analysis()
		start := time.Now()
		out := a.Decide(goal)
		fastElapsed = time.Since(start)
		sp.SetStr("reason", out.Reason)
		sp.End()
		opts.emit(stream.EventPhaseEnd, map[string]any{
			"phase": "fastpath", "ok": true, "decided": out.Decided, "reason": out.Reason,
		})
		if out.Decided {
			v.Result = tiered.Synthesize(out, fastElapsed, opts.Core.Blame)
			return v, nil
		}
		v.GraphResidue = out.Reason
	}

	if opts.Modular {
		if err := compose(ctx, net, goal, opts, v); err != nil {
			return v, err
		}
		if v.Result != nil || (v.Mode == ModeFallback && opts.NoFallback) {
			return v, nil
		}
	}

	if err := ctx.Err(); err != nil {
		return v, err
	}
	var err error
	if v.Result, v.Model, err = monolithic(ctx, net, goal, opts); err != nil {
		return v, err
	}
	if tiersOn {
		v.Result.Tier = tiered.TierSAT
		v.Result.FastPathElapsed = fastElapsed
	}
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
		opts.emit(stream.EventModularResidue, map[string]any{"error": err.Error()})
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
// the whole network, fresh or live.
func monolithic(ctx context.Context, net *Network, goal tiered.Goal, opts Options) (*core.Result, *core.Model, error) {
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
	opts.emit(stream.EventPhaseStart, map[string]any{"phase": "property"})
	prop, assumptions, err := Property(m, goal)
	opts.emit(stream.EventPhaseEnd, map[string]any{"phase": "property", "ok": err == nil})
	if err != nil {
		return nil, nil, err
	}
	opts.emit(stream.EventPhaseStart, map[string]any{"phase": "solve"})
	var res *core.Result
	if sess != nil {
		res, err = sess.CheckContext(ctx, prop, assumptions...)
	} else {
		res, err = m.CheckContext(ctx, prop, assumptions...)
	}
	end := map[string]any{"phase": "solve", "ok": err == nil}
	if err == nil && res.Cost != nil {
		w := res.Cost.Total()
		end["units"], end["conflicts"], end["db_bytes"] = w.Units(), w.Conflicts, w.ClauseDBBytes
	}
	opts.emit(stream.EventPhaseEnd, end)
	return res, m, err
}
