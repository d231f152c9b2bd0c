package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/network"
	"repro/internal/obs/cost"
	"repro/internal/sat"
	"repro/internal/simulator"
	"repro/internal/smt"
	"repro/internal/smt/passes"
)

// The witness probe (DESIGN §22). Before a fresh check blasts its
// system, it simulates the network under the empty environment for one
// destination of the query, pins that stable state into a separate small
// system — the check's pruned asserts and goals plus var = const for the
// packet, the environment and each router's per-protocol best records —
// and solves that on its own solver under probeConflictCap. A model of
// system ∧ goals ∧ pins is a model of system ∧ goals, so a SAT probe
// answers the check falsified; an UNSAT, capped or failed probe is
// discarded and the check runs as it would have without it. The probe
// never answers verified and never touches the check's solver.

// probeConflictCap bounds the probe's search. A pinned state is found in
// tens of conflicts when it violates the goals and refuted in tens when
// it does not (pods-4 fabric: 15 and 0–30); the cap only stops a probe
// whose pins left the search wide open from costing what the check
// itself would.
const probeConflictCap = 1000

// Probe outcomes, as Result.Probe and the probe span report them. A
// probe that could not run reports "skipped:" and a reason.
const (
	ProbeAnswered = "answered" // the pinned system had a model: falsified
	ProbeRefuted  = "refuted"  // the pins contradict system ∧ goals
	ProbeCapped   = "capped"   // the search hit probeConflictCap
)

// probeScope returns the assumptions that read nothing but the packet's
// destination, as properties.DstIn does: the ones that restrict the query
// to some destinations. A query without one asks about the whole
// destination space and runs no probe; so does a model with the probe
// withheld (a test seam, export_test.go) or with origin profiling on,
// whose profile exists to attribute the search.
func (m *Model) probeScope(assumptions []*smt.Term) []*smt.Term {
	if m.probeOff || m.Opts.ProfileOrigins {
		return nil
	}
	var scoped []*smt.Term
	for _, a := range assumptions {
		if readsOnly(a, m.DstIP) {
			scoped = append(scoped, a)
		}
	}
	return scoped
}

// readsOnly reports whether v is the only variable under t.
func readsOnly(t, v *smt.Term) bool {
	seen := map[int32]bool{}
	found := false
	var walk func(t *smt.Term) bool
	walk = func(t *smt.Term) bool {
		if seen[t.ID()] {
			return true
		}
		seen[t.ID()] = true
		switch op := t.Op(); {
		case t == v:
			found = true
			return true
		case op == smt.OpBoolVar || op == smt.OpBVVar:
			return false
		}
		for _, k := range t.Kids() {
			if !walk(k) {
				return false
			}
		}
		return true
	}
	return walk(t) && found
}

// probeDst picks the probe's destination: among the first addresses of
// the configured prefixes and the constants the scoped assumptions
// compare the destination with, the one every scoped assumption admits
// that lies in the most specific configured prefix (the lowest address
// on a tie). It reports false when the assumptions admit none of them.
func (m *Model) probeDst(scoped []*smt.Term) (network.IP, bool) {
	var prefixes []network.Prefix
	for _, n := range m.G.Topo.Nodes {
		cfg := m.G.Configs[n.Name]
		for _, i := range cfg.Interfaces {
			prefixes = append(prefixes, i.Prefix)
		}
		for _, st := range cfg.Statics {
			prefixes = append(prefixes, st.Prefix)
		}
		if cfg.BGP != nil {
			prefixes = append(prefixes, cfg.BGP.Networks...)
			for _, agg := range cfg.BGP.Aggregates {
				prefixes = append(prefixes, agg.Prefix)
			}
		}
	}
	cands := make([]network.IP, 0, len(prefixes))
	for _, p := range prefixes {
		cands = append(cands, p.First())
	}
	for _, a := range scoped {
		cands = appendConsts(cands, a, m.DstIP.Width())
	}
	best, bestLen := network.IP(0), -2
	for _, dst := range cands {
		ev := smt.NewEvaluator(smt.Assignment{m.DstIP.Name(): {BV: uint64(dst)}})
		admitted := true
		for _, a := range scoped {
			if !ev.Eval(a).Bool {
				admitted = false
				break
			}
		}
		if !admitted {
			continue
		}
		l := -1
		for _, p := range prefixes {
			if p.Len > l && p.Contains(dst) {
				l = p.Len
			}
		}
		if l > bestLen || (l == bestLen && dst < best) {
			best, bestLen = dst, l
		}
	}
	return best, bestLen > -2
}

// appendConsts appends the bitvector constants of the given width under t.
func appendConsts(out []network.IP, t *smt.Term, width int) []network.IP {
	if t.Op() == smt.OpBVConst && t.Width() == width {
		return append(out, network.IP(t.Const()))
	}
	for _, k := range t.Kids() {
		out = appendConsts(out, k, width)
	}
	return out
}

// probePins states the simulated stable state as constraints: the
// packet, the environment and the failures PinEnvironment fixes, then
// var = const for every field of a router's per-protocol best record
// that is a variable of the encoding — valid, and for a valid record
// prefix length, AD, local preference and metric. Fields the encoding
// computes rather than allocates stay free.
func (m *Model) probePins(dst network.IP, env *simulator.Environment, st *simulator.Result) []*smt.Term {
	c := m.Ctx
	pins := m.PinEnvironment(dst, env)
	pin := func(field *smt.Term, v uint64) {
		switch field.Op() {
		case smt.OpBoolVar:
			if v != 0 {
				pins = append(pins, field)
			} else {
				pins = append(pins, c.Not(field))
			}
		case smt.OpBVVar:
			pins = append(pins, c.Eq(field, c.BV(v, field.Width())))
		}
	}
	for _, n := range m.G.Topo.Nodes {
		rs := st.States[n.Name]
		for _, p := range m.G.Configs[n.Name].Protocols() {
			rec := m.Main.BestProto[n.Name][p]
			if rec == nil || rs == nil {
				continue
			}
			sim, ok := rs.PerProto[p]
			if !ok || !sim.Valid {
				pin(rec.Valid, 0)
				continue
			}
			pin(rec.Valid, 1)
			pin(rec.PrefixLen, uint64(sim.PrefixLen))
			pin(rec.AD, uint64(sim.AD))
			pin(rec.LocalPref, uint64(sim.LocalPref))
			pin(rec.Metric, uint64(sim.Metric))
		}
	}
	return pins
}

// inCone keeps the pins whose variables all occur in the system: a pin
// on a variable the cone-of-influence pass pruned constrains nothing the
// check asks about, and would only grow the probe.
func inCone(sys *passes.System, pins []*smt.Term) []*smt.Term {
	seen := make([]bool, sys.Ctx.NumTerms())
	var mark func(t *smt.Term)
	mark = func(t *smt.Term) {
		if seen[t.ID()] {
			return
		}
		seen[t.ID()] = true
		for _, k := range t.Kids() {
			mark(k)
		}
	}
	for _, a := range sys.Asserts {
		mark(a)
	}
	for _, g := range sys.Goals {
		mark(g)
	}
	var within func(t *smt.Term) bool
	within = func(t *smt.Term) bool {
		if op := t.Op(); op == smt.OpBoolVar || op == smt.OpBVVar {
			return int(t.ID()) < len(seen) && seen[t.ID()]
		}
		for _, k := range t.Kids() {
			if !within(k) {
				return false
			}
		}
		return true
	}
	kept := pins[:0:0]
	for _, p := range pins {
		if within(p) {
			kept = append(kept, p)
		}
	}
	return kept
}

// simulate is the probe's stable state: the simulator's, unless a test
// replaced it (export_test.go).
func (m *Model) simulate(dst network.IP, env *simulator.Environment) (*simulator.Result, error) {
	if m.probeSim != nil {
		return m.probeSim(dst, env)
	}
	return simulator.New(m.G).Run(dst, env)
}

// probe is the check's probe phase over sys, the system compile left to
// blast, for a query scoped by the given assumptions. It returns the
// model of a probe that answered, or nil to let the check search as it
// would have, with the probe's solver counts; res gets the outcome, and
// the formula's size when the probe answered. The only error is ctx's: a
// canceled probe ends the check like any phase.
func (x *executor) probe(ctx context.Context, sys *passes.System, scoped []*smt.Term, res *Result) (asg smt.Assignment, stats sat.Stats, err error) {
	sp := x.Begin("probe")
	var sol *smt.Solver
	defer func() {
		if r := recover(); r != nil {
			asg, err, res.Probe = nil, nil, fmt.Sprint("skipped:panic: ", r)
		}
		if err != nil {
			res.Probe = "canceled"
		}
		var work cost.Work
		if sol != nil {
			work, stats = solverWork(sol), sol.SAT().Stats
		}
		sp.SetStr("outcome", res.Probe)
		x.End(work)
	}()
	m := x.m
	dst, ok := m.probeDst(scoped)
	if !ok {
		res.Probe = "skipped:no-destination"
		return nil, stats, nil
	}
	sp.SetStr("dst", dst.String())
	env := simulator.NewEnvironment()
	state, err := m.simulate(dst, env)
	if err != nil {
		res.Probe = "skipped:simulator: " + err.Error()
		return nil, stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	pins := inCone(sys, m.probePins(dst, env, state))
	sp.SetInt("pins", int64(len(pins)))
	// Propagate rewrites the slices it is handed: the check's own system
	// stays as compile left it.
	psys := &passes.System{
		Ctx:     m.Ctx,
		Asserts: append(append(make([]*smt.Term, 0, len(pins)+len(sys.Asserts)), pins...), sys.Asserts...),
		Goals:   append([]*smt.Term(nil), sys.Goals...),
	}
	ps := passes.Propagate(psys, sp)
	// The goals lead, then the pins (the first asserts): the solver
	// propagates each unit as it is added, so a refuted probe usually
	// stops blasting early.
	sol = smt.NewSolver(m.Ctx)
	sol.Reserve(ps.TermsAfter)
	st := sol.SAT()
	for _, t := range append(psys.Goals, psys.Asserts...) {
		if !st.Okay() {
			break
		}
		sol.Assert(t)
	}
	vars, clauses := st.NumVars(), st.NumClauses()
	st.MaxConflicts = probeConflictCap
	status, err := solve(ctx, st, nil, sat.Stats{})
	switch {
	case err != nil && errors.Is(err, ctx.Err()):
		return nil, stats, err
	case err != nil:
		res.Probe = ProbeCapped
		return nil, stats, nil
	case status == sat.Unsat:
		res.Probe = ProbeRefuted
		return nil, stats, nil
	}
	res.Probe = ProbeAnswered
	res.SATVars, res.SATClauses = vars, clauses
	return sol.Model(), stats, nil
}
