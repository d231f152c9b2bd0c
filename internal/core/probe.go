package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/obs/cost"
	"repro/internal/sat"
	"repro/internal/simulator"
	"repro/internal/smt"
	"repro/internal/smt/passes"
)

// The witness probe (DESIGN §22). A fresh check whose goals survive
// their own solver tries concrete answers before it blasts its system:
// for each destination it picks (probeDsts), it simulates the network
// under the silent environment and then, when there are external peers,
// under an announcing one in which every peer announces the destination
// as a /32 at path length 1. Each stable state is pinned into a separate
// small system — the check's pruned asserts and goals plus var = const
// for the packet, the environment and each router's per-protocol best
// records — solved on a solver of its own under probeConflictCap. A model
// of system ∧ goals ∧ pins is a model of system ∧ goals, so the first
// pinned system with a model answers the check falsified; an UNSAT,
// capped or failed try is discarded, and when none answers the check runs
// as it would have without the probe. The probe never answers verified
// and never touches the check's solver.

// probeConflictCap bounds each try's search. A pinned state is found in
// tens of conflicts when it violates the goals and refuted in tens when
// it does not (pods-4 fabric: 15 and 0–30); the cap only stops a try
// whose pins left the search wide open from costing what the check
// itself would.
const probeConflictCap = 1000

// Probe outcomes, as Result.Probe and the probe span report them: the
// check's is the strongest of its tries' (answered, then capped, then
// refuted). A try that could not run reports "skipped:" and a reason,
// and the check reports the first of those when no try ran.
const (
	ProbeAnswered = "answered" // the pinned system had a model: falsified
	ProbeRefuted  = "refuted"  // the pins contradict system ∧ goals
	ProbeCapped   = "capped"   // the search hit probeConflictCap
	// probeUnchanged is an announcing try whose announcements changed no
	// pinned route of the silent try at its destination: it is not
	// solved.
	probeUnchanged = "skipped:unchanged"
)

// probeDsts returns the destinations the probe tries, and whether the
// check probes at all. A query with assumptions that read nothing but
// the packet's destination (properties.DstIn: the ones that restrict it
// to some destinations) tries probeDst's pick, or opens a probe that
// finds none. A query over the whole destination space tries every
// destination the configuration itself discards, and probes only when
// there is one: the first address of each ACL deny entry's destination,
// then of each null route (config.Router.Discards), each once. A pair
// model's goals read two copies of the network, which one simulation
// does not pin, so a whole-space pair query does not probe; nor does a
// model with the probe withheld (a test seam, export_test.go) or with
// origin profiling on, whose profile exists to attribute the search.
func (m *Model) probeDsts(assumptions []*smt.Term) ([]network.IP, bool) {
	if m.probeOff || m.Opts.ProfileOrigins {
		return nil, false
	}
	var scoped []*smt.Term
	for _, a := range assumptions {
		if readsOnly(a, m.DstIP) {
			scoped = append(scoped, a)
		}
	}
	if len(scoped) > 0 {
		if dst, ok := m.probeDst(scoped); ok {
			return []network.IP{dst}, true
		}
		return nil, true
	}
	if m.prefix != "" {
		return nil, false
	}
	var filtered, nulled []network.Prefix
	for _, n := range m.G.Topo.Nodes {
		f, nl := m.G.Configs[n.Name].Discards()
		filtered, nulled = append(filtered, f...), append(nulled, nl...)
	}
	var dsts []network.IP
	seen := map[network.IP]bool{}
	for _, p := range append(filtered, nulled...) {
		if dst := p.First(); !seen[dst] {
			seen[dst] = true
			dsts = append(dsts, dst)
		}
	}
	return dsts, len(dsts) > 0
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

// routePins states a simulated stable state's routes as constraints:
// var = const for every field of a router's per-protocol best record
// that is a variable of the encoding — valid, and for a valid record
// prefix length, AD, local preference and metric. Fields the encoding
// computes rather than allocates stay free. The packet, the environment
// and the failures are PinEnvironment's.
func (m *Model) routePins(st *simulator.Result) []*smt.Term {
	c := m.Ctx
	var pins []*smt.Term
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

// coneOf marks, by term id, every term under the system's asserts and
// goals: the cone a probe's pins must stay within.
func coneOf(sys *passes.System) []bool {
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
	return seen
}

// inCone keeps the pins whose variables all lie in the cone: a pin on a
// variable the cone-of-influence pass pruned constrains nothing the
// check asks about, and would only grow the probe.
func inCone(cone []bool, pins []*smt.Term) []*smt.Term {
	var within func(t *smt.Term) bool
	within = func(t *smt.Term) bool {
		if op := t.Op(); op == smt.OpBoolVar || op == smt.OpBVVar {
			return int(t.ID()) < len(cone) && cone[t.ID()]
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
// blast, trying each of dsts under the silent and then the announcing
// environment. It returns the model of the first try that answered, or
// nil to let the check blast and search as it would have, with the
// tries' solver counts; res gets the outcome, and the formula's size
// when the probe answered. goals is the work of the goals' solver, which
// the blast phase carries when the system is blasted; an answered probe
// ends the check's solver work, so it carries them instead. The phase's
// work is the sum of its tries', and its span names each try. The only
// error is ctx's: a canceled probe ends the check like any phase.
func (x *executor) probe(ctx context.Context, sys *passes.System, dsts []network.IP, goals cost.Work, res *Result) (asg smt.Assignment, stats sat.Stats, err error) {
	sp := x.Begin("probe")
	var work cost.Work
	var tries []string
	defer func() {
		if r := recover(); r != nil {
			asg, err, res.Probe = nil, nil, fmt.Sprint("skipped:panic: ", r)
		}
		if err != nil {
			res.Probe = "canceled"
		}
		if asg != nil {
			work = work.Plus(goals)
		}
		sp.SetStr("tries", strings.Join(tries, "; "))
		sp.SetStr("outcome", res.Probe)
		x.End(work)
	}()
	if len(dsts) == 0 {
		res.Probe = "skipped:no-destination"
		return nil, stats, nil
	}
	m := x.m
	cone := coneOf(sys)
	for _, dst := range dsts {
		var silent []*smt.Term // the silent try's route pins
		for _, announcing := range []bool{false, true} {
			t := probeTry{dst: dst, env: simulator.NewEnvironment(), silent: silent}
			if announcing {
				if len(m.G.Topo.Externals) == 0 {
					break
				}
				for _, e := range m.G.Topo.Externals {
					t.env.Announce(e.Name, simulator.Announcement{Prefix: network.Prefix{Addr: dst, Len: 32}, PathLen: 1})
				}
			}
			if err := x.try(ctx, sp, sys, cone, &t); err != nil {
				return nil, stats, err
			}
			work, stats = work.Plus(t.work), stats.Plus(t.stats)
			name := "silent"
			if announcing {
				name = "announcing"
			}
			tries = append(tries, fmt.Sprintf("%v %s %s", dst, name, t.outcome))
			if res.Probe == "" || probeRank(t.outcome) > probeRank(res.Probe) {
				res.Probe = t.outcome
			}
			if t.model != nil {
				res.SATVars, res.SATClauses = t.vars, t.clauses
				return t.model, stats, nil
			}
			silent = t.routes
		}
	}
	return nil, stats, nil
}

// probeRank orders outcomes by what they say of the check: an answer,
// then a search the cap cut short, then a refutation, then a try that
// did not run.
func probeRank(outcome string) int {
	switch outcome {
	case ProbeAnswered:
		return 3
	case ProbeCapped:
		return 2
	case ProbeRefuted:
		return 1
	}
	return 0
}

// probeTry is one pinned system of the probe: a destination under an
// environment, and what solving it gave.
type probeTry struct {
	dst network.IP
	env *simulator.Environment
	// silent is the silent try's route pins at the same destination when
	// this is an announcing try that follows one, else nil.
	silent []*smt.Term

	outcome string
	routes  []*smt.Term // the simulated state's route pins in the cone
	model   smt.Assignment
	// vars and clauses size the pinned formula when it had a model.
	vars, clauses int
	stats         sat.Stats
	work          cost.Work
}

// try simulates t's destination under its environment, pins that state
// within the cone of sys and solves the pinned system, filling in t; its
// term pass is a child of sp, the probe's span. The only error is ctx's.
func (x *executor) try(ctx context.Context, sp *obs.Span, sys *passes.System, cone []bool, t *probeTry) error {
	m := x.m
	state, err := m.simulate(t.dst, t.env)
	if err != nil {
		t.outcome = "skipped:simulator: " + err.Error()
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t.routes = inCone(cone, m.routePins(state))
	if t.silent != nil && slices.Equal(t.routes, t.silent) {
		t.outcome = probeUnchanged
		return nil
	}
	pins := append(inCone(cone, m.PinEnvironment(t.dst, t.env)), t.routes...)
	// Propagate rewrites the slices it is handed: the check's own system
	// stays as compile left it.
	psys := &passes.System{
		Ctx:     m.Ctx,
		Asserts: append(append(make([]*smt.Term, 0, len(pins)+len(sys.Asserts)), pins...), sys.Asserts...),
		Goals:   append([]*smt.Term(nil), sys.Goals...),
	}
	ps := passes.Propagate(psys, sp)
	// The goals lead, then the pins (the first asserts, which Propagate
	// keeps verbatim): the solver propagates each unit as it is added, so
	// a refuted try usually stops blasting early, and only a try whose
	// goals and pins survived sizes its solver for the rest.
	sol := smt.NewSolver(m.Ctx)
	st := sol.SAT()
	for _, g := range psys.Goals {
		if !st.Okay() {
			break
		}
		sol.Assert(g)
	}
	for i, a := range psys.Asserts {
		if !st.Okay() {
			break
		}
		if i == len(pins) {
			sol.Reserve(ps.TermsAfter)
		}
		sol.Assert(a)
	}
	vars, clauses := st.NumVars(), st.NumClauses()
	st.MaxConflicts = probeConflictCap
	status, err := solve(ctx, st, nil, sat.Stats{})
	t.stats, t.work = st.Stats, solverWork(sol)
	switch {
	case err != nil && errors.Is(err, ctx.Err()):
		return err
	case err != nil:
		t.outcome = ProbeCapped
	case status == sat.Unsat:
		t.outcome = ProbeRefuted
	default:
		t.outcome = ProbeAnswered
		t.model, t.vars, t.clauses = sol.Model(), vars, clauses
	}
	return nil
}
