package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/obs/cost"
	"repro/internal/provenance"
	"repro/internal/sat"
	"repro/internal/sat/drat"
	"repro/internal/simulator"
	"repro/internal/smt"
	"repro/internal/smt/passes"
)

// Counterexample is a concrete stable state violating a property: the
// packet, the environment (announcements and failures) and the decoded
// variable assignment. It can be replayed in the simulator.
type Counterexample struct {
	Assignment smt.Assignment
	Packet     config.Packet
	Env        *simulator.Environment
}

// Result is the outcome of one verification query.
type Result struct {
	// Verified is true when no stable state violates the property
	// (the formula N ∧ ¬P is unsatisfiable).
	Verified bool
	// Counterexample is set when Verified is false.
	Counterexample *Counterexample
	// The times below are read from Cost by FillTimes, never measured on
	// their own: each is the wall time of the ledger phase it names, and
	// Elapsed is their sum — encode + simplify + probe + solve + certify
	// + fast path — on every tier.
	Elapsed time.Duration
	// EncodeElapsed is the Tseitin CNF conversion and bit-blasting time
	// (phase "blast"). SimplifyElapsed covers everything that shrinks the
	// formula before the search: the term-level passes of phase "compile"
	// (the compile passes only when this query actually ran them rather
	// than reusing a cached CompiledNetwork, and goal-relative
	// cone-of-influence pruning) plus the top-level CNF simplification of
	// phase "simplify". SolveElapsed is the CDCL search (phase "solve").
	EncodeElapsed   time.Duration
	SimplifyElapsed time.Duration
	SolveElapsed    time.Duration
	// Probe is the witness probe's outcome on a fresh check whose goals
	// survived their own solver (DESIGN §22): "answered" when a pinned
	// simulated state violated the goals and the check answered falsified
	// from it, with no blast and no search; "refuted" or "capped" when the
	// check then searched as without it; "skipped:<reason>" when no try
	// could run. Empty when no probe ran. ProbeElapsed is its phase,
	// "probe", and its tries' solver work is part of Stats.
	Probe        string
	ProbeElapsed time.Duration
	// PassStats itemizes SimplifyElapsed per pass, in execution order:
	// the compile passes charged to this query (if any), then "coi", then
	// a final "cnf-simplify" row whose Elapsed is the CNF simplification
	// time (its term/var columns are zero — it operates below the term
	// level).
	PassStats []passes.Stats
	// Formula/solver statistics for the performance experiments.
	// SATVars/SATClauses measure the blasted encoding before
	// simplification — the probe's when the probe answered. Stats is the
	// search work, plus the probe's, since the query's ledger opened: a
	// session's solver counts on from check to check.
	SATVars    int
	SATClauses int
	Stats      sat.Stats
	// CertifyElapsed is the DRAT replay time when a proof was checked
	// (Options.Certify or Options.Blame): phase "certify".
	CertifyElapsed time.Duration
	// Certificate is set on UNSAT verdicts when Options.Certify is on:
	// the recorded DRAT trace was replayed through the independent
	// checker before the verdict was returned.
	Certificate *Certificate
	// Blame is set when Options.Blame is on: for UNSAT verdicts, the
	// config origins the checked proof's unsatisfiable core descends
	// from — the stanzas the verdict actually depends on; for SAT, the
	// origins of the constraints that fixed the counterexample's
	// forwarding decisions. Sorted and deduplicated, so equal inputs
	// blame identically.
	Blame []provenance.Origin
	// OriginProfile is set when Options.ProfileOrigins is on: solver
	// work (conflicts, propagations, learned clauses, LBD mass)
	// attributed per config origin, hottest first.
	OriginProfile *provenance.Profile

	// Cost is the query's hierarchical resource ledger: wall/CPU time,
	// memory and deterministic solver work units attributed per phase
	// (compile, probe, blast, simplify, solve, certify, decode, blame;
	// fastpath and property when pipeline.Run answered). The ledger's
	// work total equals Stats exactly.
	Cost *cost.Node

	// Tier records which verification tier produced the verdict when a
	// tiered orchestrator (internal/tiered) ran the query: "graph" for
	// the fast path, "sat" for solver fall-through, "" when no tiering
	// was in play (today's plain Check calls).
	Tier string
	// FastPathElapsed is the graph tier's classification time — the cost
	// of the fast-path verdict, or the overhead added before falling
	// through to the solver: phase "fastpath".
	FastPathElapsed time.Duration
}

// FillTimes reads every time the Result reports out of its ledger: each
// is the summed wall of every ledger node named for its phase. A check's
// ledger is one level of phases; a composed modular verdict's holds a
// subtree of them per class. FillTimes is the only writer of those
// fields, so a Result's times and its cost tree cannot disagree: whoever
// finishes a ledger — the executor, the modular run after adopting its
// class ledgers, pipeline.Run after adding its own phases — calls it once
// more.
func (r *Result) FillTimes() {
	wall := r.Cost.PhaseWall
	r.EncodeElapsed = wall("blast")
	r.SimplifyElapsed = wall("compile") + wall("simplify")
	r.SolveElapsed = wall("solve")
	r.CertifyElapsed = wall("certify")
	r.FastPathElapsed = wall("fastpath")
	r.ProbeElapsed = wall("probe")
	r.Elapsed = r.EncodeElapsed + r.SimplifyElapsed + r.ProbeElapsed + r.SolveElapsed + r.CertifyElapsed + r.FastPathElapsed
}

// Certificate summarizes a checked UNSAT proof.
type Certificate struct {
	// Checked is true when the trace passed the drat checker (always, on
	// a returned Result: a failed check is an error instead).
	Checked bool
	// Steps and Lits give the trace size; Inputs/Lemmas/Deletions split
	// Steps by kind.
	Steps, Lits               int
	Inputs, Lemmas, Deletions int
	// Hinted counts the lemmas the checker verified from the antecedents
	// the solver recorded, Fallbacks those it had to search the whole
	// clause database for; a solver-recorded trace has no fallbacks.
	Hinted, Fallbacks int
}

// plus adds o, a certificate of another proof, to c; a nil c is zero,
// and o is only read.
func (c *Certificate) plus(o *Certificate) *Certificate {
	if c == nil {
		sum := *o
		return &sum
	}
	c.Steps += o.Steps
	c.Lits += o.Lits
	c.Inputs += o.Inputs
	c.Lemmas += o.Lemmas
	c.Deletions += o.Deletions
	c.Hinted += o.Hinted
	c.Fallbacks += o.Fallbacks
	return c
}

// certify asks chk, the checker bound to proof, to replay what the trace
// recorded since its last check and to verify that it refutes the
// assumptions; cSp is the open certify phase's span. It returns the
// certificate and, when chk extracts cores, the unsatisfiable core
// (indices of the input steps the refutation depends on), or an error
// when the trace does not establish UNSAT — in which case the caller must
// not report a verdict.
func certify(cSp *obs.Span, chk *drat.Checker, proof *sat.Proof, assumptions ...sat.Lit) (*Certificate, []int, error) {
	st, core, err := chk.Check(assumptions...)
	cSp.SetInt("steps", int64(proof.NumSteps()))
	cSp.SetInt("lits", int64(proof.NumLits()))
	if err != nil {
		cSp.SetStr("verdict", "rejected")
		return nil, nil, fmt.Errorf("core: UNSAT verdict failed certification: %w", err)
	}
	cSp.SetStr("verdict", "checked")
	return &Certificate{
		Checked:   true,
		Steps:     proof.NumSteps(),
		Lits:      proof.NumLits(),
		Inputs:    st.Inputs,
		Lemmas:    st.Lemmas,
		Deletions: st.Deletions,
		Hinted:    st.Hinted,
		Fallbacks: st.Fallbacks,
	}, core, nil
}

// CheckGoal is the fresh door into the executor: it decides whether the
// property holds in every stable state by asserting N ∧ assumptions ∧
// ¬property on a new solver and searching for a satisfying assignment.
// Assumptions restrict the question (the destination, a failure bound).
// With cn nil the model's cached artifact is used, compiled first — and
// the compile charged to this query, its passes in PassStats and its time
// in the compile phase — when Asserts has grown since. A non-nil cn must
// come from this model's Compile (same term context); its compile time is
// the caller's, already amortized. When ctx is canceled mid-search the
// solver is interrupted and ctx's error returned.
func (m *Model) CheckGoal(ctx context.Context, cn *CompiledNetwork, property *smt.Term, assumptions ...*smt.Term) (*Result, error) {
	return m.check(ctx, nil, cn, property, assumptions)
}

// watchInterrupt arranges for interrupt to fire if ctx is canceled, and
// returns a stop function that joins the watcher; callers must invoke
// stop (and then reset the solver's interrupt flag) before reading
// solver state.
func watchInterrupt(ctx context.Context, interrupt func()) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	cancel := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			interrupt()
		case <-cancel:
		}
	}()
	return func() {
		close(cancel)
		<-done
	}
}

// blameFromCore maps an UNSAT core (input-step indices of a checked
// proof) back to config origins: each input clause carries the interned
// origin set of the assert it was blasted from, resolved through the
// origin tables of sol, the solver that recorded the proof. Untagged
// clauses (the zero origin) are dropped; the result is sorted, so equal
// cores blame identically.
func (m *Model) blameFromCore(sol *smt.Solver, proof *sat.Proof, core []int) []provenance.Origin {
	steps := proof.Steps()
	seen := map[int32]bool{}
	var out []provenance.Origin
	for _, si := range core {
		if si < 0 || si >= len(steps) {
			continue
		}
		for _, base := range sol.SAT().OriginSetBases(steps[si].Origin) {
			if seen[base] {
				continue
			}
			seen[base] = true
			if o := m.Prov.Origin(base); o != (provenance.Origin{}) {
				out = append(out, o)
			}
		}
	}
	return provenance.DedupeOrigins(out)
}

// blameSat attributes a SAT counterexample: the origins of every
// constraint whose term DAG overlaps an active forwarding decision
// (control-plane forwarding, local delivery, null drop) of the decoded
// stable state. Terms are hash-consed, so shared subterms — in
// particular the decision indicators and their variables — identify the
// asserts that fixed each decision even after the pass pipeline
// rewrote them.
func (m *Model) blameSat(asserts []*smt.Term, origins [][]int32, ev *smt.Evaluator) []provenance.Origin {
	want := make([]bool, m.Ctx.NumTerms()) // by term id
	var markAll func(t *smt.Term)
	markAll = func(t *smt.Term) {
		if want[t.ID()] {
			return
		}
		want[t.ID()] = true
		for _, k := range t.Kids() {
			markAll(k)
		}
	}
	sl := m.Main
	for _, fwd := range sl.CtrlFwd {
		for _, t := range fwd {
			if ev.Eval(t).Bool {
				markAll(t)
			}
		}
	}
	for _, t := range sl.DeliveredLocal {
		if ev.Eval(t).Bool {
			markAll(t)
		}
	}
	for _, t := range sl.DroppedNull {
		if ev.Eval(t).Bool {
			markAll(t)
		}
	}
	visited, hit := make([]bool, len(want)), make([]bool, len(want)) // by term id
	var touches func(t *smt.Term) bool
	touches = func(t *smt.Term) bool {
		if visited[t.ID()] {
			return hit[t.ID()]
		}
		r := want[t.ID()]
		for _, k := range t.Kids() {
			if r {
				break
			}
			r = touches(k)
		}
		visited[t.ID()], hit[t.ID()] = true, r
		return r
	}
	seen := map[provenance.Origin]bool{}
	var out []provenance.Origin
	for i, a := range asserts {
		if i >= len(origins) || len(origins[i]) == 0 || !touches(a) {
			continue
		}
		for _, b := range origins[i] {
			o := m.Prov.Origin(b)
			if o == (provenance.Origin{}) || seen[o] {
				continue
			}
			seen[o] = true
			out = append(out, o)
		}
	}
	provenance.SortOrigins(out)
	return out
}

// originProfile converts the solver's per-set work counters into the
// per-origin hot-constraint profile.
func (m *Model) originProfile(solver *smt.Solver) *provenance.Profile {
	sets, counts := solver.SAT().OriginSnapshot()
	pc := make([]provenance.Counts, len(counts))
	for i, c := range counts {
		pc[i] = provenance.Counts{
			Conflicts:    c.Conflicts,
			Propagations: c.Propagations,
			Learned:      c.Learned,
			LBDSum:       c.LBDSum,
		}
	}
	return provenance.BuildProfile(m.Prov, sets, pc)
}

// Decode reconstructs the concrete environment and packet from a model
// assignment.
func (m *Model) Decode(asg smt.Assignment) *Counterexample {
	return m.decode(asg, smt.NewEvaluator(asg))
}

// decode is Decode on the assignment's evaluator.
func (m *Model) decode(asg smt.Assignment, ev *smt.Evaluator) *Counterexample {
	cex := &Counterexample{Assignment: asg, Env: simulator.NewEnvironment()}
	dst := network.IP(asg[m.prefix+"pkt.dstIP"].BV)
	cex.Packet = config.Packet{
		DstIP:    dst,
		SrcIP:    network.IP(asg[m.prefix+"pkt.srcIP"].BV),
		SrcPort:  int(asg[m.prefix+"pkt.srcPort"].BV),
		DstPort:  int(asg[m.prefix+"pkt.dstPort"].BV),
		Protocol: int(asg[m.prefix+"pkt.proto"].BV),
	}
	for _, e := range m.G.Topo.Externals {
		rec := m.Main.Env[e.Name]
		if !ev.Eval(rec.Valid).Bool {
			continue
		}
		plen := int(ev.Eval(rec.PrefixLen).BV)
		if plen > 32 {
			plen = 32
		}
		ann := simulator.Announcement{
			Prefix:  network.Prefix{Addr: dst.Mask(plen), Len: plen},
			PathLen: int(ev.Eval(rec.Metric).BV),
			MED:     int(ev.Eval(rec.MED).BV),
		}
		if !m.hoisting && rec.Prefix != nil {
			ann.Prefix = network.Prefix{Addr: network.IP(ev.Eval(rec.Prefix).BV).Mask(plen), Len: plen}
		}
		for _, cm := range m.commUni {
			if bit, ok := rec.Comms[cm]; ok && ev.Eval(bit).Bool {
				ann.Communities = append(ann.Communities, cm)
			}
		}
		cex.Env.Announce(e.Name, ann)
	}
	for id, v := range m.Failed {
		if ev.Eval(v).Bool {
			cex.Env.FailedLinks[id] = true
		}
	}
	return cex
}

// RecordValue is a decoded record for diagnostics.
type RecordValue struct {
	Valid     bool
	PrefixLen int
	AD        int
	LocalPref int
	Metric    int
	MED       int
	Internal  bool
	RID       uint32
	Comms     []string
}

// DecodeRecord evaluates a symbolic record under an assignment.
func DecodeRecord(r *Record, asg smt.Assignment) RecordValue {
	return decodeRecord(r, smt.NewEvaluator(asg))
}

// decodeRecord is DecodeRecord on the assignment's evaluator: records of
// one network share most of their selection logic, which it walks once.
func decodeRecord(r *Record, ev *smt.Evaluator) RecordValue {
	v := RecordValue{
		Valid:     ev.Eval(r.Valid).Bool,
		PrefixLen: int(ev.Eval(r.PrefixLen).BV),
		AD:        int(ev.Eval(r.AD).BV),
		LocalPref: int(ev.Eval(r.LocalPref).BV),
		Metric:    int(ev.Eval(r.Metric).BV),
		MED:       int(ev.Eval(r.MED).BV),
		Internal:  ev.Eval(r.Internal).Bool,
		RID:       uint32(ev.Eval(r.RID).BV),
	}
	for cm, bit := range r.Comms {
		if ev.Eval(bit).Bool {
			v.Comms = append(v.Comms, cm)
		}
	}
	sort.Strings(v.Comms)
	return v
}

// DecodeForwarding lists the active control-plane forwarding decisions of
// a slice under an assignment, for counterexample reports.
func (m *Model) DecodeForwarding(sl *Slice, asg smt.Assignment) []string {
	var out []string
	ev := smt.NewEvaluator(asg)
	names := make([]string, 0, len(sl.CtrlFwd))
	for n := range sl.CtrlFwd {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, h := range sortedHops(sl.CtrlFwd[n]) {
			if ev.Eval(sl.CtrlFwd[n][h]).Bool {
				out = append(out, n+" -> "+h.String())
			}
		}
		if ev.Eval(sl.DeliveredLocal[n]).Bool {
			out = append(out, n+" delivers locally")
		}
		if ev.Eval(sl.DroppedNull[n]).Bool {
			out = append(out, n+" drops (null0)")
		}
	}
	return out
}

// String renders a counterexample for operators.
func (c *Counterexample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packet: dst=%v src=%v proto=%d sport=%d dport=%d\n",
		c.Packet.DstIP, c.Packet.SrcIP, c.Packet.Protocol, c.Packet.SrcPort, c.Packet.DstPort)
	fmt.Fprintf(&b, "environment: %s", c.Env)
	return b.String()
}

// Replay runs the counterexample's environment through the concrete
// simulator and returns the resulting stable state, letting callers
// confirm a finding outside the symbolic model (the CLI's -replay flag
// and several tests use this).
func (m *Model) Replay(cex *Counterexample) (*simulator.Result, error) {
	sim := simulator.New(m.G)
	return sim.Run(cex.Packet.DstIP, cex.Env)
}

// ReplayAgrees replays the counterexample and compares the simulator's
// stable state with the decoded model state by DiffSimulator, the
// differential oracle's comparison: best route, forwarding, local
// delivery, null drops and exports. It returns the disagreements — empty
// when the concrete and symbolic worlds agree, which is strong evidence
// the finding is real. Networks with multiple stable states may disagree
// legitimately; see DESIGN.md.
func (m *Model) ReplayAgrees(cex *Counterexample) ([]string, error) {
	simres, err := m.Replay(cex)
	if err != nil {
		return nil, err
	}
	return m.DiffSimulator(cex.Assignment, simres, cex.Packet.DstIP, cex.Env), nil
}
