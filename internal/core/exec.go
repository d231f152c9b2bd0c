package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/cost"
	"repro/internal/obs/stream"
	"repro/internal/provenance"
	"repro/internal/sat"
	"repro/internal/sat/drat"
	"repro/internal/smt"
	"repro/internal/smt/passes"
)

// executor drives one smt.Solver — the blaster, and through its SAT() the
// CDCL search — through the phases of a query on the query's
// instrumentation spine (cost.Scope): every phase is opened once
// and closed once, and the close writes its span, its ledger node and its
// phase.end event from one reading of the clock. The executor adds the
// one thing the scope cannot know — the solver's counters — charging a
// solver phase the difference since the previous boundary, so the phase
// rows telescope to exactly the solver's totals. A check enters it by
// one of two doors, one per kind of solver — Model.CheckGoal on a fresh
// one, Session.CheckContext on a session's — and NewSession's set-up runs
// on it too; they differ only in how asserts and goals enter the solver.
type executor struct {
	*cost.Scope
	m   *Model
	sol *smt.Solver
	// mark is the solver's cumulative work at the last phase boundary;
	// zero for a new solver, whose whole count belongs to its first phase.
	mark cost.Work
	// terms is the size of the system compile left to blast, as the last
	// pass to run counted it: what blast sizes the solver from.
	terms int
}

// newExecutor opens the query's span and its scope on the options'
// observers; the caller ends x.Span when the query is over.
func (m *Model) newExecutor(sol *smt.Solver, span, ledger string) *executor {
	return &executor{m: m, sol: sol, Scope: cost.Open(m.Opts.Span.Start(span), cost.New(ledger), m.Opts.OnEvent)}
}

// tracks reports whether clauses carry the provenance of the assert they
// were blasted from (blame and profiling both need it).
func (m *Model) tracks() bool { return m.Opts.Blame || m.Opts.ProfileOrigins }

// instrument switches on what Options ask of a new solver: origin
// tracking, and the proof trace that certification and UNSAT-core blame
// replay, with the checker that follows it (both nil when neither is on).
func (m *Model) instrument(sol *smt.Solver) (*sat.Proof, *drat.Checker) {
	st := sol.SAT()
	if m.tracks() {
		st.EnableOriginTracking()
	}
	if m.Opts.Certify || m.Opts.Blame {
		proof := st.EnableProof()
		return proof, drat.NewChecker(proof, m.Opts.Blame)
	}
	return nil, nil
}

// tailOrigins returns the provenance of Model.Asserts[from:], one origin
// set per assert. Asserts spliced in from outside assert() (equivalence
// tests) may outrun AssertOrigins; they simply carry no origin.
func (m *Model) tailOrigins(from int) [][]int32 {
	out := make([][]int32, len(m.Asserts)-from)
	for i := range out {
		if from+i < len(m.AssertOrigins) {
			out[i] = []int32{m.Prov.ID(m.AssertOrigins[from+i])}
		}
	}
	return out
}

// withTail returns cn's asserts and origins extended by the
// instrumentation asserts property builders appended to the model after
// cn was compiled.
func (m *Model) withTail(cn *CompiledNetwork) ([]*smt.Term, [][]int32) {
	if len(m.Asserts) == cn.BaseLen {
		return cn.Asserts, cn.Origins
	}
	return append(append([]*smt.Term(nil), cn.Asserts...), m.Asserts[cn.BaseLen:]...),
		append(append([][]int32(nil), cn.Origins...), m.tailOrigins(cn.BaseLen)...)
}

func solverWork(sol *smt.Solver) cost.Work {
	w := cost.FromStats(sol.SAT().Stats)
	w.ClauseDBBytes = sol.SAT().ClauseDBBytes()
	return w
}

// endSolver closes a phase the solver worked in, charging it the work
// since the previous boundary.
func (x *executor) endSolver() time.Duration {
	now := solverWork(x.sol)
	window := x.End(now.Minus(x.mark))
	x.mark = now
	return window
}

// notePasses appends pass rows to the result (nil during session set-up,
// whose passes belong to no query) and reports each as it is known.
func (x *executor) notePasses(res *Result, stats ...passes.Stats) {
	if res != nil {
		res.PassStats = append(res.PassStats, stats...)
	}
	if x.m.Opts.OnEvent == nil {
		return
	}
	for _, ps := range stats {
		x.m.Opts.OnEvent(stream.EventPass, map[string]any{
			"pass":          ps.Pass,
			"asserts_after": ps.AssertsAfter,
			"terms_after":   ps.TermsAfter,
			"ms":            durMs(ps.Elapsed),
		})
	}
}

// compile is the term-level phase: the property-agnostic compile pass
// when the model's cached artifact is stale (cn nil and nothing cached),
// then — with goals — the goal-relative cone-of-influence pruning. It
// returns the artifact and the system to blast: asserts, their origins,
// goals. The phase is opened only when one of the two has work to do.
func (x *executor) compile(cn *CompiledNetwork, goals []*smt.Term, res *Result) (*CompiledNetwork, *passes.System) {
	m := x.m
	if cn == nil {
		cn = m.cachedCompile()
	}
	coi := goals != nil && m.spec.coi
	var sp *obs.Span
	if cn == nil || coi {
		sp = x.Begin("compile")
		defer x.End(cost.Work{})
	}
	if cn == nil {
		cn = m.compile(sp)
		x.notePasses(res, cn.PassStats...)
	}
	sys := &passes.System{Ctx: m.Ctx, Goals: goals}
	sys.Asserts, sys.Origins = m.withTail(cn)
	counted := cn.PassStats
	if coi {
		// The pass rewrites the slices it is handed, and merges origins
		// only when someone will read them.
		sys.Asserts = append([]*smt.Term(nil), sys.Asserts...)
		if m.tracks() {
			sys.Origins = append([][]int32(nil), sys.Origins...)
		} else {
			sys.Origins = nil
		}
		counted = []passes.Stats{passes.COI(sys, sp)}
		x.notePasses(res, counted...)
	}
	if n := len(counted); n > 0 {
		x.terms = counted[n-1].TermsAfter
	}
	return cn, sys
}

// blast is the CNF phase (Tseitin conversion and bit-blasting) into the
// check's solver, sized first for the system compile left: load puts the
// asserts and goals in.
func (x *executor) blast(asserts []*smt.Term, origins [][]int32, enterGoals func()) {
	sp := x.Begin("blast")
	x.sol.Reserve(x.terms)
	x.load(asserts, origins, enterGoals)
	x.endBlast(sp, len(asserts))
}

// blastFresh is the fresh door's blast phase (DESIGN §22). It opens by
// blasting the goals alone into a solver of their own, instrumented like
// the check's and not sized. When unit propagation refutes them there,
// that solver is the check's: its CNF is a subset of the system's with
// the goals, so its UNSAT, proof and core are the whole formula's, and
// the system is never blasted. Otherwise the solver is dropped, its
// counts (not its clause database, which the check never holds) charged
// to the phase and returned for Stats, and the check's solver is made,
// sized and loaded as it would be without the step.
func (x *executor) blastFresh(sys *passes.System) (*sat.Proof, *drat.Checker, sat.Stats) {
	sp, m := x.Begin("blast"), x.m
	enterGoals := func() {
		for _, g := range sys.Goals {
			x.sol.Assert(g)
		}
	}
	x.sol = smt.NewSolver(m.Ctx)
	proof, chk := m.instrument(x.sol)
	x.load(nil, nil, enterGoals)
	if !x.sol.SAT().Okay() {
		sp.SetStr("goals", "refuted")
		x.endBlast(sp, 0)
		return proof, chk, sat.Stats{}
	}
	dropped := x.sol.SAT().Stats
	// endSolver charges the work since the mark: a mark below zero by the
	// dropped counts charges them to this phase too.
	x.mark = cost.Work{}.Minus(cost.FromStats(dropped))
	x.sol = smt.NewSolver(m.Ctx)
	proof, chk = m.instrument(x.sol)
	x.sol.Reserve(x.terms)
	x.load(sys.Asserts, sys.Origins, enterGoals)
	x.endBlast(sp, len(sys.Asserts))
	return proof, chk, dropped
}

// load blasts asserts into the check's solver as permanent constraints,
// each stamped with its origin set when tracking is on; then enterGoals,
// nil when the phase has none, puts the goals in, stamped as property
// clauses.
func (x *executor) load(asserts []*smt.Term, origins [][]int32, enterGoals func()) {
	st, track := x.sol.SAT(), x.m.tracks()
	for i, a := range asserts {
		if track {
			var o []int32
			if i < len(origins) {
				o = origins[i]
			}
			st.SetOrigin(o...)
		}
		x.sol.Assert(a)
	}
	if enterGoals != nil {
		if track {
			st.SetOrigin(x.m.Prov.ID(provenance.Origin{Kind: "property"}))
		}
		enterGoals()
	}
	if track {
		st.SetOrigin()
	}
}

// endBlast sizes the blast span and closes the phase.
func (x *executor) endBlast(sp *obs.Span, asserts int) {
	st := x.sol.SAT()
	sp.SetInt("asserts", int64(asserts))
	sp.SetInt("terms", int64(x.m.Ctx.NumTerms()))
	sp.SetInt("gates", int64(x.sol.NumGates()))
	sp.SetInt("sat_vars", int64(st.NumVars()))
	sp.SetInt("sat_clauses", int64(st.NumClauses()))
	x.endSolver()
}

// simplify is the top-level CNF simplification phase.
func (x *executor) simplify() time.Duration {
	sp, st := x.Begin("simplify"), x.sol.SAT()
	sp.SetInt("clauses_before", int64(st.NumClauses()))
	st.Simplify()
	sp.SetInt("clauses_after", int64(st.NumClauses()))
	return x.endSolver()
}

// check answers one query: is N ∧ assumptions ∧ ¬property satisfiable?
//
// With s nil it is the fresh path: the compiled asserts (cn, or with cn
// nil the model's cached artifact, compiled — and charged to this query —
// when stale) plus instrumentation appended since, pruned to the goals'
// cone of influence; then, for a query scoped to some destinations, the
// witness probe (probe.go), whose model — when it has one — answers the
// check falsified with no blast and no search; else the goals blasted
// alone (blastFresh), whose solver answers the check when they refute
// themselves, or else a new solver holding the asserts and the goals
// permanently, its CNF simplified. With a session
// it is the incremental path: only the asserts added since the last
// check are blasted, and the goals enter under a fresh activation
// literal that the search and the proof check then assume. Everything after that — the search, certification, blame,
// decoding, profiling, the Result — is one code path, and both paths emit
// the CNF they always did.
func (m *Model) check(ctx context.Context, s *Session, cn *CompiledNetwork, property *smt.Term, assumptions []*smt.Term) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p := m.Opts.Parallel; p != "" && p != "off" {
		return nil, fmt.Errorf("core: Options.Parallel %q: the parallel solve engine was removed (DESIGN §16); only \"\" and \"off\" are accepted", p)
	}
	c := m.Ctx
	goals := make([]*smt.Term, 0, len(assumptions)+1)
	goals = append(goals, assumptions...)
	goals = append(goals, c.Not(property))
	res := &Result{}

	var x *executor
	var proof *sat.Proof
	var chk *drat.Checker
	var assume []sat.Lit // the session's activation literal
	// base is the solver's count when this query's ledger opened: zero
	// for a new solver, the session's running total for a session check.
	// Stats and the ledger both count from it.
	var base sat.Stats
	// blameAsserts/blameOrigins are the asserts in the solver with their
	// provenance, for SAT-side blame.
	var blameAsserts []*smt.Term
	var blameOrigins [][]int32
	// asg is the model a probe that answered handed over; probeStats and
	// dropped are the solver work of the probe and of a goals' solver
	// that did not answer, which Stats counts with the search's.
	var asg smt.Assignment
	var probeStats, dropped sat.Stats
	if s == nil {
		x = m.newExecutor(nil, "check", "goal")
		defer x.Span.End()
		_, sys := x.compile(cn, goals, res)
		blameAsserts, blameOrigins = sys.Asserts, sys.Origins
		if scoped := m.probeScope(assumptions); len(scoped) > 0 {
			var err error
			if asg, probeStats, err = x.probe(ctx, sys, scoped, res); err != nil {
				return nil, err
			}
		}
		if asg == nil {
			proof, chk, dropped = x.blastFresh(sys)
			res.SATVars, res.SATClauses = x.sol.SAT().NumVars(), x.sol.SAT().NumClauses()
			x.notePasses(res, passes.Stats{Pass: "cnf-simplify", Elapsed: x.simplify()})
		}
	} else {
		x = m.newExecutor(s.sol, "session-check", "goal")
		defer x.Span.End()
		x.mark, base, proof, chk = solverWork(x.sol), x.sol.SAT().Stats, s.proof, s.chk
		// The session only ever appends to the solver: verify the blasted
		// prefix of m.Asserts is still the one we blasted before trusting it.
		if len(m.Asserts) < s.asserted ||
			(s.asserted > 0 && m.Asserts[s.asserted-1] != s.lastBlasted) {
			return nil, ErrSessionInvalidated
		}
		// Instrumentation asserts added by property builders since the last
		// check are permanent; the goals are not.
		x.blast(m.Asserts[s.asserted:], m.tailOrigins(s.asserted),
			func() { s.prepare(goals) })
		s.noteBlasted(len(m.Asserts))
		res.SATVars, res.SATClauses = x.sol.SAT().NumVars(), x.sol.SAT().NumClauses()
		assume = []sat.Lit{s.act}
		if m.Opts.Blame {
			blameAsserts, blameOrigins = m.withTail(s.cn)
		}
	}

	status := sat.Sat
	if asg == nil {
		var err error
		status, err = x.search(ctx, assume, base, res)
		if s != nil {
			s.checks++
		}
		if err != nil {
			return nil, err
		}
	}
	res.Stats = res.Stats.Plus(probeStats).Plus(dropped)

	switch status {
	case sat.Unsat:
		res.Verified = true
		if proof != nil {
			// A session's UNSAT is relative to its activation literal, which
			// the checker gets as an assumption; the session's checker
			// replays only what the trace recorded since its last check.
			if s == nil && !m.tracks() {
				// The check reads the trace alone and only origin tables are
				// read after it: let the clause database go before the
				// checker builds its own.
				x.sol = nil
			}
			cert, core, err := certify(x.Begin("certify"), chk, proof, assume...)
			window := x.End(cost.Work{ProofBytes: proof.Bytes()})
			if err != nil {
				return nil, err
			}
			res.Certificate = cert
			if m.Opts.OnEvent != nil {
				m.Opts.OnEvent(stream.EventCertify, map[string]any{
					"checked": cert.Checked, "steps": cert.Steps, "lemmas": cert.Lemmas, "ms": durMs(window),
				})
			}
			if m.Opts.Blame {
				x.Begin("blame")
				res.Blame = m.blameFromCore(x.sol, proof, core)
				x.End(cost.Work{})
			}
		}
	case sat.Sat:
		x.Begin("decode")
		if asg == nil {
			asg = x.sol.Model()
		}
		ev := smt.NewEvaluator(asg)
		res.Counterexample = m.decode(asg, ev)
		x.End(cost.Work{})
		if m.Opts.Blame {
			x.Begin("blame")
			res.Blame = m.blameSat(blameAsserts, blameOrigins, ev)
			x.End(cost.Work{})
		}
	}
	if len(res.Blame) > 0 && m.Opts.OnEvent != nil {
		m.Opts.OnEvent(stream.EventBlame, map[string]any{"origins": len(res.Blame)})
	}
	if m.Opts.ProfileOrigins {
		res.OriginProfile = m.originProfile(x.sol)
	}
	res.Cost = x.Ledger
	res.FillTimes()
	return res, nil
}

// search is the CDCL phase, interruptible through ctx. Core sets no
// conflict budget: the search ends in a verdict, an interrupt, or a named
// refusal (a full clause database). The progress hook is this check's: it
// counts from base. res.Stats gets the search's work since base.
func (x *executor) search(ctx context.Context, assume []sat.Lit, base sat.Stats, res *Result) (sat.Status, error) {
	solveSp, st := x.Begin("solve"), x.sol.SAT()
	status, err := solve(ctx, st, &x.m.Opts, base, assume...)
	res.Stats = st.Stats.Since(base)
	solveSp.SetStr("status", status.String())
	solveSp.SetInt("conflicts", res.Stats.Conflicts)
	solveSp.SetInt("decisions", res.Stats.Decisions)
	solveSp.SetInt("propagations", res.Stats.Propagations)
	solveSp.SetInt("learned", res.Stats.Learned)
	solveSp.SetInt("restarts", res.Stats.Restarts)
	x.endSolver()
	return status, err
}

// solve is core's one interruptible search on st: a done ctx interrupts
// it and is its error; any other failure is a core: solve: error. The
// watcher is joined before the interrupt flag is cleared, so a late
// Interrupt cannot leak into a later search. o's progress hook, if any,
// counts from base, interrupts the search once ctx is done (not whenever
// the watcher is next scheduled), and is taken off again so a session's
// solver holds no finished search's.
func solve(ctx context.Context, st *sat.Solver, o *Options, base sat.Stats, assume ...sat.Lit) (sat.Status, error) {
	if o != nil && o.OnProgress != nil {
		hook := o.OnProgress
		st.ProgressEvery, st.OnProgress = o.ProgressEvery, func(p sat.Progress) {
			hook(p.Since(base))
			if ctx.Err() != nil {
				st.Interrupt()
			}
		}
		defer func() { st.OnProgress = nil }()
	}
	stop := watchInterrupt(ctx, st.Interrupt)
	status, err := st.SolveLimited(assume...)
	stop()
	st.ResetInterrupt()
	switch {
	case err == nil:
		return status, nil
	case errors.Is(err, sat.ErrInterrupted) && ctx.Err() != nil:
		return status, ctx.Err()
	}
	return status, fmt.Errorf("core: solve: %w", err)
}

func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
