package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/cost"
	"repro/internal/provenance"
	"repro/internal/psolve"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/smt/passes"
)

// executor drives one smt.Solver through the phases of a query and keeps
// the books every phase shares: a span per phase under sp, a child per
// phase under ledger, each charged its wall/CPU/memory window from
// snapshot to snapshot and its deterministic solver work by counter
// difference — so the phase rows telescope to exactly the solver's
// totals. Model.CheckGoal, Session.CheckContext and the blast/simplify
// half of NewSession all run on it; they differ only in how asserts and
// goals enter the solver.
type executor struct {
	m      *Model
	sol    *smt.Solver
	sp     *obs.Span
	ledger *cost.Node
	snap   cost.Snap
	// mark is the solver's cumulative work at the last phase boundary;
	// zero for a new solver, whose whole count belongs to its first phase.
	mark cost.Work
}

func (m *Model) newExecutor(sol *smt.Solver, span, ledger string) *executor {
	return &executor{m: m, sol: sol, sp: m.Obs.Start(span), ledger: cost.New(ledger), snap: cost.TakeSnap()}
}

// tracks reports whether clauses carry the provenance of the assert they
// were blasted from (blame and profiling both need it).
func (m *Model) tracks() bool { return m.Opts.Blame || m.Opts.ProfileOrigins }

// instrument switches on what Options ask of a new solver: the progress
// hook, origin tracking, and the proof trace that certification and
// UNSAT-core blame replay (nil when neither is on).
func (m *Model) instrument(sol *smt.Solver) *sat.Proof {
	if m.ProgressEvery > 0 && m.OnProgress != nil {
		sol.SetProgress(m.ProgressEvery, m.OnProgress)
	}
	if m.tracks() {
		sol.EnableOriginTracking()
	}
	if m.Opts.Certify || m.Opts.Blame {
		return sol.EnableProof()
	}
	return nil
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
	w := cost.FromStats(sol.SATStats())
	w.ClauseDBBytes = sol.SATSolver().ClauseDBBytes()
	return w
}

// charge closes a phase: the window since the previous boundary goes to
// the phase's ledger node, and with solver set so does the work the
// solver did in it.
func (x *executor) charge(phase string, solver bool) *cost.Node {
	node := x.ledger.Child(phase)
	x.snap = node.Charge(x.snap)
	if solver {
		now := solverWork(x.sol)
		node.Add(now.Minus(x.mark))
		x.mark = now
	}
	return node
}

// blast is the CNF phase (Tseitin conversion and bit-blasting) under a
// span of the given name: asserts become permanent constraints through
// assert, each stamped with its origin set when tracking is on; then
// enterGoals, nil when the phase has none, puts the goals in, stamped as
// property clauses.
func (x *executor) blast(span string, assert func(*smt.Term), asserts []*smt.Term, origins [][]int32, enterGoals func()) time.Duration {
	sp := x.sp.Start(span)
	start := time.Now()
	track := x.m.tracks()
	for i, a := range asserts {
		if track {
			var o []int32
			if i < len(origins) {
				o = origins[i]
			}
			x.sol.SetOrigin(o...)
		}
		assert(a)
	}
	if enterGoals != nil {
		if track {
			x.sol.SetOrigin(x.m.Prov.ID(provenance.Origin{Kind: "property"}))
		}
		enterGoals()
	}
	if track {
		x.sol.SetOrigin()
	}
	elapsed := time.Since(start)
	sp.SetInt("asserts", int64(len(asserts)))
	sp.SetInt("terms", int64(x.m.Ctx.NumTerms()))
	sp.SetInt("gates", int64(x.sol.NumGates()))
	sp.SetInt("sat_vars", int64(x.sol.NumSATVars()))
	sp.SetInt("sat_clauses", int64(x.sol.NumSATClauses()))
	sp.End()
	x.charge("blast", true)
	return elapsed
}

// simplify is the top-level CNF simplification phase.
func (x *executor) simplify() time.Duration {
	sp := x.sp.Start("simplify")
	start := time.Now()
	sp.SetInt("clauses_before", int64(x.sol.NumSATClauses()))
	x.sol.Simplify()
	elapsed := time.Since(start)
	sp.SetInt("clauses_after", int64(x.sol.NumSATClauses()))
	sp.End()
	x.charge("simplify", true)
	return elapsed
}

// check answers one query: is N ∧ assumptions ∧ ¬property satisfiable?
//
// With s nil it is the fresh path: a new solver, every compiled assert
// (plus instrumentation appended since) pruned to the goals' cone of
// influence, the goals asserted permanently, the CNF simplified; prior
// and priorElapsed charge a compile this query triggered. With a session
// it is the incremental path: only the asserts added since the last
// check are blasted, and the goals enter under a fresh activation
// literal that the search and the proof check then assume. Everything
// after that — search or parallel dispatch, certification, blame,
// decoding, profiling, the Result — is one code path, and both paths
// emit the CNF they always did.
func (m *Model) check(ctx context.Context, s *Session, cn *CompiledNetwork, prior []passes.Stats, priorElapsed time.Duration, property *smt.Term, assumptions []*smt.Term) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !psolve.ValidMode(m.Opts.Parallel) {
		return nil, fmt.Errorf("core: unknown parallel mode %q", m.Opts.Parallel)
	}
	c := m.Ctx
	track := m.tracks()
	goals := make([]*smt.Term, 0, len(assumptions)+1)
	goals = append(goals, assumptions...)
	goals = append(goals, c.Not(property))
	res := &Result{}

	var x *executor
	var proof *sat.Proof
	var assume []sat.Lit // the session's activation literal
	// blameAsserts/blameOrigins are the asserts in the solver with their
	// provenance, for SAT-side blame.
	var blameAsserts []*smt.Term
	var blameOrigins [][]int32
	if s == nil {
		x = m.newExecutor(smt.NewSolver(c), "check", "goal")
		defer x.sp.End()
		proof = m.instrument(x.sol)
		// Children are created up front to pin the display order to the
		// execution order (the term passes below charge simplify first).
		if priorElapsed > 0 {
			x.ledger.Child("compile").AddWall(priorElapsed)
		}
		x.ledger.Child("blast")

		// Goal-relative term passes, charged to simplify.
		termStart := time.Now()
		asserts, origins := m.withTail(cn)
		res.PassStats = append(res.PassStats, prior...)
		if m.spec.coi {
			sys := &passes.System{Ctx: c, Asserts: append([]*smt.Term(nil), asserts...), Goals: goals}
			if track {
				sys.Origins = append([][]int32(nil), origins...)
			}
			pl, err := passes.NewPipeline(passes.COI)
			if err != nil {
				panic(err)
			}
			res.PassStats = append(res.PassStats, pl.Run(sys, x.sp)...)
			asserts, goals = sys.Asserts, sys.Goals
			if track {
				origins = sys.Origins
			}
		}
		res.SimplifyElapsed = priorElapsed + time.Since(termStart)
		x.charge("simplify", false)

		res.EncodeElapsed = x.blast("cnf", x.sol.Assert, asserts, origins, func() {
			for _, g := range goals {
				x.sol.Assert(g)
			}
		})
		res.SATVars, res.SATClauses = x.sol.NumSATVars(), x.sol.NumSATClauses()
		cnfSimplify := x.simplify()
		res.SimplifyElapsed += cnfSimplify
		res.PassStats = append(res.PassStats, passes.Stats{Pass: "cnf-simplify", Elapsed: cnfSimplify})
		blameAsserts, blameOrigins = asserts, origins
	} else {
		x = m.newExecutor(s.ss.Solver(), "session-check", "goal")
		defer x.sp.End()
		x.mark, proof = solverWork(x.sol), s.proof
		// The session only ever appends to the solver: verify the blasted
		// prefix of m.Asserts is still the one we blasted before trusting it.
		if len(m.Asserts) < s.asserted ||
			(s.asserted > 0 && m.Asserts[s.asserted-1] != s.lastBlasted) {
			return nil, ErrSessionInvalidated
		}
		// Instrumentation asserts added by property builders since the last
		// check are permanent; the goals are not.
		res.EncodeElapsed = x.blast("cnf", s.ss.Assert, m.Asserts[s.asserted:], m.tailOrigins(s.asserted),
			func() { s.ss.Prepare(goals...) })
		s.noteBlasted(len(m.Asserts))
		res.SATVars, res.SATClauses = x.sol.NumSATVars(), x.sol.NumSATClauses()
		assume = s.ss.Assumptions()
		if m.Opts.Blame {
			blameAsserts, blameOrigins = m.withTail(s.cn)
		}
	}

	// CDCL search, interruptible through ctx; the watcher is joined before
	// the interrupt flag is cleared so a late Interrupt cannot leak into a
	// later check. A parallel strategy (Options.Parallel) fans the search
	// out over clones of the solver, which stays untouched and reusable,
	// and adopts the winner's verdict, stats and proof (internal/psolve).
	solveSp := x.sp.Start("solve")
	solveStart := time.Now()
	var status sat.Status
	var outcome *psolve.Outcome
	if m.parallelEnabled() {
		var perr error
		outcome, perr = psolve.Solve(ctx, x.sol.SATSolver(), m.parallelOptions(x.sol), assume...)
		if perr != nil {
			solveSp.End()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: parallel solve: %w", perr)
		}
		status = outcome.Status
	} else {
		stopWatch := watchInterrupt(ctx, x.sol.Interrupt)
		status = x.sol.CheckAssuming(assume...)
		stopWatch()
		x.sol.ResetInterrupt()
	}
	res.SolveElapsed = time.Since(solveStart)
	// Stats are the adopted search's counters: cumulative since the solver
	// was made on the fresh path, this check's share of the session's.
	res.Stats = x.sol.SATStats()
	if outcome != nil {
		res.Stats = outcome.Stats
		res.Portfolio, res.Cube = outcome.Portfolio, outcome.Cube
	}
	adopted := cost.FromStats(res.Stats).Minus(x.mark)
	if s != nil {
		s.ss.FinishExternalSolve(res.Stats)
		s.checks++
		res.Stats = s.ss.LastStats().Stats
	}
	solveSp.SetStr("status", status.String())
	solveSp.SetInt("conflicts", res.Stats.Conflicts)
	solveSp.SetInt("decisions", res.Stats.Decisions)
	solveSp.SetInt("propagations", res.Stats.Propagations)
	solveSp.SetInt("learned", res.Stats.Learned)
	solveSp.SetInt("restarts", res.Stats.Restarts)
	solveSp.End()
	if outcome != nil {
		chargeParallelSolve(x.charge("solve", false), outcome, adopted)
	} else {
		x.charge("solve", true)
	}
	res.Elapsed = res.EncodeElapsed + res.SimplifyElapsed + res.SolveElapsed

	switch status {
	case sat.Unsat:
		res.Verified = true
		if proof != nil {
			// A parallel run's certificate is the adopted trace (the
			// winner's, or the stitched multi-cube proof), resolved against
			// whichever origin tables recorded it. A session's UNSAT is
			// relative to its activation literal, which the checker gets as
			// an assumption; its trace is cumulative over the session's
			// life, so certification cost grows with the number of checks.
			if outcome != nil {
				proof = outcome.Proof
			}
			if s == nil && !track {
				// The check reads the trace alone and only origin tables are
				// read after it: let the clause database go before the
				// checker builds its own.
				x.sol = nil
			}
			cert, core, err := certify(x.sp, proof, m.Opts.Blame, assume...)
			if err != nil {
				return nil, err
			}
			x.charge("certify", false).Add(cost.Work{ProofBytes: proof.Bytes()})
			res.Certificate = cert
			res.CertifyElapsed = cert.CheckElapsed
			res.Elapsed += res.CertifyElapsed
			if m.Opts.Blame {
				bases := x.sol.OriginSetBases
				if outcome != nil {
					bases = outcome.OriginBases
				}
				res.Blame = m.blameFromCore(bases, proof, core)
				x.charge("blame", false)
			}
		}
	case sat.Sat:
		dSp := x.sp.Start("decode")
		asg := x.sol.Model()
		if outcome != nil {
			asg = x.sol.ModelFrom(outcome.Winner)
		}
		res.Counterexample = m.Decode(asg)
		dSp.End()
		x.charge("decode", false)
		if m.Opts.Blame {
			res.Blame = m.blameSat(blameAsserts, blameOrigins, res.Counterexample.Assignment)
			x.charge("blame", false)
		}
	default:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: solver returned %v", status)
	}
	if m.Opts.ProfileOrigins {
		if outcome != nil {
			res.OriginProfile = m.profileFromOutcome(outcome)
		} else {
			res.OriginProfile = m.originProfile(x.sol)
		}
	}
	// Whatever ran since the last phase boundary (profile construction,
	// result assembly) is the root's own window.
	x.ledger.Charge(x.snap)
	res.Cost = x.ledger
	return res, nil
}
