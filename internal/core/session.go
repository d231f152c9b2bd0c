package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs/cost"
	"repro/internal/provenance"
	"repro/internal/psolve"
	"repro/internal/sat"
	"repro/internal/smt"
)

// Session answers many property queries against one encoded network. The
// model's constraint system N is bit-blasted into the incremental SMT
// session exactly once; each Check blasts only the assumptions and the
// negated property under a fresh activation literal. Results have the
// same shape as Model.Check, with per-check phase timings and per-check
// solver work (deltas, not the session's cumulative counters).
//
// Property constructors (Waypointed, BoundedLength, ...) may append
// instrumentation constraints to Model.Asserts while building their
// terms; Check picks up any asserts added since the previous check and
// blasts them as permanent constraints before solving, so the usual
// "build property, then check it" flow works unchanged.
//
// A Session serializes its checks internally, so it is safe to call
// Check from multiple goroutines — they simply queue. Note that building
// property terms mutates the model's term context, which is NOT
// synchronized; callers sharing a Model across goroutines must serialize
// property construction themselves (the service layer holds one lock per
// network around build+check).
type Session struct {
	m  *Model
	mu sync.Mutex
	ss *smt.Session

	asserted int // prefix of m.Asserts already blasted as shared
	// lastBlasted remembers the final assert of that prefix. The session
	// blasts m.Asserts incrementally and can never un-blast: if a caller
	// replaces or truncates already-blasted asserts (EquivPair.Check
	// splices the model's assert list, and anything invalidating the
	// compile cache mid-session has the same effect), the solver state no
	// longer corresponds to the model and every later verdict would be
	// silently stale. Check detects the mismatch and returns
	// ErrSessionInvalidated instead.
	lastBlasted *smt.Term
	checks      int

	proof *sat.Proof // non-nil when Options.Certify or Options.Blame is on

	// blameAsserts/blameOrigins mirror every shared assert blasted into
	// the session with its provenance, for SAT-side blame (Options.Blame).
	blameAsserts []*smt.Term
	blameOrigins [][]int32

	setupCompile  time.Duration
	setupEncode   time.Duration
	setupSimplify time.Duration

	// setupCost is the one-time session ledger (compile, shared blast,
	// simplify); per-check Results carry their own ledgers. The service
	// grafts this under the session-creating job's cost tree.
	setupCost *cost.Node
}

// ErrSessionInvalidated is returned by Session.Check when the model's
// assert list was replaced or truncated after the session blasted it,
// so the session's solver state no longer matches the model. Callers
// must open a new session (or re-check with Model.Check, which
// recompiles).
var ErrSessionInvalidated = errors.New(
	"core: session invalidated: already-blasted model asserts were replaced or truncated")

// NewSession compiles the model (reusing a cached CompiledNetwork when
// available), blasts the compiled constraint system into a fresh
// incremental session, and simplifies it once. The setup cost is
// reported by SetupElapsed, not folded into the first check's Result.
func (m *Model) NewSession() *Session {
	s := &Session{m: m, ss: smt.NewSession(m.Ctx)}
	sp := m.Obs.Start("session")
	defer sp.End()
	if m.ProgressEvery > 0 && m.OnProgress != nil {
		s.ss.Solver().SetProgress(m.ProgressEvery, m.OnProgress)
	}
	track := m.Opts.Blame || m.Opts.ProfileOrigins
	if track {
		s.ss.Solver().EnableOriginTracking()
	}
	if m.Opts.Certify || m.Opts.Blame {
		s.proof = s.ss.Solver().EnableProof()
	}

	s.setupCost = cost.New("session-setup")
	msnap := cost.TakeSnap()
	compiles := m.compiles
	cn := m.Compile()
	if m.compiles != compiles {
		s.setupCompile = cn.Elapsed
		msnap = s.setupCost.Child("compile").Charge(msnap)
	}
	if m.Opts.Blame {
		s.blameAsserts = append([]*smt.Term(nil), cn.Asserts...)
		s.blameOrigins = append([][]int32(nil), cn.Origins...)
	}

	blastSp := sp.Start("blast")
	start := time.Now()
	for i, a := range cn.Asserts {
		if track {
			if i < len(cn.Origins) {
				s.ss.Solver().SetOrigin(cn.Origins[i]...)
			} else {
				s.ss.Solver().SetOrigin()
			}
		}
		s.ss.Assert(a)
	}
	if track {
		s.ss.Solver().SetOrigin()
	}
	s.asserted = cn.BaseLen
	if cn.BaseLen > 0 {
		s.lastBlasted = m.Asserts[cn.BaseLen-1]
	}
	s.setupEncode = time.Since(start)
	blastSp.SetInt("asserts", int64(len(cn.Asserts)))
	blastSp.SetInt("sat_vars", int64(s.ss.Solver().NumSATVars()))
	blastSp.SetInt("sat_clauses", int64(s.ss.Solver().NumSATClauses()))
	blastSp.End()
	blastNode := s.setupCost.Child("blast")
	msnap = blastNode.Charge(msnap)
	stBlast := s.ss.Solver().SATStats()
	dbBlast := s.ss.Solver().SATSolver().ClauseDBBytes()
	blastNode.Add(cost.FromStats(stBlast).Plus(cost.Work{ClauseDBBytes: dbBlast}))

	simpSp := sp.Start("simplify")
	start = time.Now()
	s.ss.Simplify()
	s.setupSimplify = time.Since(start)
	simpSp.SetInt("clauses_after", int64(s.ss.Solver().NumSATClauses()))
	simpSp.End()
	simpNode := s.setupCost.Child("simplify")
	simpNode.Charge(msnap)
	simpNode.Add(cost.FromStats(s.ss.Solver().SATStats()).Minus(cost.FromStats(stBlast)).
		Plus(cost.Work{ClauseDBBytes: s.ss.Solver().SATSolver().ClauseDBBytes() - dbBlast}))
	return s
}

// SetupCost returns the session's one-time setup ledger (compile, shared
// blast, simplify). The tree is owned by the session; callers merge or
// graft it, they do not mutate it.
func (s *Session) SetupCost() *cost.Node { return s.setupCost }

// SolverStats returns the session solver's cumulative counters — not a
// per-check delta. Service budgets baseline against it at check start so
// progress-hook snapshots (also cumulative) can be turned into per-check
// spend.
func (s *Session) SolverStats() sat.Stats { return s.ss.Solver().SATStats() }

// SetupElapsed returns the one-time session cost: the shared blast and
// the simplification work that ran in NewSession (term-level compile
// passes, when the session triggered them, plus the top-level CNF
// simplification).
func (s *Session) SetupElapsed() (encode, simplify time.Duration) {
	return s.setupEncode, s.setupCompile + s.setupSimplify
}

// Compiled returns the compilation artifact the session was built from.
func (s *Session) Compiled() *CompiledNetwork { return s.m.Compile() }

// SharedBlasts reports how many times the shared formula N was blasted —
// 1 for the session's whole lifetime, however many checks run.
func (s *Session) SharedBlasts() int { return s.ss.SharedBlasts() }

// Checks returns the number of completed checks.
func (s *Session) Checks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checks
}

// SATVars returns the current size of the blasted formula.
func (s *Session) SATVars() int { return s.ss.Solver().NumSATVars() }

// SATClauses returns the current number of problem clauses.
func (s *Session) SATClauses() int { return s.ss.Solver().NumSATClauses() }

// Check decides whether the property holds in every stable state, like
// Model.Check but reusing the session's blasted formula.
func (s *Session) Check(property *smt.Term, assumptions ...*smt.Term) (*Result, error) {
	return s.CheckContext(context.Background(), property, assumptions...)
}

// CheckContext is Check with cancellation: when ctx is canceled or times
// out mid-search, the solver is interrupted and ctx's error is returned.
func (s *Session) CheckContext(ctx context.Context, property *smt.Term, assumptions ...*smt.Term) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := s.m
	if !psolve.ValidMode(m.Opts.Parallel) {
		return nil, fmt.Errorf("core: unknown parallel mode %q", m.Opts.Parallel)
	}
	c := m.Ctx
	sp := m.Obs.Start("session-check")
	defer sp.End()

	// The session only ever appends to the solver: verify the blasted
	// prefix of m.Asserts is still the one we blasted before trusting it.
	if len(m.Asserts) < s.asserted ||
		(s.asserted > 0 && m.Asserts[s.asserted-1] != s.lastBlasted) {
		return nil, ErrSessionInvalidated
	}

	// Phase 1: blast instrumentation asserts added by property builders
	// since the last check (permanent), then the goals under a fresh
	// activation literal.
	ledger := cost.New("goal")
	msnap := cost.TakeSnap()
	blastNode := ledger.Child("blast")
	stBefore := s.ss.Solver().SATStats()
	dbBefore := s.ss.Solver().SATSolver().ClauseDBBytes()
	cnfSp := sp.Start("cnf")
	encStart := time.Now()
	track := m.Opts.Blame || m.Opts.ProfileOrigins
	newShared := len(m.Asserts) - s.asserted
	for i := s.asserted; i < len(m.Asserts); i++ {
		a := m.Asserts[i]
		if track {
			var o []int32
			if i < len(m.AssertOrigins) {
				o = []int32{m.Prov.ID(m.AssertOrigins[i])}
			}
			s.ss.Solver().SetOrigin(o...)
			if m.Opts.Blame {
				s.blameAsserts = append(s.blameAsserts, a)
				s.blameOrigins = append(s.blameOrigins, o)
			}
		}
		s.ss.Assert(a)
	}
	s.asserted = len(m.Asserts)
	if s.asserted > 0 {
		s.lastBlasted = m.Asserts[s.asserted-1]
	}
	goals := make([]*smt.Term, 0, len(assumptions)+1)
	goals = append(goals, assumptions...)
	goals = append(goals, c.Not(property))
	if track {
		s.ss.Solver().SetOrigin(m.Prov.ID(provenance.Origin{Kind: "property"}))
	}
	s.ss.Prepare(goals...)
	if track {
		s.ss.Solver().SetOrigin()
	}
	encodeElapsed := time.Since(encStart)
	satVars, satClauses := s.ss.Solver().NumSATVars(), s.ss.Solver().NumSATClauses()
	cnfSp.SetInt("new_shared_asserts", int64(newShared))
	cnfSp.SetInt("goals", int64(len(goals)))
	cnfSp.SetInt("sat_vars", int64(satVars))
	cnfSp.SetInt("sat_clauses", int64(satClauses))
	cnfSp.End()
	msnap = blastNode.Charge(msnap)
	stEnc := s.ss.Solver().SATStats()
	dbEnc := s.ss.Solver().SATSolver().ClauseDBBytes()
	blastNode.Add(cost.FromStats(stEnc).Minus(cost.FromStats(stBefore)).
		Plus(cost.Work{ClauseDBBytes: dbEnc - dbBefore}))

	// Phase 2: CDCL search under the activation literal, with optional
	// cancellation. The watcher is joined before the interrupt flag is
	// cleared so a late Interrupt cannot leak into the next check. With a
	// parallel strategy on, the search runs on clones of the session
	// solver (which stays untouched and reusable); the session is told
	// the adopted cumulative counters so per-check deltas stay right.
	solveSp := sp.Start("solve")
	solveStart := time.Now()
	var status sat.Status
	var outcome *psolve.Outcome
	if m.parallelEnabled() {
		var perr error
		outcome, perr = psolve.Solve(ctx, s.ss.Solver().SATSolver(),
			m.parallelOptions(s.ss.Solver()), s.ss.Assumptions()...)
		if perr != nil {
			solveSp.End()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: parallel solve: %w", perr)
		}
		status = outcome.Status
		s.ss.FinishExternalSolve(outcome.Stats)
	} else {
		stopWatch := watchInterrupt(ctx, s.ss.Interrupt)
		status = s.ss.Solve()
		stopWatch()
		s.ss.ResetInterrupt()
	}
	solveElapsed := time.Since(solveStart)
	s.checks++
	st := s.ss.LastStats().Stats
	solveSp.SetStr("status", status.String())
	solveSp.SetInt("conflicts", st.Conflicts)
	solveSp.SetInt("decisions", st.Decisions)
	solveSp.SetInt("propagations", st.Propagations)
	solveSp.SetInt("learned", st.Learned)
	solveSp.End()
	solveNode := ledger.Child("solve")
	msnap = solveNode.Charge(msnap)
	if outcome != nil {
		chargeParallelSolve(solveNode, outcome, cost.FromStats(st))
	} else {
		w := cost.FromStats(s.ss.Solver().SATStats()).Minus(cost.FromStats(stEnc))
		w.ClauseDBBytes = s.ss.Solver().SATSolver().ClauseDBBytes() - dbEnc
		solveNode.Add(w)
	}

	res := &Result{
		Elapsed:       encodeElapsed + solveElapsed,
		EncodeElapsed: encodeElapsed,
		SolveElapsed:  solveElapsed,
		SATVars:       satVars,
		SATClauses:    satClauses,
		Stats:         st,
	}
	if outcome != nil {
		res.Portfolio = outcome.Portfolio
		res.Cube = outcome.Cube
	}
	switch status {
	case sat.Unsat:
		res.Verified = true
		if s.proof != nil {
			// The session's UNSAT is relative to its activation literal;
			// the checker gets it as an assumption. The trace replayed is
			// cumulative over the session's whole life, so certification
			// cost grows with the number of checks. A parallel run's trace
			// is the adopted one (winner's or stitched), resolved against
			// whichever origin tables recorded it.
			checkProof, bases := s.proof, s.ss.Solver().OriginSetBases
			if outcome != nil {
				checkProof, bases = outcome.Proof, outcome.OriginBases
			}
			cert, core, err := certify(sp, checkProof, m.Opts.Blame, s.ss.Assumptions()...)
			if err != nil {
				return nil, err
			}
			certNode := ledger.Child("certify")
			msnap = certNode.Charge(msnap)
			certNode.Add(cost.Work{ProofBytes: checkProof.Bytes()})
			res.Certificate = cert
			res.CertifyElapsed = cert.CheckElapsed
			res.Elapsed += res.CertifyElapsed
			if m.Opts.Blame {
				res.Blame = m.blameFromCore(bases, checkProof, core)
				msnap = ledger.Child("blame").Charge(msnap)
			}
		}
	case sat.Sat:
		dSp := sp.Start("decode")
		asg := s.ss.Model()
		if outcome != nil {
			asg = s.ss.Solver().ModelFrom(outcome.Winner)
		}
		res.Counterexample = m.Decode(asg)
		dSp.End()
		msnap = ledger.Child("decode").Charge(msnap)
		if m.Opts.Blame {
			res.Blame = m.blameSat(s.blameAsserts, s.blameOrigins, res.Counterexample.Assignment)
			msnap = ledger.Child("blame").Charge(msnap)
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
			res.OriginProfile = m.originProfile(s.ss.Solver())
		}
	}
	ledger.Charge(msnap)
	res.Cost = ledger
	return res, nil
}
