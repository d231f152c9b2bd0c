package smt

import (
	"repro/internal/sat"
)

// Session answers a sequence of satisfiability queries that share a large
// common formula N. The shared assertions are bit-blasted into the SAT
// solver exactly once; each Check blasts only its goals (assumptions and
// the negated property), guarded by a fresh activation literal that is
// assumed for the query and retired — by a permanent unit clause — when
// the next query begins. K queries therefore cost one blast of N instead
// of K, and the solver additionally keeps its learned clauses, variable
// activity and saved phases across queries.
//
// Soundness of the guard scheme: only top-level clauses of a goal carry
// the activation literal. Sub-term Tseitin gates are definitional
// equivalences (satisfiable under any assignment of their inputs), so
// leaving them behind cannot constrain later queries; clauses learned
// while an activation literal was assumed either mention its negation
// (and are satisfied once the literal is retired) or are globally valid.
//
// A Session is not safe for concurrent use; callers that share one across
// goroutines must serialize Check calls.
type Session struct {
	sol *Solver

	act    sat.Lit // current activation literal
	active bool

	checks       int
	sharedBlasts int

	// snapshots for per-check deltas
	statsBefore   sat.Stats
	varsBefore    int
	clausesBefore int
	last          CheckStats
}

// CheckStats describes the incremental work of one session check.
type CheckStats struct {
	// Stats is the SAT search work of this check alone (the underlying
	// solver counters are cumulative across the session).
	Stats sat.Stats
	// NewVars and NewClauses count the SAT variables and problem clauses
	// blasted for this check's goals — zero re-blasting of the shared
	// formula shows up here as small numbers that do not grow with N.
	NewVars, NewClauses int
}

// NewSession returns an empty session for terms of the given context.
func NewSession(ctx *Context) *Session {
	return &Session{sol: NewSolver(ctx)}
}

// Solver exposes the underlying incremental solver (stats, model, sizes).
func (ss *Session) Solver() *Solver { return ss.sol }

// Assumptions returns the solver assumptions of the current check (the
// activation literal of the last Prepare). An Unsat verdict certifies
// UNSAT(database ∧ assumptions); a DRAT check of the session's proof
// trace must therefore be given these literals.
func (ss *Session) Assumptions() []sat.Lit {
	if !ss.active {
		return nil
	}
	return []sat.Lit{ss.act}
}

// Assert adds a permanent constraint shared by every later check. The
// first Assert marks the shared blast; core uses SharedBlasts to prove
// the encoding is never repeated.
func (ss *Session) Assert(t *Term) {
	if ss.sharedBlasts == 0 {
		ss.sharedBlasts = 1
	}
	ss.sol.Assert(t)
}

// SharedBlasts reports how many times the shared formula was bit-blasted:
// 1 after the first Assert, forever. (A fresh-solver flow would pay one
// blast per query; the counter exists so benchmarks can assert the
// difference.)
func (ss *Session) SharedBlasts() int { return ss.sharedBlasts }

// Checks returns the number of Solve calls completed.
func (ss *Session) Checks() int { return ss.checks }

// Simplify runs top-level CNF simplification on the blasted shared
// formula. Activation literals are assumptions, never root facts, so
// simplification cannot erase guarded structure from earlier checks.
func (ss *Session) Simplify() bool { return ss.sol.Simplify() }

// Prepare begins a new check: it retires the previous activation literal,
// allocates a fresh one, and blasts the goals under it. Snapshot counters
// are reset so the following Solve reports per-check deltas.
func (ss *Session) Prepare(goals ...*Term) {
	if ss.active {
		ss.sol.RetireLit(ss.act)
	}
	ss.act = ss.sol.NewFreeLit()
	ss.active = true
	ss.varsBefore = ss.sol.NumSATVars()
	ss.clausesBefore = ss.sol.NumSATClauses()
	for _, g := range goals {
		ss.sol.AssertUnder(g, ss.act)
	}
	ss.statsBefore = ss.sol.SATStats()
}

// Solve decides shared ∧ goals for the goals of the last Prepare. After a
// Sat result the model remains readable (Model) until the next Prepare.
func (ss *Session) Solve() sat.Status {
	st := ss.sol.CheckAssuming(ss.act)
	ss.Finish()
	return st
}

// Finish closes the check begun by the last Prepare, recording its share
// of the solver's counters. Solve calls it; a caller that runs the search
// on Solver() itself under Assumptions() (core's executor, which makes it
// interruptible) calls it once the search has returned.
func (ss *Session) Finish() {
	ss.checks++
	ss.last = CheckStats{
		Stats:      statsDelta(ss.statsBefore, ss.sol.SATStats()),
		NewVars:    ss.sol.NumSATVars() - ss.varsBefore,
		NewClauses: ss.sol.NumSATClauses() - ss.clausesBefore,
	}
}

// Check is Prepare followed by Solve.
func (ss *Session) Check(goals ...*Term) sat.Status {
	ss.Prepare(goals...)
	return ss.Solve()
}

// LastStats returns the incremental work of the most recent Solve.
func (ss *Session) LastStats() CheckStats { return ss.last }

// Model extracts concrete values after a Sat result.
func (ss *Session) Model() Assignment { return ss.sol.Model() }

// Interrupt aborts a running Solve from another goroutine.
func (ss *Session) Interrupt() { ss.sol.Interrupt() }

// ResetInterrupt clears a pending interrupt; call only once the goroutine
// that might Interrupt has been joined.
func (ss *Session) ResetInterrupt() { ss.sol.ResetInterrupt() }

// statsDelta subtracts the monotone counters; MaxLevel, a high-water
// mark, is carried over from the later snapshot.
func statsDelta(before, after sat.Stats) sat.Stats {
	d := sat.Stats{
		Decisions:    after.Decisions - before.Decisions,
		Propagations: after.Propagations - before.Propagations,
		Conflicts:    after.Conflicts - before.Conflicts,
		Restarts:     after.Restarts - before.Restarts,
		Learned:      after.Learned - before.Learned,
		Deleted:      after.Deleted - before.Deleted,
		MaxLevel:     after.MaxLevel,
		Simplified:   after.Simplified - before.Simplified,
		Strengthened: after.Strengthened - before.Strengthened,
	}
	for i := range d.LBDHist {
		d.LBDHist[i] = after.LBDHist[i] - before.LBDHist[i]
	}
	return d
}
