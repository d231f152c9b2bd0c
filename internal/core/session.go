package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/obs/cost"
	"repro/internal/sat"
	"repro/internal/smt"
)

// Session answers many property queries against one encoded network. The
// model's constraint system N is bit-blasted into the session's solver
// exactly once; each CheckContext blasts only the assumptions and the
// negated property, under a fresh activation literal the search assumes.
// K checks cost one blast of N instead of K, and the solver keeps its
// learned clauses, variable activity and saved phases from check to check.
// Results have the same shape as Model.CheckGoal's, with per-check phase
// timings and per-check solver work: Stats counts from the point the
// check's ledger does, not from the session's start.
//
// Property constructors (Waypointed, BoundedLength, ...) may append
// instrumentation constraints to Model.Asserts while building their
// terms; CheckContext picks up any asserts added since the previous check
// and blasts them as permanent constraints before solving, so the usual
// "build property, then check it" flow works unchanged.
//
// A Session serializes its checks internally, so it is safe to call
// CheckContext from multiple goroutines — they simply queue. Note that
// building property terms mutates the model's term context, which is NOT
// synchronized; callers sharing a Model across goroutines must serialize
// property construction themselves (the service layer holds one lock per
// network around build+check).
type Session struct {
	m   *Model
	mu  sync.Mutex
	sol *smt.Solver
	cn  *CompiledNetwork // what NewSession blasted
	// act is the activation literal the last check's goals entered under;
	// 0, which is never one (variable 0 is the solver's constant true),
	// before the first.
	act sat.Lit

	asserted int // prefix of m.Asserts already blasted as shared
	// lastBlasted remembers the final assert of that prefix. The session
	// blasts m.Asserts incrementally and can never un-blast: if a caller
	// replaces or truncates already-blasted asserts (EquivPair.Check
	// splices the model's assert list, and anything invalidating the
	// compile cache mid-session has the same effect), the solver state no
	// longer corresponds to the model and every later verdict would be
	// silently stale. CheckContext detects the mismatch and returns
	// ErrSessionInvalidated instead.
	lastBlasted *smt.Term
	checks      int

	proof *sat.Proof // non-nil when Options.Certify or Options.Blame is on

	// setupCost is the one-time session ledger (compile, shared blast,
	// simplify); per-check Results carry their own ledgers. The service
	// grafts this under the session-creating job's cost tree.
	setupCost *cost.Node
}

// ErrSessionInvalidated is returned by Session.CheckContext when the
// model's assert list was replaced or truncated after the session blasted
// it, so the session's solver state no longer matches the model. Callers
// must open a new session (or re-check with Model.CheckGoal, which
// recompiles).
var ErrSessionInvalidated = errors.New(
	"core: session invalidated: already-blasted model asserts were replaced or truncated")

// NewSession compiles the model (reusing a cached CompiledNetwork when
// available), blasts the compiled constraint system into a fresh
// incremental session, and simplifies it once. The setup cost is
// reported by SetupCost, not folded into the first check's Result.
func (m *Model) NewSession() *Session {
	s := &Session{m: m, sol: smt.NewSolver(m.Ctx)}
	x := m.newExecutor(s.sol, "session", "session-setup")
	defer x.Span.End()
	s.proof = m.instrument(x.sol)
	s.cn, _ = x.compile(nil, nil, nil)
	x.blast(s.sol.Assert, s.cn.Asserts, s.cn.Origins, nil)
	s.noteBlasted(s.cn.BaseLen)
	x.simplify()
	s.setupCost = x.Ledger
	return s
}

// prepare begins a check: it retires the previous check's activation
// literal with the unit clause ¬act, which disables every clause its goals
// left for good, takes a fresh one, and blasts the goals under it. Only a
// goal's top-level clauses carry the literal; its sub-term Tseitin gates
// are definitional, so later checks reuse them and leaving them behind
// constrains nothing. A clause learned while act was assumed mentions ¬act
// (satisfied once act is retired) or is valid outright.
func (s *Session) prepare(goals []*smt.Term) {
	st := s.sol.SAT()
	if s.act != 0 {
		st.AddClause(s.act.Not())
	}
	s.act = sat.MkLit(st.NewVar(), false)
	for _, g := range goals {
		s.sol.AssertUnder(g, s.act)
	}
}

// noteBlasted records that m.Asserts[:n] is now in the solver.
func (s *Session) noteBlasted(n int) {
	s.asserted = n
	if n > 0 {
		s.lastBlasted = s.m.Asserts[n-1]
	}
}

// SetupCost returns the session's one-time setup ledger (compile, shared
// blast, simplify). The tree is owned by the session; callers merge or
// graft it, they do not mutate it.
func (s *Session) SetupCost() *cost.Node { return s.setupCost }

// Checks returns the number of completed checks.
func (s *Session) Checks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checks
}

// CheckContext is the session door into the executor: it decides whether
// the property holds in every stable state, like Model.CheckGoal, but on
// the session's blasted formula. When ctx is canceled or times out
// mid-search, the solver is interrupted and ctx's error is returned.
func (s *Session) CheckContext(ctx context.Context, property *smt.Term, assumptions ...*smt.Term) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.check(ctx, s, nil, property, assumptions)
}
