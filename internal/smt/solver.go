package smt

import (
	"fmt"

	"repro/internal/sat"
)

// Solver decides satisfiability of asserted boolean terms by bit-blasting
// bitvector structure and Tseitin-encoding boolean structure into a CDCL
// SAT solver. It can be used incrementally: Assert may be called after a
// Check, and Check re-solves with all constraints.
type Solver struct {
	ctx *Context
	sat *sat.Solver

	trueLit sat.Lit

	boolMemo map[*Term]sat.Lit
	bvMemo   map[*Term][]sat.Lit
	gateMemo map[gateKey]sat.Lit
}

type gateKey struct {
	op      uint8
	a, b, c sat.Lit
}

const (
	gateAnd uint8 = iota
	gateXor
	gateIte
)

// NewSolver returns a solver for terms of the given context.
func NewSolver(ctx *Context) *Solver {
	s := &Solver{
		ctx:      ctx,
		sat:      sat.New(),
		boolMemo: make(map[*Term]sat.Lit),
		bvMemo:   make(map[*Term][]sat.Lit),
		gateMemo: make(map[gateKey]sat.Lit),
	}
	s.trueLit = sat.MkLit(s.sat.NewVar(), false)
	s.sat.AddClause(s.trueLit)
	return s
}

// Context returns the term context the solver was created with.
func (s *Solver) Context() *Context { return s.ctx }

// SATStats exposes the underlying SAT solver statistics.
func (s *Solver) SATStats() sat.Stats { return s.sat.Stats }

// NumSATVars returns the number of SAT variables created by blasting.
func (s *Solver) NumSATVars() int { return s.sat.NumVars() }

// NumSATClauses returns the number of problem clauses created by blasting.
func (s *Solver) NumSATClauses() int { return s.sat.NumClauses() }

// ClauseDBBytes is the SAT clause database's current size.
func (s *Solver) ClauseDBBytes() int64 { return s.sat.ClauseDBBytes() }

// SetMaxConflicts bounds search effort; 0 means unbounded.
func (s *Solver) SetMaxConflicts(n int64) { s.sat.MaxConflicts = n }

// SetProgress installs a periodic progress hook on the SAT search: fn is
// called every `every` conflicts with a snapshot of the work counters.
// fn runs on the solving goroutine; every ≤ 0 or a nil fn disables it.
func (s *Solver) SetProgress(every int64, fn func(sat.Progress)) {
	s.sat.ProgressEvery = every
	s.sat.OnProgress = fn
}

// NumGates returns the number of memoized Tseitin gate variables created
// by blasting, a measure of shared circuit structure.
func (s *Solver) NumGates() int { return len(s.gateMemo) }

// Simplify performs top-level simplification of the blasted CNF (root
// propagation, satisfied-clause removal, literal strengthening). It
// returns false when the assertions are already unsatisfiable.
func (s *Solver) Simplify() bool { return s.sat.Simplify() }

// Clauses exposes the blasted problem clauses (for DIMACS export).
func (s *Solver) Clauses() [][]sat.Lit { return s.sat.Clauses() }

// EnableProof turns on DRAT proof logging in the underlying SAT solver
// and returns the growing trace. Call before Check so the trace covers
// the whole database; an Unsat verdict can then be validated with
// drat.Check.
func (s *Solver) EnableProof() *sat.Proof { return s.sat.EnableProof() }

// Proof returns the recorded trace, or nil when logging is off.
func (s *Solver) Proof() *sat.Proof { return s.sat.Proof() }

// EnableOriginTracking turns on per-origin attribution in the underlying
// SAT solver. Enable before asserting so every blasted clause carries the
// origin current at Assert time.
func (s *Solver) EnableOriginTracking() { s.sat.EnableOriginTracking() }

// SetOrigin declares the base origin ids of the constraints asserted
// next. Tseitin gate clauses memoized across asserts keep their first
// creator's origin; that is sound for blame because every semantically
// contributing assert also emits root clauses under its own origin.
func (s *Solver) SetOrigin(bases ...int32) { s.sat.SetOrigin(bases...) }

// OriginSetBases resolves an interned origin-set id (as recorded on
// proof steps) to its base origin ids. The slice is owned by the solver.
func (s *Solver) OriginSetBases(id int32) []int32 { return s.sat.OriginSetBases(id) }

// OriginSnapshot copies the interned origin sets and their work counters.
func (s *Solver) OriginSnapshot() ([][]int32, []sat.OriginCounts) { return s.sat.OriginSnapshot() }

// Assert adds a boolean term as a constraint. Top-level conjunctions and
// disjunctions are clausified directly without auxiliary gate variables.
func (s *Solver) Assert(t *Term) {
	mustBool("assert", t)
	s.assertTrue(t)
}

func (s *Solver) assertTrue(t *Term) {
	switch t.op {
	case OpTrue:
		return
	case OpFalse:
		s.sat.AddClause() // empty clause: unsat
		return
	case OpAnd:
		for _, k := range t.kids {
			s.assertTrue(k)
		}
		return
	case OpOr:
		lits := make([]sat.Lit, len(t.kids))
		for i, k := range t.kids {
			lits[i] = s.lit(k)
		}
		s.sat.AddClause(lits...)
		return
	case OpNot:
		s.sat.AddClause(s.lit(t.kids[0]).Not())
		return
	}
	s.sat.AddClause(s.lit(t))
}

// AssertUnder adds t as a constraint guarded by the activation literal
// act: every top-level clause carries ¬act, encoding act → t, so t binds
// only while act is assumed. Sub-term Tseitin gates are definitional
// equivalences and stay unguarded, which is what lets later checks reuse
// them. Adding the unit clause ¬act (RetireLit) retires t for good.
func (s *Solver) AssertUnder(t *Term, act sat.Lit) {
	mustBool("assert", t)
	s.assertImplied(t, act.Not())
}

func (s *Solver) assertImplied(t *Term, na sat.Lit) {
	switch t.op {
	case OpTrue:
		return
	case OpFalse:
		s.sat.AddClause(na)
		return
	case OpAnd:
		for _, k := range t.kids {
			s.assertImplied(k, na)
		}
		return
	case OpOr:
		lits := make([]sat.Lit, 0, len(t.kids)+1)
		lits = append(lits, na)
		for _, k := range t.kids {
			lits = append(lits, s.lit(k))
		}
		s.sat.AddClause(lits...)
		return
	case OpNot:
		s.sat.AddClause(na, s.lit(t.kids[0]).Not())
		return
	}
	s.sat.AddClause(na, s.lit(t))
}

// NewFreeLit allocates a fresh SAT literal bound to no term, for use as an
// activation/assumption literal by the incremental Session.
func (s *Solver) NewFreeLit() sat.Lit { return sat.MkLit(s.sat.NewVar(), false) }

// RetireLit permanently falsifies a literal, disabling every clause
// guarded by it.
func (s *Solver) RetireLit(l sat.Lit) { s.sat.AddClause(l.Not()) }

// Check decides the conjunction of all assertions so far.
func (s *Solver) Check() sat.Status { return s.sat.Solve() }

// CheckAssuming decides the assertions under additional assumption
// literals (without adding them as clauses).
func (s *Solver) CheckAssuming(assumptions ...sat.Lit) sat.Status {
	return s.sat.Solve(assumptions...)
}

// Interrupt asks a running check to abort; safe from other goroutines.
func (s *Solver) Interrupt() { s.sat.Interrupt() }

// ResetInterrupt clears a pending interrupt once the canceling goroutine
// has been joined, so the solver can be reused.
func (s *Solver) ResetInterrupt() { s.sat.ResetInterrupt() }

// CheckLimited is Check with the configured conflict budget.
func (s *Solver) CheckLimited() (sat.Status, error) { return s.sat.SolveLimited() }

// Model extracts concrete values for every context variable after a Sat
// result. Variables that never appeared in an assertion get zero values.
func (s *Solver) Model() Assignment {
	m := make(Assignment)
	for _, v := range s.ctx.Vars() {
		if v.IsBool() {
			if l, ok := s.boolMemo[v]; ok {
				m[v.name] = Value{Bool: s.sat.ValueLit(l) == sat.True}
			} else {
				m[v.name] = Value{}
			}
			continue
		}
		bits, ok := s.bvMemo[v]
		if !ok {
			m[v.name] = Value{}
			continue
		}
		var x uint64
		for i, b := range bits {
			if s.sat.ValueLit(b) == sat.True {
				x |= uint64(1) << i
			}
		}
		m[v.name] = Value{BV: x}
	}
	return m
}

// lit returns the SAT literal representing boolean term t, creating gate
// variables as needed (Tseitin encoding).
func (s *Solver) lit(t *Term) sat.Lit {
	if l, ok := s.boolMemo[t]; ok {
		return l
	}
	var l sat.Lit
	switch t.op {
	case OpTrue:
		l = s.trueLit
	case OpFalse:
		l = s.trueLit.Not()
	case OpBoolVar:
		l = sat.MkLit(s.sat.NewVar(), false)
	case OpNot:
		l = s.lit(t.kids[0]).Not()
	case OpAnd:
		lits := make([]sat.Lit, len(t.kids))
		for i, k := range t.kids {
			lits[i] = s.lit(k)
		}
		l = s.mkAndN(lits)
	case OpOr:
		lits := make([]sat.Lit, len(t.kids))
		for i, k := range t.kids {
			lits[i] = s.lit(k).Not()
		}
		l = s.mkAndN(lits).Not()
	case OpIte:
		if t.IsBool() {
			l = s.mkIte(s.lit(t.kids[0]), s.lit(t.kids[1]), s.lit(t.kids[2]))
		} else {
			panic("smt: bitvector ite has no boolean literal")
		}
	case OpEq:
		a, b := t.kids[0], t.kids[1]
		if a.IsBool() {
			l = s.mkXor(s.lit(a), s.lit(b)).Not()
		} else {
			x, y := s.bits(a), s.bits(b)
			eqs := make([]sat.Lit, len(x))
			for i := range x {
				eqs[i] = s.mkXor(x[i], y[i]).Not()
			}
			l = s.mkAndN(eqs)
		}
	case OpBVUle:
		l = s.mkCompare(t.kids[0], t.kids[1], true)
	case OpBVUlt:
		l = s.mkCompare(t.kids[0], t.kids[1], false)
	default:
		panic(fmt.Sprintf("smt: lit: non-boolean op %d", t.op))
	}
	s.boolMemo[t] = l
	return l
}

// bits returns the SAT literals for each bit of a bitvector term, LSB
// first.
func (s *Solver) bits(t *Term) []sat.Lit {
	if bs, ok := s.bvMemo[t]; ok {
		return bs
	}
	w := t.Width()
	var bs []sat.Lit
	switch t.op {
	case OpBVVar:
		bs = make([]sat.Lit, w)
		for i := range bs {
			bs[i] = sat.MkLit(s.sat.NewVar(), false)
		}
	case OpBVConst:
		bs = make([]sat.Lit, w)
		for i := range bs {
			if t.val&(uint64(1)<<i) != 0 {
				bs[i] = s.trueLit
			} else {
				bs[i] = s.trueLit.Not()
			}
		}
	case OpBVAdd:
		bs = s.mkAdder(s.bits(t.kids[0]), s.bits(t.kids[1]), s.trueLit.Not())
	case OpBVSub:
		// a - b = a + ¬b + 1
		nb := s.bits(t.kids[1])
		inv := make([]sat.Lit, len(nb))
		for i, b := range nb {
			inv[i] = b.Not()
		}
		bs = s.mkAdder(s.bits(t.kids[0]), inv, s.trueLit)
	case OpBVAnd:
		x, y := s.bits(t.kids[0]), s.bits(t.kids[1])
		bs = make([]sat.Lit, w)
		for i := range bs {
			bs[i] = s.mkAnd(x[i], y[i])
		}
	case OpIte:
		c := s.lit(t.kids[0])
		x, y := s.bits(t.kids[1]), s.bits(t.kids[2])
		bs = make([]sat.Lit, w)
		for i := range bs {
			bs[i] = s.mkIte(c, x[i], y[i])
		}
	default:
		panic(fmt.Sprintf("smt: bits: non-bitvector op %d", t.op))
	}
	s.bvMemo[t] = bs
	return bs
}

// mkAdder builds a ripple-carry adder and returns the sum bits.
func (s *Solver) mkAdder(a, b []sat.Lit, carry sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	for i := range a {
		axb := s.mkXor(a[i], b[i])
		out[i] = s.mkXor(axb, carry)
		if i+1 < len(a) {
			// carry' = (a ∧ b) ∨ (carry ∧ (a ⊕ b))
			carry = s.mkAnd(s.mkAnd(a[i], b[i]).Not(), s.mkAnd(carry, axb).Not()).Not()
		}
	}
	return out
}

// mkCompare builds the unsigned comparison circuit for a ≤ b (orEqual) or
// a < b, folding constant prefixes.
func (s *Solver) mkCompare(ta, tb *Term, orEqual bool) sat.Lit {
	a, b := s.bits(ta), s.bits(tb)
	// From LSB to MSB: acc = lt(a_i,b_i) ∨ (eq(a_i,b_i) ∧ acc).
	var acc sat.Lit
	if orEqual {
		acc = s.trueLit
	} else {
		acc = s.trueLit.Not()
	}
	for i := 0; i < len(a); i++ {
		lt := s.mkAnd(a[i].Not(), b[i])
		eq := s.mkXor(a[i], b[i]).Not()
		acc = s.mkAnd(s.mkAnd(eq, acc).Not(), lt.Not()).Not() // lt ∨ (eq ∧ acc)
	}
	return acc
}

// mkAnd returns a literal equivalent to a ∧ b, folding constants and
// memoizing gates.
func (s *Solver) mkAnd(a, b sat.Lit) sat.Lit {
	tl, fl := s.trueLit, s.trueLit.Not()
	switch {
	case a == fl || b == fl:
		return fl
	case a == tl:
		return b
	case b == tl:
		return a
	case a == b:
		return a
	case a == b.Not():
		return fl
	}
	if a > b {
		a, b = b, a
	}
	k := gateKey{gateAnd, a, b, 0}
	if g, ok := s.gateMemo[k]; ok {
		return g
	}
	g := sat.MkLit(s.sat.NewVar(), false)
	s.sat.AddClause(g.Not(), a)
	s.sat.AddClause(g.Not(), b)
	s.sat.AddClause(a.Not(), b.Not(), g)
	s.gateMemo[k] = g
	return g
}

// mkAndN folds a slice of literals into a single conjunction literal.
func (s *Solver) mkAndN(lits []sat.Lit) sat.Lit {
	tl, fl := s.trueLit, s.trueLit.Not()
	// Filter constants first so the n-ary gate stays small.
	var kids []sat.Lit
	for _, l := range lits {
		if l == fl {
			return fl
		}
		if l == tl {
			continue
		}
		kids = append(kids, l)
	}
	switch len(kids) {
	case 0:
		return tl
	case 1:
		return kids[0]
	case 2:
		return s.mkAnd(kids[0], kids[1])
	}
	g := sat.MkLit(s.sat.NewVar(), false)
	long := make([]sat.Lit, 0, len(kids)+1)
	for _, l := range kids {
		s.sat.AddClause(g.Not(), l)
		long = append(long, l.Not())
	}
	long = append(long, g)
	s.sat.AddClause(long...)
	return g
}

// mkXor returns a literal equivalent to a ⊕ b.
func (s *Solver) mkXor(a, b sat.Lit) sat.Lit {
	tl, fl := s.trueLit, s.trueLit.Not()
	switch {
	case a == fl:
		return b
	case b == fl:
		return a
	case a == tl:
		return b.Not()
	case b == tl:
		return a.Not()
	case a == b:
		return fl
	case a == b.Not():
		return tl
	}
	// Canonicalize: strip shared negations so x⊕y and ¬x⊕¬y share a gate.
	neg := false
	if a.Neg() {
		a, neg = a.Not(), !neg
	}
	if b.Neg() {
		b, neg = b.Not(), !neg
	}
	if a > b {
		a, b = b, a
	}
	k := gateKey{gateXor, a, b, 0}
	g, ok := s.gateMemo[k]
	if !ok {
		g = sat.MkLit(s.sat.NewVar(), false)
		s.sat.AddClause(g.Not(), a, b)
		s.sat.AddClause(g.Not(), a.Not(), b.Not())
		s.sat.AddClause(g, a.Not(), b)
		s.sat.AddClause(g, a, b.Not())
		s.gateMemo[k] = g
	}
	if neg {
		return g.Not()
	}
	return g
}

// mkIte returns a literal equivalent to (c ? a : b).
func (s *Solver) mkIte(c, a, b sat.Lit) sat.Lit {
	tl, fl := s.trueLit, s.trueLit.Not()
	switch {
	case c == tl:
		return a
	case c == fl:
		return b
	case a == b:
		return a
	case a == tl && b == fl:
		return c
	case a == fl && b == tl:
		return c.Not()
	case a == tl:
		return s.mkAnd(c.Not(), b.Not()).Not() // c ∨ b
	case a == fl:
		return s.mkAnd(c.Not(), b)
	case b == tl:
		return s.mkAnd(c, a.Not()).Not() // ¬c ∨ a
	case b == fl:
		return s.mkAnd(c, a)
	}
	if c.Neg() {
		c, a, b = c.Not(), b, a
	}
	k := gateKey{gateIte, c, a, b}
	if g, ok := s.gateMemo[k]; ok {
		return g
	}
	g := sat.MkLit(s.sat.NewVar(), false)
	s.sat.AddClause(c.Not(), a.Not(), g)
	s.sat.AddClause(c.Not(), a, g.Not())
	s.sat.AddClause(c, b.Not(), g)
	s.sat.AddClause(c, b, g.Not())
	// Redundant but propagation-strengthening clauses.
	s.sat.AddClause(a.Not(), b.Not(), g)
	s.sat.AddClause(a, b, g.Not())
	s.gateMemo[k] = g
	return g
}
