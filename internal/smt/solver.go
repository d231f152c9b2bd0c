package smt

import (
	"fmt"
	"math/bits"

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

	// memo, by term id, is what each blasted term became: a boolean its
	// literal, a bitvector the index in bvBits of its lowest bit's literal
	// (the others follow), both plus one; 0 before. It grows with the
	// context: a session blasts terms made after its solver was.
	memo   []int32
	bvBits []sat.Lit

	// gates memoizes Tseitin gates by kind and input literals: open
	// addressing, linear probing, a power-of-two length kept at most half
	// full. A gate's output literal is never 0 (variable 0 is trueLit),
	// so out == 0 marks a free slot.
	gates  []gate
	nGates int

	scratch []sat.Lit // lit's stack of operand literals
}

// gate is one memoized gate, sixteen bytes: its input literals and its
// output. An ite's third input is a literal; the two-input kinds put
// their kind there, below any literal.
type gate struct {
	a, b, c sat.Lit
	out     sat.Lit
}

const (
	gateAnd sat.Lit = -1 - iota
	gateXor
)

// NewSolver returns a solver for terms of the given context.
func NewSolver(ctx *Context) *Solver {
	s := &Solver{ctx: ctx, sat: sat.New(), gates: make([]gate, 64)}
	s.trueLit = sat.MkLit(s.sat.NewVar(), false)
	s.sat.AddClause(s.trueLit)
	return s
}

// Reserve sizes the SAT solver for the blast of asserts of terms
// distinct term nodes in all, so that loading them regrows none of its
// arrays, its clause arena or the first entries of its watch lists. The
// room per term sits just above the narrow band the blaster's yield keeps
// to on network encodings (DESIGN §20: 5.8–6.3 variables, 18–21.5 clauses,
// 47–58 literals). It is a hint and not a bound: any value, 0 and one far
// too large included, yields the same variables and clauses in the same
// order; a wrong one costs time or memory.
func (s *Solver) Reserve(terms int) {
	vars := 7 * max(terms, 0)
	s.sat.Reserve(vars, 22*terms, 64*terms)
	// Nearly every variable is a gate's output.
	if n := 1 << bits.Len(uint(2*(s.nGates+vars))); n > len(s.gates) {
		s.resizeGates(n)
	}
}

// SAT is the CDCL solver the blaster loads. A caller searches it (under
// assumptions, interruptibly), reads its counters, sizes, proof and origin
// tables, and adds clauses over its own fresh variables to it directly;
// those bind every later Check like an Assert.
func (s *Solver) SAT() *sat.Solver { return s.sat }

// NumGates returns the number of memoized Tseitin gate variables created
// by blasting, a measure of shared circuit structure.
func (s *Solver) NumGates() int { return s.nGates }

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
// them. act is a fresh variable of SAT() no term is blasted to; adding
// the unit clause ¬act retires t for good.
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

// Check decides the conjunction of all assertions so far.
func (s *Solver) Check() sat.Status { return s.sat.Solve() }

// Model extracts concrete values for every context variable after a Sat
// result. Variables that never appeared in an assertion get zero values.
func (s *Solver) Model() Assignment {
	m := make(Assignment)
	for _, v := range s.ctx.Vars() {
		at, ok := s.blasted(v)
		if !ok {
			m[v.name] = Value{}
			continue
		}
		if v.IsBool() {
			m[v.name] = Value{Bool: s.sat.ValueLit(sat.Lit(at)) == sat.True}
			continue
		}
		var x uint64
		for i, b := range s.bvBits[at : int(at)+v.Width()] {
			if s.sat.ValueLit(b) == sat.True {
				x |= uint64(1) << i
			}
		}
		m[v.name] = Value{BV: x}
	}
	return m
}

// blasted returns what memo holds of t, false before t is blasted.
func (s *Solver) blasted(t *Term) (int32, bool) {
	if int(t.id) < len(s.memo) && s.memo[t.id] != 0 {
		return s.memo[t.id] - 1, true
	}
	return 0, false
}

func (s *Solver) setBlasted(t *Term, v int32) {
	if int(t.id) >= len(s.memo) {
		s.memo = append(s.memo, make([]int32, s.ctx.NumTerms()-len(s.memo))...)
	}
	s.memo[t.id] = v + 1
}

// lit returns the SAT literal representing boolean term t, creating gate
// variables as needed (Tseitin encoding).
func (s *Solver) lit(t *Term) sat.Lit {
	if l, ok := s.blasted(t); ok {
		return sat.Lit(l)
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
	case OpAnd, OpOr:
		// a ∨ b is ¬(¬a ∧ ¬b). The operands' literals go on the scratch
		// stack: blasting an operand pushes and pops its own above them.
		neg := t.op == OpOr
		base := len(s.scratch)
		for _, k := range t.kids {
			kl := s.lit(k)
			if neg {
				kl = kl.Not()
			}
			s.scratch = append(s.scratch, kl)
		}
		l = s.mkAndN(s.scratch[base:])
		s.scratch = s.scratch[:base]
		if neg {
			l = l.Not()
		}
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
			base := len(s.scratch)
			for i := range x {
				s.scratch = append(s.scratch, s.mkXor(x[i], y[i]).Not())
			}
			l = s.mkAndN(s.scratch[base:])
			s.scratch = s.scratch[:base]
		}
	case OpBVUle:
		l = s.mkCompare(t.kids[0], t.kids[1], true)
	case OpBVUlt:
		l = s.mkCompare(t.kids[0], t.kids[1], false)
	default:
		panic(fmt.Sprintf("smt: lit: non-boolean op %d", t.op))
	}
	s.setBlasted(t, int32(l))
	return l
}

// bits returns the SAT literals for each bit of a bitvector term, LSB
// first: a view of bvBits, which a later call may move — the view stays
// readable, its literals are final.
func (s *Solver) bits(t *Term) []sat.Lit {
	w := t.Width()
	if at, ok := s.blasted(t); ok {
		return s.bvBits[at : int(at)+w : int(at)+w]
	}
	var bs []sat.Lit
	switch t.op {
	case OpBVVar:
		bs = s.carve(w)
		for i := range bs {
			bs[i] = sat.MkLit(s.sat.NewVar(), false)
		}
	case OpBVConst:
		bs = s.carve(w)
		for i := range bs {
			if t.val&(uint64(1)<<i) != 0 {
				bs[i] = s.trueLit
			} else {
				bs[i] = s.trueLit.Not()
			}
		}
	case OpBVAdd:
		x, y := s.bits(t.kids[0]), s.bits(t.kids[1])
		bs = s.mkAdder(s.carve(w), x, y, s.trueLit.Not())
	case OpBVSub:
		// a - b = a + ¬b + 1. The subtrahend is blasted first: that order
		// is the order the variables are numbered in.
		y := s.bits(t.kids[1])
		x := s.bits(t.kids[0])
		base := len(s.scratch)
		for _, b := range y {
			s.scratch = append(s.scratch, b.Not())
		}
		bs = s.mkAdder(s.carve(w), x, s.scratch[base:], s.trueLit)
		s.scratch = s.scratch[:base]
	case OpBVAnd:
		x, y := s.bits(t.kids[0]), s.bits(t.kids[1])
		bs = s.carve(w)
		for i := range bs {
			bs[i] = s.mkAnd(x[i], y[i])
		}
	case OpIte:
		c := s.lit(t.kids[0])
		x, y := s.bits(t.kids[1]), s.bits(t.kids[2])
		bs = s.carve(w)
		for i := range bs {
			bs[i] = s.mkIte(c, x[i], y[i])
		}
	default:
		panic(fmt.Sprintf("smt: bits: non-bitvector op %d", t.op))
	}
	s.setBlasted(t, int32(len(s.bvBits)-w))
	return bs
}

// carve takes the next w literals of bvBits for a term whose operands
// have theirs: gates made while they are filled in take none.
func (s *Solver) carve(w int) []sat.Lit {
	at := len(s.bvBits)
	s.bvBits = append(s.bvBits, make([]sat.Lit, w)...)
	return s.bvBits[at : at+w : at+w]
}

// mkAdder builds a ripple-carry adder into out and returns it.
func (s *Solver) mkAdder(out, a, b []sat.Lit, carry sat.Lit) []sat.Lit {
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
	e := s.gate(a, b, gateAnd)
	if e.out != 0 {
		return e.out
	}
	g := sat.MkLit(s.sat.NewVar(), false)
	s.sat.AddClause(g.Not(), a)
	s.sat.AddClause(g.Not(), b)
	s.sat.AddClause(a.Not(), b.Not(), g)
	s.setGate(e, g)
	return g
}

// mkAndN folds a slice of literals into a single conjunction literal. It
// overwrites lits and may append to it.
func (s *Solver) mkAndN(lits []sat.Lit) sat.Lit {
	tl, fl := s.trueLit, s.trueLit.Not()
	// Filter constants first, in place, so the n-ary gate stays small.
	kids := lits[:0]
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
	for i, l := range kids {
		s.sat.AddClause(g.Not(), l)
		kids[i] = l.Not()
	}
	s.sat.AddClause(append(kids, g)...)
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
	e := s.gate(a, b, gateXor)
	g := e.out
	if g == 0 {
		g = sat.MkLit(s.sat.NewVar(), false)
		s.sat.AddClause(g.Not(), a, b)
		s.sat.AddClause(g.Not(), a.Not(), b.Not())
		s.sat.AddClause(g, a.Not(), b)
		s.sat.AddClause(g, a, b.Not())
		s.setGate(e, g)
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
	e := s.gate(c, a, b)
	if e.out != 0 {
		return e.out
	}
	g := sat.MkLit(s.sat.NewVar(), false)
	s.sat.AddClause(c.Not(), a.Not(), g)
	s.sat.AddClause(c.Not(), a, g.Not())
	s.sat.AddClause(c, b.Not(), g)
	s.sat.AddClause(c, b, g.Not())
	// Redundant but propagation-strengthening clauses.
	s.sat.AddClause(a.Not(), b.Not(), g)
	s.sat.AddClause(a, b, g.Not())
	s.setGate(e, g)
	return g
}

// gate returns the table slot of the gate over inputs a, b and c (a
// literal, or the kind of a two-input gate): the memoized gate if out is
// set, else the free slot setGate fills. Nothing may be looked up in
// between: the table does not move, but the slot is taken.
func (s *Solver) gate(a, b, c sat.Lit) *gate {
	const golden = 0x9E3779B97F4A7C15 // 2^64/φ
	h := ((uint64(uint32(a))<<32|uint64(uint32(b)))*golden>>29 ^ uint64(uint32(c))) * golden >> 32
	mask := len(s.gates) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		if e := &s.gates[i]; e.out == 0 || (e.a == a && e.b == b && e.c == c) {
			e.a, e.b, e.c = a, b, c
			return e
		}
	}
}

// setGate records g as the output of the gate whose free slot e is, and
// doubles a table it leaves more than half full.
func (s *Solver) setGate(e *gate, g sat.Lit) {
	e.out = g
	if s.nGates++; 2*s.nGates > len(s.gates) {
		s.resizeGates(2 * len(s.gates))
	}
}

// resizeGates moves the gates to a table of n slots, a power of two.
func (s *Solver) resizeGates(n int) {
	old := s.gates
	s.gates = make([]gate, n)
	for _, e := range old {
		if e.out != 0 {
			*s.gate(e.a, e.b, e.c) = e
		}
	}
}
