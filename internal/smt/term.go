// Package smt implements a small SMT solver for quantifier-free formulas
// over booleans and fixed-width bitvectors (QF_BV). It is the stand-in for
// Z3 in this Minesweeper reproduction: terms are built through a
// hash-consing Context, aggressively simplified on construction (playing
// the role of Z3's preprocessor), then bit-blasted and Tseitin-encoded
// into the CDCL solver in internal/sat.
package smt

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Op enumerates term constructors.
type Op uint8

// Term operators.
const (
	OpTrue Op = iota
	OpFalse
	OpBoolVar
	OpNot
	OpAnd
	OpOr
	OpIte // boolean or bitvector, by sort of branches
	OpEq  // boolean iff or bitvector equality

	OpBVVar
	OpBVConst
	OpBVAdd
	OpBVSub
	OpBVAnd // bitwise and
	OpBVUle // unsigned <=
	OpBVUlt // unsigned <
)

var opNames = [...]string{
	OpTrue: "true", OpFalse: "false", OpBoolVar: "boolvar", OpNot: "not",
	OpAnd: "and", OpOr: "or", OpIte: "ite", OpEq: "=",
	OpBVVar: "bvvar", OpBVConst: "bvconst", OpBVAdd: "bvadd",
	OpBVSub: "bvsub", OpBVAnd: "bvand", OpBVUle: "bvule", OpBVUlt: "bvult",
}

// Term is an immutable, hash-consed formula node. Terms are created
// through a Context and may be compared with == for structural equality.
type Term struct {
	id    int32
	hash  uint32 // of (op, width, val, kid ids); zero for variables and true/false
	val   uint64
	name  string
	kids  []*Term
	op    Op
	width uint8 // 0 for boolean sort; 1..64 for bitvectors
}

// Op returns the term's operator.
func (t *Term) Op() Op { return t.op }

// ID returns the term's hash-consing id, unique and stable within its
// Context: ids count up from 0 in creation order, so a slice of
// Context.NumTerms() entries indexed by ID is a map over terms (the
// passes', the blaster's, the evaluator's). Ids mean nothing across contexts.
func (t *Term) ID() int32 { return t.id }

// IsBool reports whether the term has boolean sort.
func (t *Term) IsBool() bool { return t.width == 0 }

// Width returns the bitvector width, or 0 for booleans.
func (t *Term) Width() int { return int(t.width) }

// Name returns the variable name for OpBoolVar/OpBVVar terms.
func (t *Term) Name() string { return t.name }

// Const returns the constant value for OpBVConst terms.
func (t *Term) Const() uint64 { return t.val }

// Kids returns the term's children. The slice must not be modified.
func (t *Term) Kids() []*Term { return t.kids }

// String renders the term in an SMT-LIB-flavoured syntax.
func (t *Term) String() string { return string(t.appendTo(nil)) }

func (t *Term) appendTo(b []byte) []byte {
	switch t.op {
	case OpTrue, OpFalse:
		return append(b, opNames[t.op]...)
	case OpBoolVar, OpBVVar:
		return append(b, t.name...)
	case OpBVConst:
		return fmt.Appendf(b, "#x%x[%d]", t.val, t.width)
	}
	b = append(append(b, '('), opNames[t.op]...)
	for _, k := range t.kids {
		b = k.appendTo(append(b, ' '))
	}
	return append(b, ')')
}

// Context creates and hash-conses terms. All terms combined in one formula
// must come from the same Context. A Context is not safe for concurrent
// use.
type Context struct {
	// table hash-conses constants and composite nodes: open addressing,
	// linear probing, a power-of-two length kept at most half full.
	// Variables are unique by name (vars) and never enter it.
	table  []*Term
	filled int
	vars   map[string]*Term
	nextID int32
	flat   []*Term // nary's operand scratch

	tt *Term // the unique true term
	ff *Term // the unique false term
}

// NewContext returns an empty term context.
func NewContext() *Context {
	c := &Context{
		table: make([]*Term, 256),
		vars:  make(map[string]*Term),
	}
	c.tt = c.newTerm(&Term{op: OpTrue})
	c.ff = c.newTerm(&Term{op: OpFalse})
	return c
}

// NumTerms returns the number of distinct terms created, a proxy for
// formula size used by the optimization benchmarks; every term's ID is
// below it.
func (c *Context) NumTerms() int { return int(c.nextID) }

// newTerm gives t the next id.
func (c *Context) newTerm(t *Term) *Term {
	t.id = c.nextID
	c.nextID++
	return t
}

// intern returns the node (op, width, val, kids), creating it on first
// use. A hit allocates nothing: the candidate exists only as arguments,
// compared field by field with the nodes its hash probes.
func (c *Context) intern(op Op, width uint8, val uint64, kids ...*Term) *Term {
	const golden = 0x9E3779B97F4A7C15 // 2^64/φ: a product's high half depends on every bit below
	h := (val ^ uint64(op)<<56 ^ uint64(width)<<48) * golden
	for _, k := range kids {
		h = (h ^ uint64(k.id)) * golden
	}
	hash := uint32(h >> 32)
	mask := len(c.table) - 1
	i := int(hash) & mask
	for ; c.table[i] != nil; i = (i + 1) & mask {
		if t := c.table[i]; t.hash == hash && t.op == op && t.width == width && t.val == val && slices.Equal(t.kids, kids) {
			return t
		}
	}
	t := c.newTerm(&Term{op: op, width: width, val: val, hash: hash})
	if len(kids) > 0 {
		t.kids = make([]*Term, len(kids))
		copy(t.kids, kids)
	}
	c.table[i] = t
	if c.filled++; 2*c.filled > len(c.table) {
		old := c.table
		c.table = make([]*Term, 2*len(old))
		mask = len(c.table) - 1
		for _, t := range old {
			if t != nil {
				i := int(t.hash) & mask
				for c.table[i] != nil {
					i = (i + 1) & mask
				}
				c.table[i] = t
			}
		}
	}
	return t
}

// True returns the boolean constant true.
func (c *Context) True() *Term { return c.tt }

// False returns the boolean constant false.
func (c *Context) False() *Term { return c.ff }

// Bool returns the boolean constant for b.
func (c *Context) Bool(b bool) *Term {
	if b {
		return c.tt
	}
	return c.ff
}

// BoolVar returns the boolean variable with the given name, creating it on
// first use. Names are global within the context.
func (c *Context) BoolVar(name string) *Term {
	if v, ok := c.vars[name]; ok {
		if !v.IsBool() {
			panic(fmt.Sprintf("smt: variable %q redeclared at different sort", name))
		}
		return v
	}
	v := c.newTerm(&Term{op: OpBoolVar, name: name})
	c.vars[name] = v
	return v
}

// BVVar returns the bitvector variable with the given name and width,
// creating it on first use.
func (c *Context) BVVar(name string, width int) *Term {
	checkWidth(width)
	if v, ok := c.vars[name]; ok {
		if v.Width() != width {
			panic(fmt.Sprintf("smt: variable %q redeclared at width %d (was %d)", name, width, v.Width()))
		}
		return v
	}
	v := c.newTerm(&Term{op: OpBVVar, width: uint8(width), name: name})
	c.vars[name] = v
	return v
}

// Vars returns all declared variables, sorted by name.
func (c *Context) Vars() []*Term {
	out := make([]*Term, 0, len(c.vars))
	for _, v := range c.vars {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// BV returns the bitvector constant val of the given width. val is
// truncated to width bits.
func (c *Context) BV(val uint64, width int) *Term {
	checkWidth(width)
	val &= mask(width)
	return c.intern(OpBVConst, uint8(width), val)
}

func checkWidth(w int) {
	if w < 1 || w > 64 {
		panic(fmt.Sprintf("smt: bitvector width %d out of range [1,64]", w))
	}
}

func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// Not returns the negation of a boolean term, simplifying double negation
// and constants.
func (c *Context) Not(t *Term) *Term {
	mustBool("not", t)
	switch t.op {
	case OpTrue:
		return c.ff
	case OpFalse:
		return c.tt
	case OpNot:
		return t.kids[0]
	}
	return c.intern(OpNot, 0, 0, t)
}

// And returns the n-ary conjunction, flattening nested conjunctions,
// removing duplicates and true, and short-circuiting on false or
// complementary literals.
func (c *Context) And(ts ...*Term) *Term { return c.nary(OpAnd, ts) }

// Or returns the n-ary disjunction with the dual simplifications of And.
func (c *Context) Or(ts ...*Term) *Term { return c.nary(OpOr, ts) }

func (c *Context) nary(op Op, ts []*Term) *Term {
	unit, zero := c.tt, c.ff
	if op == OpOr {
		unit, zero = c.ff, c.tt
	}
	// Nothing below builds a term before flat is done with, so one
	// scratch list serves every call.
	flat := flatten(op, c.flat[:0], ts)
	c.flat = flat[:0]
	// Sort children by id for canonical form, then dedupe and fold.
	slices.SortFunc(flat, byID)
	out := flat[:0]
	for _, t := range flat {
		if t == zero {
			return zero
		}
		if t == unit || (len(out) > 0 && out[len(out)-1] == t) {
			continue
		}
		out = append(out, t)
	}
	// Complementary pair check: x and ¬x together.
	for _, t := range out {
		if t.op == OpNot {
			if _, found := slices.BinarySearchFunc(out, t.kids[0], byID); found {
				return zero
			}
		}
	}
	switch len(out) {
	case 0:
		return unit
	case 1:
		return out[0]
	}
	return c.intern(op, 0, 0, out...)
}

func byID(a, b *Term) int { return cmp.Compare(a.id, b.id) }

// flatten appends ts to flat, operands of a nested op in place of it.
func flatten(op Op, flat, ts []*Term) []*Term {
	for _, t := range ts {
		mustBool(opNames[op], t)
		if t.op == op {
			flat = flatten(op, flat, t.kids)
		} else {
			flat = append(flat, t)
		}
	}
	return flat
}

// Implies returns a → b as ¬a ∨ b.
func (c *Context) Implies(a, b *Term) *Term { return c.Or(c.Not(a), b) }

// Iff returns a ↔ b (boolean equality).
func (c *Context) Iff(a, b *Term) *Term { return c.Eq(a, b) }

// Eq returns equality between two terms of the same sort, folding
// constants and identical nodes.
func (c *Context) Eq(a, b *Term) *Term {
	if a.width != b.width {
		panic(fmt.Sprintf("smt: = applied to mismatched sorts (%d vs %d)", a.width, b.width))
	}
	if a == b {
		return c.tt
	}
	if a.IsBool() {
		// Constant folding and unit rules.
		switch {
		case a == c.tt:
			return b
		case b == c.tt:
			return a
		case a == c.ff:
			return c.Not(b)
		case b == c.ff:
			return c.Not(a)
		}
		// ¬x = ¬y ⇒ x = y
		if a.op == OpNot && b.op == OpNot {
			return c.Eq(a.kids[0], b.kids[0])
		}
		// x = ¬x is false
		if (a.op == OpNot && a.kids[0] == b) || (b.op == OpNot && b.kids[0] == a) {
			return c.ff
		}
	} else if a.op == OpBVConst && b.op == OpBVConst {
		return c.Bool(a.val == b.val)
	}
	// Canonical operand order.
	if a.id > b.id {
		a, b = b, a
	}
	return c.intern(OpEq, 0, 0, a, b)
}

// Distinct returns ¬(a = b).
func (c *Context) Distinct(a, b *Term) *Term { return c.Not(c.Eq(a, b)) }

// Ite returns if-then-else. The branches may be boolean or bitvector but
// must agree in sort.
func (c *Context) Ite(cond, a, b *Term) *Term {
	mustBool("ite condition", cond)
	if a.width != b.width {
		panic("smt: ite branches have mismatched sorts")
	}
	switch cond {
	case c.tt:
		return a
	case c.ff:
		return b
	}
	if a == b {
		return a
	}
	if a.IsBool() {
		// Boolean ite simplifies to connectives, which the n-ary
		// simplifier handles better than an opaque mux.
		if a == c.tt && b == c.ff {
			return cond
		}
		if a == c.ff && b == c.tt {
			return c.Not(cond)
		}
		if a == c.tt {
			return c.Or(cond, b)
		}
		if a == c.ff {
			return c.And(c.Not(cond), b)
		}
		if b == c.tt {
			return c.Or(c.Not(cond), a)
		}
		if b == c.ff {
			return c.And(cond, a)
		}
	}
	if cond.op == OpNot {
		cond, a, b = cond.kids[0], b, a
	}
	return c.intern(OpIte, a.width, 0, cond, a, b)
}

// Add returns bitvector addition modulo 2^width, folding constants and
// the zero identity.
func (c *Context) Add(a, b *Term) *Term {
	mustSameBV("bvadd", a, b)
	if a.op == OpBVConst && b.op == OpBVConst {
		return c.BV(a.val+b.val, a.Width())
	}
	if a.op == OpBVConst && a.val == 0 {
		return b
	}
	if b.op == OpBVConst && b.val == 0 {
		return a
	}
	if a.id > b.id {
		a, b = b, a
	}
	return c.intern(OpBVAdd, a.width, 0, a, b)
}

// Sub returns bitvector subtraction modulo 2^width.
func (c *Context) Sub(a, b *Term) *Term {
	mustSameBV("bvsub", a, b)
	if a.op == OpBVConst && b.op == OpBVConst {
		return c.BV(a.val-b.val, a.Width())
	}
	if b.op == OpBVConst && b.val == 0 {
		return a
	}
	if a == b {
		return c.BV(0, a.Width())
	}
	return c.intern(OpBVSub, a.width, 0, a, b)
}

// BVAnd returns the bitwise conjunction of two bitvectors.
func (c *Context) BVAnd(a, b *Term) *Term {
	mustSameBV("bvand", a, b)
	if a.op == OpBVConst && b.op == OpBVConst {
		return c.BV(a.val&b.val, a.Width())
	}
	if a == b {
		return a
	}
	if a.op == OpBVConst {
		if a.val == 0 {
			return a
		}
		if a.val == mask(a.Width()) {
			return b
		}
	}
	if b.op == OpBVConst {
		if b.val == 0 {
			return b
		}
		if b.val == mask(b.Width()) {
			return a
		}
	}
	if a.id > b.id {
		a, b = b, a
	}
	return c.intern(OpBVAnd, a.width, 0, a, b)
}

// Ule returns the unsigned a ≤ b comparison.
func (c *Context) Ule(a, b *Term) *Term {
	mustSameBV("bvule", a, b)
	if a.op == OpBVConst && b.op == OpBVConst {
		return c.Bool(a.val <= b.val)
	}
	if a == b {
		return c.tt
	}
	if a.op == OpBVConst && a.val == 0 {
		return c.tt // 0 <= x
	}
	if b.op == OpBVConst && b.val == mask(b.Width()) {
		return c.tt // x <= max
	}
	return c.intern(OpBVUle, 0, 0, a, b)
}

// Ult returns the unsigned a < b comparison.
func (c *Context) Ult(a, b *Term) *Term {
	mustSameBV("bvult", a, b)
	if a.op == OpBVConst && b.op == OpBVConst {
		return c.Bool(a.val < b.val)
	}
	if a == b {
		return c.ff
	}
	if b.op == OpBVConst && b.val == 0 {
		return c.ff // x < 0
	}
	if a.op == OpBVConst && a.val == mask(a.Width()) {
		return c.ff // max < x
	}
	return c.intern(OpBVUlt, 0, 0, a, b)
}

// Uge returns a ≥ b.
func (c *Context) Uge(a, b *Term) *Term { return c.Ule(b, a) }

// Ugt returns a > b.
func (c *Context) Ugt(a, b *Term) *Term { return c.Ult(b, a) }

// InRange returns lo ≤ t ≤ hi for constants lo, hi: the constraint shape
// produced by the paper's prefix-elimination hoisting (§6.1).
func (c *Context) InRange(t *Term, lo, hi uint64) *Term {
	w := t.Width()
	return c.And(c.Ule(c.BV(lo, w), t), c.Ule(t, c.BV(hi, w)))
}

func mustBool(what string, t *Term) {
	if !t.IsBool() {
		panic("smt: " + what + " applied to non-boolean term")
	}
}

func mustSameBV(what string, a, b *Term) {
	if a.IsBool() || b.IsBool() || a.width != b.width {
		panic("smt: " + what + " applied to mismatched bitvector sorts")
	}
}
