package smt

import (
	"testing"

	"repro/internal/sat"
)

// TestHashConsHitAllocatesNothing: asking the context for a term it has
// is a probe and a field-by-field compare — no key, no candidate node.
func TestHashConsHitAllocatesNothing(t *testing.T) {
	c := NewContext()
	a, b, x := c.BoolVar("a"), c.BoolVar("b"), c.BVVar("x", 32)
	and, seven, ule := c.And(a, b), c.BV(7, 32), c.Ule(x, c.BV(7, 32))
	ite, nand := c.Ite(a, x, seven), c.Not(and)
	terms := c.NumTerms()
	if n := testing.AllocsPerRun(100, func() {
		if c.And(a, b) != and || c.And(b, a, b) != and || c.BV(7, 32) != seven ||
			c.Ule(x, c.BV(7, 32)) != ule || c.Ite(a, x, seven) != ite || c.Not(and) != nand {
			t.Fatal("a second construction made a second term")
		}
	}); n != 0 {
		t.Errorf("hash-cons hits allocate %v times a run, want 0", n)
	}
	if c.NumTerms() != terms {
		t.Errorf("hits created %d terms", c.NumTerms()-terms)
	}
}

// TestGateMemoHitAllocatesNothing: a gate the blaster has built is found
// by its input literals in the flat table, with no allocation, no new
// variable and no new clause.
func TestGateMemoHitAllocatesNothing(t *testing.T) {
	s := NewSolver(NewContext())
	lit := func() sat.Lit { return sat.MkLit(s.sat.NewVar(), false) }
	a, b, c := lit(), lit(), lit()
	and, xor, ite := s.mkAnd(a, b), s.mkXor(a, b), s.mkIte(c, a, b)
	vars, clauses := s.sat.NumVars(), s.sat.NumClauses()
	if n := testing.AllocsPerRun(100, func() {
		if s.mkAnd(b, a) != and || s.mkXor(b.Not(), a.Not()) != xor || s.mkIte(c.Not(), b, a) != ite {
			t.Fatal("a second construction made a second gate")
		}
	}); n != 0 {
		t.Errorf("gate-memo hits allocate %v times a run, want 0", n)
	}
	if s.NumGates() != 3 || s.sat.NumVars() != vars || s.sat.NumClauses() != clauses {
		t.Errorf("hits grew the formula: %d gates, %d vars (was %d), %d clauses (was %d)",
			s.NumGates(), s.sat.NumVars(), vars, s.sat.NumClauses(), clauses)
	}
}

// TestGateTableGrows crosses several doublings of the gate table and
// finds every gate again afterwards.
func TestGateTableGrows(t *testing.T) {
	s := NewSolver(NewContext())
	lits := make([]sat.Lit, 40)
	for i := range lits {
		lits[i] = sat.MkLit(s.sat.NewVar(), false)
	}
	type pair struct{ i, j int }
	gates := map[pair]sat.Lit{}
	for i := range lits {
		for j := i + 1; j < len(lits); j++ {
			gates[pair{i, j}] = s.mkAnd(lits[i], lits[j])
		}
	}
	if s.NumGates() != len(gates) || len(s.gates) < 2*len(gates) {
		t.Fatalf("%d gates in a table of %d, want %d at most half full", s.NumGates(), len(s.gates), len(gates))
	}
	for p, g := range gates {
		if got := s.mkAnd(lits[p.j], lits[p.i]); got != g {
			t.Fatalf("and(%d,%d) is %v after growth, was %v", p.i, p.j, got, g)
		}
	}
}
