package smt

import (
	"testing"

	"repro/internal/sat"
)

// guarded drives a Solver the way core.Session does: each check retires
// the previous check's activation literal with the unit clause ¬act,
// takes a fresh variable, asserts its goals under it and searches
// assuming it.
type guarded struct {
	*Solver
	act sat.Lit // 0 before the first check: variable 0 is trueLit
}

func (g *guarded) check(goals ...*Term) sat.Status {
	if g.act != 0 {
		g.sat.AddClause(g.act.Not())
	}
	g.act = sat.MkLit(g.sat.NewVar(), false)
	for _, t := range goals {
		g.AssertUnder(t, g.act)
	}
	return g.sat.Solve(g.act)
}

// TestSessionIsolation checks that goals of one check do not leak into the
// next: contradictory per-check goals over a shared formula each get the
// verdict a fresh solver would give.
func TestSessionIsolation(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 8)
	ss := &guarded{Solver: NewSolver(c)}
	ss.Assert(c.Ule(x, c.BV(10, 8))) // shared: x ≤ 10

	if st := ss.check(c.Eq(x, c.BV(3, 8))); st != sat.Sat {
		t.Fatalf("x=3 under x≤10: %v", st)
	}
	if got := ss.Model()["x"].BV; got != 3 {
		t.Fatalf("model x=%d, want 3", got)
	}
	if st := ss.check(c.Eq(x, c.BV(20, 8))); st != sat.Unsat {
		t.Fatalf("x=20 under x≤10: %v", st)
	}
	// The x=20 goal must be gone: x=7 is again satisfiable.
	if st := ss.check(c.Eq(x, c.BV(7, 8))); st != sat.Sat {
		t.Fatalf("x=7 after unsat check: %v", st)
	}
	if got := ss.Model()["x"].BV; got != 7 {
		t.Fatalf("model x=%d, want 7", got)
	}
}

// TestSessionAgainstFresh cross-checks guarded verdicts against a fresh
// solver per query on a shared boolean formula.
func TestSessionAgainstFresh(t *testing.T) {
	c := NewContext()
	a, b, d := c.BoolVar("a"), c.BoolVar("b"), c.BoolVar("d")
	shared := []*Term{c.Or(a, b), c.Implies(a, d)}

	goals := [][]*Term{
		{a},
		{a, c.Not(d)},
		{c.Not(a), c.Not(b)},
		{b, c.Not(d)},
		{c.And(a, d)},
	}

	ss := &guarded{Solver: NewSolver(c)}
	for _, s := range shared {
		ss.Assert(s)
	}
	for i, gs := range goals {
		fresh := NewSolver(c)
		for _, s := range shared {
			fresh.Assert(s)
		}
		for _, g := range gs {
			fresh.Assert(g)
		}
		want := fresh.Check()
		if got := ss.check(gs...); got != want {
			t.Fatalf("query %d: guarded=%v fresh=%v", i, got, want)
		}
	}
}

// TestSessionSharedBlastOnce verifies the amortization claim: after the
// shared formula is blasted, each check adds goal-sized increments only —
// here two variables, the activation literal and the gate of x = i, since
// x's bits and the adders already exist — never the shared formula again.
func TestSessionSharedBlastOnce(t *testing.T) {
	c := NewContext()
	// A shared formula with real bit-blasting volume: three 16-bit sums.
	x := c.BVVar("x", 16)
	y := c.BVVar("y", 16)
	z := c.BVVar("z", 16)
	ss := &guarded{Solver: NewSolver(c)}
	ss.Assert(c.Eq(c.Add(x, y), z))
	ss.Assert(c.Ule(c.Add(y, z), c.BV(40000, 16)))
	shared := ss.sat.NumVars()

	for i := uint64(0); i < 8; i++ {
		vars := ss.sat.NumVars()
		if st := ss.check(c.Eq(x, c.BV(i, 16))); st != sat.Sat {
			t.Fatalf("check %d: %v", i, st)
		}
		if grown := ss.sat.NumVars() - vars; grown != 2 {
			t.Fatalf("check %d blasted %d new vars, want 2 (shared re-blast?)", i, grown)
		}
	}
	if v := ss.sat.NumVars(); v >= 2*shared {
		t.Fatalf("vars grew from %d to %d across 8 checks: shared structure re-blasted", shared, v)
	}
}

// TestSessionStatsDelta checks that per-check work taken from one baseline
// per check — before the previous literal is retired, where core's ledger
// marks it — telescopes: the checks' counts sum to the solver's own, the
// retirements included.
func TestSessionStatsDelta(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 12)
	y := c.BVVar("y", 12)
	ss := &guarded{Solver: NewSolver(c)}
	ss.Assert(c.Eq(c.Add(x, y), c.BV(100, 12)))

	start := ss.sat.Stats
	var total sat.Stats
	for i := 0; i < 4; i++ {
		base := ss.sat.Stats
		ss.check(c.Ule(x, c.BV(uint64(10+i), 12)))
		d := ss.sat.Stats.Since(base)
		if d.Propagations <= 0 || d.Conflicts < 0 || d.Decisions < 0 {
			t.Fatalf("check %d: %+v", i, d)
		}
		total.Propagations += d.Propagations
		total.Decisions += d.Decisions
		total.Conflicts += d.Conflicts
	}
	cum := ss.sat.Stats.Since(start)
	if total.Propagations != cum.Propagations || total.Decisions != cum.Decisions || total.Conflicts != cum.Conflicts {
		t.Fatalf("checks sum to %+v, the solver counted %+v", total, cum)
	}
}

// TestSessionAssertBetweenChecks exercises the lazy shared-assert path the
// core session uses for property instrumentation: permanent constraints
// added between checks bind all later queries.
func TestSessionAssertBetweenChecks(t *testing.T) {
	c := NewContext()
	p, q := c.BoolVar("p"), c.BoolVar("q")
	ss := &guarded{Solver: NewSolver(c)}
	ss.Assert(c.Or(p, q))

	if st := ss.check(c.Not(q)); st != sat.Sat {
		t.Fatalf("¬q: %v", st)
	}
	ss.Assert(c.Not(p)) // permanent from now on
	if st := ss.check(c.Not(q)); st != sat.Unsat {
		t.Fatalf("¬q after asserting ¬p: %v", st)
	}
	if st := ss.check(q); st != sat.Sat {
		t.Fatalf("q after asserting ¬p: %v", st)
	}
}
