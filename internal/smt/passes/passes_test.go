package passes

import (
	"testing"

	"repro/internal/smt"
)

// newSys builds a System over a fresh context via the given builder.
func newSys(build func(c *smt.Context) ([]*smt.Term, []*smt.Term)) *System {
	c := smt.NewContext()
	asserts, goals := build(c)
	return &System{Ctx: c, Asserts: asserts, Goals: goals}
}

// solve reports the sat status string of the system's asserts conjoined
// with its goals.
func solve(sys *System) string {
	s := smt.NewSolver(sys.Ctx)
	for _, a := range sys.Asserts {
		s.Assert(a)
	}
	for _, g := range sys.Goals {
		s.Assert(g)
	}
	return s.Check().String()
}

// clone copies the mutable slices so the same logical system can be run
// through different pipelines.
func clone(sys *System) *System {
	return &System{
		Ctx:     sys.Ctx,
		Asserts: append([]*smt.Term(nil), sys.Asserts...),
		Goals:   append([]*smt.Term(nil), sys.Goals...),
	}
}

// rewrites are the two passes and, measured the same way, the two steps
// Propagate is made of: "fold" rebuilds every term through the rewriter
// with nothing to substitute, "cse" normalises the assert list.
var rewrites = []struct {
	name string
	run  func(*System) Stats
}{
	{"fold", rebuild},
	{"cse", func(sys *System) Stats {
		return measure("cse", sys, nil, func() {
			sys.Asserts, sys.Origins = normalizeAsserts(sys.Ctx, sys.Asserts, sys.Origins)
		})
	}},
	{"propagate", func(sys *System) Stats { return Propagate(sys, nil) }},
	{"coi", func(sys *System) Stats { return COI(sys, nil) }},
}

func rebuild(sys *System) Stats {
	return measure("fold", sys, nil, func() {
		r := newRewriter(sys.Ctx, nil)
		for i, a := range sys.Asserts {
			sys.Asserts[i] = r.rewrite(a)
		}
		for i, g := range sys.Goals {
			sys.Goals[i] = r.rewrite(g)
		}
	})
}

// buildMixed is a small system exercising every rewrite: a unit bool, a
// var=const unit, a conjunction to flatten, a duplicated assert, and a
// variable cluster disconnected from the goal.
func buildMixed(c *smt.Context) ([]*smt.Term, []*smt.Term) {
	x, y := c.BoolVar("x"), c.BoolVar("y")
	a := c.BVVar("a", 8)
	b := c.BVVar("b", 8)
	island := c.BoolVar("island")
	island2 := c.BoolVar("island2")
	asserts := []*smt.Term{
		x,
		c.Eq(a, c.BV(7, 8)),
		c.And(c.Or(x, y), c.Ule(a, b)),
		c.Or(x, y), // duplicate after flattening
		c.Or(island, island2),
	}
	goals := []*smt.Term{c.Ult(b, c.BV(100, 8))}
	return asserts, goals
}

func TestEachPassIsIdempotent(t *testing.T) {
	for _, rw := range rewrites {
		t.Run(rw.name, func(t *testing.T) {
			sys := newSys(buildMixed)
			first := rw.run(sys)
			snapshot := append([]*smt.Term(nil), sys.Asserts...)
			second := rw.run(sys)
			if second.AssertsBefore != second.AssertsAfter ||
				second.TermsBefore != second.TermsAfter {
				t.Fatalf("second run not a fixpoint: %+v (first %+v)", second, first)
			}
			if len(sys.Asserts) != len(snapshot) {
				t.Fatalf("second run changed assert count: %d -> %d", len(snapshot), len(sys.Asserts))
			}
			for i := range snapshot {
				if sys.Asserts[i] != snapshot[i] {
					t.Fatalf("second run changed assert %d: %v -> %v", i, snapshot[i], sys.Asserts[i])
				}
			}
		})
	}
}

func TestEachPassPreservesSatisfiability(t *testing.T) {
	builders := map[string]func(c *smt.Context) ([]*smt.Term, []*smt.Term){
		"mixed": buildMixed,
		"unsat": func(c *smt.Context) ([]*smt.Term, []*smt.Term) {
			x := c.BoolVar("x")
			a := c.BVVar("a", 4)
			return []*smt.Term{x, c.Not(x), c.Eq(a, c.BV(1, 4))}, nil
		},
		"eq-chain": func(c *smt.Context) ([]*smt.Term, []*smt.Term) {
			a, b, d := c.BVVar("a", 8), c.BVVar("b", 8), c.BVVar("d", 8)
			return []*smt.Term{c.Eq(a, b), c.Eq(b, c.BV(5, 8)), c.Ult(d, a)}, []*smt.Term{c.Ugt(d, c.BV(1, 8))}
		},
		"eq-conflict": func(c *smt.Context) ([]*smt.Term, []*smt.Term) {
			a, b := c.BVVar("a", 8), c.BVVar("b", 8)
			return []*smt.Term{c.Eq(a, b), c.Eq(b, c.BV(5, 8)), c.Eq(a, c.BV(6, 8))}, nil
		},
	}
	for bname, build := range builders {
		for _, rw := range rewrites {
			t.Run(bname+"/"+rw.name, func(t *testing.T) {
				base := newSys(build)
				want := solve(clone(base))
				rw.run(base)
				if got := solve(base); got != want {
					t.Fatalf("%s changed status: %s -> %s", rw.name, want, got)
				}
			})
		}
	}
}

func TestPropagateKeepsUnitAsserts(t *testing.T) {
	sys := newSys(func(c *smt.Context) ([]*smt.Term, []*smt.Term) {
		x := c.BoolVar("x")
		a := c.BVVar("a", 8)
		return []*smt.Term{x, c.Eq(a, c.BV(7, 8)), c.Implies(x, c.Ule(a, c.BV(9, 8)))}, nil
	})
	Propagate(sys, nil)
	c := sys.Ctx
	hasX, hasEq := false, false
	for _, a := range sys.Asserts {
		if a == c.BoolVar("x") {
			hasX = true
		}
		if a == c.Eq(c.BVVar("a", 8), c.BV(7, 8)) {
			hasEq = true
		}
	}
	if !hasX || !hasEq {
		t.Fatalf("unit facts were dropped: hasX=%v hasEq=%v asserts=%v", hasX, hasEq, sys.Asserts)
	}
	// The implication is discharged: x ∧ a=7 makes it a ≤ 9, i.e. true,
	// so only the two unit facts remain.
	if len(sys.Asserts) != 2 {
		t.Fatalf("expected 2 asserts after propagation, got %v", sys.Asserts)
	}
}

func TestCSEFlattensAndDedupes(t *testing.T) {
	sys := newSys(func(c *smt.Context) ([]*smt.Term, []*smt.Term) {
		x, y, z := c.BoolVar("x"), c.BoolVar("y"), c.BoolVar("z")
		dup := c.Or(x, y)
		return []*smt.Term{c.And(dup, z), dup, c.True()}, nil
	})
	sys.Asserts, _ = normalizeAsserts(sys.Ctx, sys.Asserts, nil)
	if len(sys.Asserts) != 2 {
		t.Fatalf("want 2 asserts (or(x,y), z), got %v", sys.Asserts)
	}
}

// TestPropagateNormalisesWithoutFacts: Propagate is normalise-then-
// substitute by construction, so a system with nothing to substitute still
// comes out flattened and deduplicated.
func TestPropagateNormalisesWithoutFacts(t *testing.T) {
	sys := newSys(func(c *smt.Context) ([]*smt.Term, []*smt.Term) {
		w, x, y, z := c.BoolVar("w"), c.BoolVar("x"), c.BoolVar("y"), c.BoolVar("z")
		dup := c.Or(x, y)
		return []*smt.Term{c.And(dup, c.And(c.Or(y, z), c.Or(w, z))), dup}, nil
	})
	c := sys.Ctx
	w, x, y, z := c.BoolVar("w"), c.BoolVar("x"), c.BoolVar("y"), c.BoolVar("z")
	want := []*smt.Term{c.Or(x, y), c.Or(y, z), c.Or(w, z)}
	st := Propagate(sys, nil)
	if st.AssertsBefore != 2 || len(sys.Asserts) != len(want) {
		t.Fatalf("want %v, got %v (%+v)", want, sys.Asserts, st)
	}
	for i := range want {
		if sys.Asserts[i] != want[i] {
			t.Fatalf("assert %d: want %v, got %v", i, want[i], sys.Asserts[i])
		}
	}
}

func TestCOIPrunesDisconnectedAsserts(t *testing.T) {
	sys := newSys(buildMixed)
	st := COI(sys, nil)
	if st.AssertsAfter >= st.AssertsBefore {
		t.Fatalf("coi pruned nothing: %+v", st)
	}
	c := sys.Ctx
	for _, a := range sys.Asserts {
		if a == c.Or(c.BoolVar("island"), c.BoolVar("island2")) {
			t.Fatalf("island assert not pruned: %v", sys.Asserts)
		}
	}
	// The goal mentions b; a ≤ b connects a's cluster, so the units stay.
	found := false
	for _, a := range sys.Asserts {
		if a == c.Eq(c.BVVar("a", 8), c.BV(7, 8)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("goal-connected assert was pruned: %v", sys.Asserts)
	}
}

func TestCOIKeepsEverythingWithoutGoals(t *testing.T) {
	sys := newSys(func(c *smt.Context) ([]*smt.Term, []*smt.Term) {
		asserts, _ := buildMixed(c)
		return asserts, nil
	})
	st := COI(sys, nil)
	if st.AssertsBefore != st.AssertsAfter {
		t.Fatalf("coi with no goals must keep everything: %+v", st)
	}
}

func TestFoldRewritesAfterSubstitution(t *testing.T) {
	// Rebuilding constructed terms through the constructors that built
	// them returns the same hash-consed nodes: why there is no fold pass.
	sys := newSys(buildMixed)
	before := clone(sys)
	rebuild(sys)
	for i, a := range sys.Asserts {
		if a != before.Asserts[i] {
			t.Fatalf("rebuild changed assert %d: %v -> %v", i, before.Asserts[i], a)
		}
	}
	if sys.Goals[0] != before.Goals[0] {
		t.Fatalf("rebuild changed the goal: %v -> %v", before.Goals[0], sys.Goals[0])
	}
}

// TestOriginsStayParallelThroughPasses pins the provenance contract:
// Origins stays parallel to Asserts through every rewrite and through
// both passes in order, surviving contributors keep their base ids, and
// merges (deduplication, substitution) union rather than drop them.
func TestOriginsStayParallelThroughPasses(t *testing.T) {
	tag := func(sys *System) *System {
		sys.Origins = make([][]int32, len(sys.Asserts))
		for i := range sys.Asserts {
			sys.Origins[i] = []int32{int32(i + 1)}
		}
		return sys
	}
	both := func(sys *System) Stats { Propagate(sys, nil); return COI(sys, nil) }
	for _, rw := range append(rewrites, struct {
		name string
		run  func(*System) Stats
	}{"propagate,coi", both}) {
		names := rw.name
		sys := tag(newSys(buildMixed))
		rw.run(sys)
		if len(sys.Origins) != len(sys.Asserts) {
			t.Fatalf("%v: %d origins for %d asserts", names, len(sys.Origins), len(sys.Asserts))
		}
		for i, os := range sys.Origins {
			if len(os) == 0 {
				t.Fatalf("%v: assert %d lost its origins", names, i)
			}
			for j, b := range os {
				if b < 1 || b > 5 {
					t.Fatalf("%v: assert %d carries invented base %d", names, i, b)
				}
				if j > 0 && os[j-1] >= b {
					t.Fatalf("%v: assert %d origins not sorted/deduped: %v", names, i, os)
				}
			}
		}
	}

	// Normalising merges the duplicated assert (buildMixed asserts 3 and 4
	// are equal after flattening): its survivor must carry both bases.
	sys := tag(newSys(buildMixed))
	sys.Asserts, sys.Origins = normalizeAsserts(sys.Ctx, sys.Asserts, sys.Origins)
	found := false
	for _, os := range sys.Origins {
		has3, has4 := false, false
		for _, b := range os {
			has3 = has3 || b == 3
			has4 = has4 || b == 4
		}
		if has3 && has4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dedupe dropped a contributor: %v", sys.Origins)
	}
}
