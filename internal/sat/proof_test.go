package sat_test

import (
	"math/rand"
	"testing"

	"repro/internal/sat"
	"repro/internal/sat/drat"
)

// pigeonhole builds PHP(n): n+1 pigeons into n holes, a classic UNSAT
// family that needs real search (no refutation by unit propagation).
// Returns the solver's variable matrix for reuse.
func pigeonhole(s *sat.Solver, n int) [][]sat.Var {
	vars := make([][]sat.Var, n+1)
	for p := range vars {
		vars[p] = make([]sat.Var, n)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		lits := make([]sat.Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = sat.MkLit(vars[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(sat.MkLit(vars[p1][h], true), sat.MkLit(vars[p2][h], true))
			}
		}
	}
	return vars
}

// TestProofSimplifyAndRestarts is the regression for the Simplify audit:
// a known-UNSAT instance is pushed through root-unit strengthening,
// satisfied-clause removal, restarts and a final refutation, and the
// recorded trace must still check. Before Simplify mirrored its rewrites
// into the trace, the deletions it performed silently desynchronized the
// proof from the database.
func TestProofSimplifyAndRestarts(t *testing.T) {
	s := sat.New()
	p := s.EnableProof()
	pigeonhole(s, 5)

	// Extra structure for Simplify to chew on: units that satisfy some
	// clauses outright and strengthen others.
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(sat.MkLit(a, false), sat.MkLit(b, false))                     // satisfied once a holds
	s.AddClause(sat.MkLit(a, true), sat.MkLit(b, false), sat.MkLit(c, false)) // strengthened once a holds
	s.AddClause(sat.MkLit(b, true), sat.MkLit(c, true))
	s.AddClause(sat.MkLit(a, false)) // unit: a

	if !s.Simplify() {
		t.Fatal("Simplify reported unsat on a not-yet-refuted instance")
	}
	if s.Stats.Simplified == 0 {
		t.Fatal("test instance did not exercise satisfied-clause removal")
	}
	if s.Stats.Strengthened == 0 {
		t.Fatal("test instance did not exercise literal strengthening")
	}
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("PHP(5) = %v, want unsat", st)
	}
	if s.Stats.Restarts == 0 {
		t.Fatal("instance solved without restarting; pick a harder one")
	}
	if _, err := drat.Check(p); err != nil {
		t.Fatalf("proof rejected: %v", err)
	}
}

// TestProofSurvivesReduceDB drives the solver into learned-clause
// deletion and checks the trace still verifies: reduceDB must log every
// clause it drops.
func TestProofSurvivesReduceDB(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for try := 0; ; try++ {
		if try > 50 {
			t.Fatal("no random instance exercised reduceDB")
		}
		s := sat.New()
		p := s.EnableProof()
		nv := 140
		vars := make([]sat.Var, nv)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		for i := 0; i < int(4.4*float64(nv)); i++ {
			var lits []sat.Lit
			for len(lits) < 3 {
				l := sat.MkLit(vars[rng.Intn(nv)], rng.Intn(2) == 0)
				lits = append(lits, l)
			}
			s.AddClause(lits...)
		}
		st := s.Solve()
		if st != sat.Unsat || s.Stats.Deleted == 0 {
			continue
		}
		if _, err := drat.Check(p); err != nil {
			t.Fatalf("proof rejected after reduceDB (try %d): %v", try, err)
		}
		return
	}
}

// TestProofIncrementalAssumptions covers the session pattern: clauses
// added between solves, UNSAT under an activation literal, certified with
// the assumption handed to the checker.
func TestProofIncrementalAssumptions(t *testing.T) {
	s := sat.New()
	p := s.EnableProof()
	x, y, act := s.NewVar(), s.NewVar(), s.NewVar()
	lx, ly, lact := sat.MkLit(x, false), sat.MkLit(y, false), sat.MkLit(act, false)
	s.AddClause(lx, ly)
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("base = %v, want sat", st)
	}
	// act → ¬x, act → ¬y: unsat only under the assumption.
	s.AddClause(lact.Not(), lx.Not())
	s.AddClause(lact.Not(), ly.Not())
	if st := s.Solve(lact); st != sat.Unsat {
		t.Fatalf("assumed = %v, want unsat", st)
	}
	if _, err := drat.Check(p, lact); err != nil {
		t.Fatalf("proof with assumption rejected: %v", err)
	}
	if _, err := drat.Check(p); err == nil {
		t.Fatal("proof without the assumption checked; formula alone is sat")
	}
	// Still sat without the assumption — and the trace keeps growing.
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("retry without assumption = %v, want sat", st)
	}
	if p.NumSteps() == 0 {
		t.Fatal("empty trace")
	}
}

// TestProofEnableSnapshotsDatabase: enabling after clauses were added
// must snapshot them, so later verdicts stay certifiable.
func TestProofEnableSnapshotsDatabase(t *testing.T) {
	s := sat.New()
	x, y := s.NewVar(), s.NewVar()
	lx, ly := sat.MkLit(x, false), sat.MkLit(y, false)
	s.AddClause(lx, ly)
	s.AddClause(lx.Not()) // unit before enabling
	p := s.EnableProof()
	s.AddClause(lx, ly.Not())
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	if _, err := drat.Check(p); err != nil {
		t.Fatalf("proof rejected: %v", err)
	}
}
