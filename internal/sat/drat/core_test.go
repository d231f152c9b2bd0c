package drat

import (
	"math/rand"
	"testing"

	"repro/internal/sat"
)

// TestCheckCoreExcludesIrrelevantInputs builds an UNSAT instance whose
// contradiction lives entirely in (a,b) and adds satisfiable clauses
// over (c,d) tagged with their own origin. The extracted core must
// certify, name only (a,b) inputs, and the origins reached through the
// core steps must exclude the irrelevant clauses' base.
func TestCheckCoreExcludesIrrelevantInputs(t *testing.T) {
	s := sat.New()
	p := s.EnableProof()
	s.EnableOriginTracking()
	a, b := s.NewVar(), s.NewVar()
	c, d := s.NewVar(), s.NewVar()

	s.SetOrigin(1)
	s.AddClause(sat.MkLit(a, false), sat.MkLit(b, false))
	s.AddClause(sat.MkLit(a, false), sat.MkLit(b, true))
	s.AddClause(sat.MkLit(a, true), sat.MkLit(b, false))
	s.AddClause(sat.MkLit(a, true), sat.MkLit(b, true))
	s.SetOrigin(99)
	s.AddClause(sat.MkLit(c, false), sat.MkLit(d, false))
	s.AddClause(sat.MkLit(c, true), sat.MkLit(d, false))
	s.SetOrigin()

	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("status %v, want Unsat", st)
	}
	stats, core, err := CheckCore(p)
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil || len(core) == 0 {
		t.Fatal("empty core on an UNSAT proof")
	}
	steps := p.Steps()
	for _, si := range core {
		st := steps[si]
		if st.Kind != sat.ProofInput {
			t.Fatalf("core step %d is %v, want input", si, st.Kind)
		}
		for _, l := range st.Lits {
			if v := l.Var(); v == c || v == d {
				t.Fatalf("core includes irrelevant clause %v", st.Lits)
			}
		}
		for _, base := range s.OriginSetBases(st.Origin) {
			if base == 99 {
				t.Fatalf("core step %d carries the irrelevant origin 99", si)
			}
		}
	}
}

// TestCheckCoreAgreesWithCheck runs CheckCore over random UNSAT instances
// and requires it to accept exactly when Check accepts, with every core
// index naming an input step.
func TestCheckCoreAgreesWithCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	unsat := 0
	for tries := 0; unsat < 25; tries++ {
		if tries > 3000 {
			t.Fatalf("only %d unsat instances in %d tries", unsat, tries)
		}
		s, p := randomCNF(rng, 8+rng.Intn(10), 5.2)
		if s.Solve() != sat.Unsat {
			continue
		}
		unsat++
		if _, err := checkEveryHinting(t, hintedSteps(p)); err != nil {
			t.Fatalf("Check rejected a solver proof: %v", err)
		}
		_, core, err := CheckCore(p)
		if err != nil {
			t.Fatalf("CheckCore rejected a proof Check accepted: %v", err)
		}
		if len(core) == 0 {
			t.Fatal("empty core")
		}
		steps := p.Steps()
		for i, si := range core {
			if steps[si].Kind != sat.ProofInput {
				t.Fatalf("core[%d] = step %d of kind %v", i, si, steps[si].Kind)
			}
			if i > 0 && core[i-1] >= si {
				t.Fatalf("core not sorted ascending: %v", core)
			}
		}
	}
}
