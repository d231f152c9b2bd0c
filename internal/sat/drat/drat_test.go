package drat

import (
	"math/rand"
	"testing"

	"repro/internal/sat"
)

// randomCNF loads a random 3-SAT instance near the phase transition into
// a fresh solver and returns it with proof logging on.
func randomCNF(rng *rand.Rand, nv int, ratio float64) (*sat.Solver, *sat.Proof) {
	s := sat.New()
	p := s.EnableProof()
	vars := make([]sat.Var, nv)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	n := int(ratio * float64(nv))
	for i := 0; i < n; i++ {
		lits := make([]sat.Lit, 0, 3)
		for len(lits) < 3 {
			lits = append(lits, sat.MkLit(vars[rng.Intn(nv)], rng.Intn(2) == 0))
		}
		s.AddClause(lits...)
	}
	return s, p
}

// TestAcceptsRandomUnsatProofs generates random small instances until 100
// unsatisfiable ones have been solved, and requires every recorded proof
// to check — from its hints alone as recorded, and whatever is done to
// them.
func TestAcceptsRandomUnsatProofs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	unsat := 0
	for tries := 0; unsat < 100; tries++ {
		if tries > 5000 {
			t.Fatalf("only %d unsat instances in %d tries", unsat, tries)
		}
		s, p := randomCNF(rng, 8+rng.Intn(12), 5.2)
		if s.Solve() != sat.Unsat {
			continue
		}
		unsat++
		st, err := checkEveryHinting(t, hintedSteps(p))
		if err != nil {
			t.Fatalf("instance %d: valid proof rejected: %v", unsat, err)
		}
		if st.Inputs == 0 {
			t.Fatalf("instance %d: no inputs in stats", unsat)
		}
		if st.Fallbacks != 0 {
			t.Fatalf("instance %d: %d of %d lemmas not verified from the solver's hints", unsat, st.Fallbacks, st.Lemmas)
		}
	}
}

// pigeonhole needs real search: dropping its lemmas must make the proof
// uncheckable, because unit propagation alone cannot refute it.
func pigeonhole(s *sat.Solver, n int) {
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
}

func TestRejectsDroppedLemmas(t *testing.T) {
	s := sat.New()
	p := s.EnableProof()
	pigeonhole(s, 3)
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("PHP(3) = %v, want unsat", st)
	}
	if _, err := checkEveryHinting(t, hintedSteps(p)); err != nil {
		t.Fatalf("intact proof rejected: %v", err)
	}
	// Drop every non-empty derived clause: the remaining trace claims the
	// empty clause follows from the inputs by propagation alone, which is
	// false for PHP.
	var kept []hinted
	dropped := 0
	for _, st := range hintedSteps(p) {
		if st.Kind == sat.ProofDerive && len(st.Lits) > 0 {
			dropped++
			continue
		}
		// Deletions of the dropped lemmas would now dangle; skip them too.
		if st.Kind == sat.ProofDelete {
			continue
		}
		kept = append(kept, st)
	}
	if dropped == 0 {
		t.Fatal("PHP(3) produced no lemmas; instance too easy")
	}
	if _, err := checkEveryHinting(t, kept); err == nil {
		t.Fatal("proof with all lemmas dropped was accepted")
	}
}

func TestRejectsTamperedLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rejected := 0
	for tries := 0; rejected < 20 && tries < 2000; tries++ {
		s, p := randomCNF(rng, 12, 5.0)
		if s.Solve() != sat.Unsat {
			continue
		}
		steps := hintedSteps(p)
		// Flip one literal of one random multi-literal lemma, leaving it the
		// hints of the lemma it was.
		var idxs []int
		for i, st := range steps {
			if st.Kind == sat.ProofDerive && len(st.Lits) > 1 {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) == 0 {
			continue
		}
		i := idxs[rng.Intn(len(idxs))]
		lits := append([]sat.Lit(nil), steps[i].Lits...)
		lits[rng.Intn(len(lits))] = lits[rng.Intn(len(lits))].Not()
		steps[i].Lits = lits
		if _, err := checkEveryHinting(t, steps); err != nil {
			rejected++
		}
		// A tampered lemma can occasionally still be RUP; only a complete
		// failure to ever reject is a checker bug.
	}
	if rejected == 0 {
		t.Fatal("checker accepted every tampered proof")
	}
}

func TestRejectsUnknownDeletion(t *testing.T) {
	s := sat.New()
	p := s.EnableProof()
	x, y, z := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(sat.MkLit(x, false), sat.MkLit(y, false))
	steps := append(hintedSteps(p), hinted{ProofStep: sat.ProofStep{
		Kind: sat.ProofDelete,
		Lits: []sat.Lit{sat.MkLit(x, false), sat.MkLit(z, false)},
	}})
	if _, err := checkEveryHinting(t, steps); err == nil {
		t.Fatal("deletion of a clause never added was accepted")
	}
}

func TestRejectsSatTrace(t *testing.T) {
	s := sat.New()
	p := s.EnableProof()
	x := s.NewVar()
	s.AddClause(sat.MkLit(x, false))
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("got %v, want sat", st)
	}
	if _, err := checkEveryHinting(t, hintedSteps(p)); err == nil {
		t.Fatal("trace of a satisfiable run was accepted as an unsat certificate")
	}
}

func TestNilProof(t *testing.T) {
	if _, err := Check(nil); err == nil {
		t.Fatal("nil proof accepted")
	}
}

// TestTruncatedTraces cuts solver traces at a random step: whether what
// is left still demonstrates unsatisfiability (earlier installs may
// already conflict) or not, every hinting must agree on it — the hints
// of the surviving steps still name what they named.
func TestTruncatedTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	accepted, rejected := 0, 0
	for tries := 0; accepted+rejected < 50; tries++ {
		if tries > 5000 {
			t.Fatalf("only %d unsat instances in %d tries", accepted+rejected, tries)
		}
		s, p := randomCNF(rng, 8+rng.Intn(12), 5.2)
		if s.Solve() != sat.Unsat || p.NumSteps() < 2 {
			continue
		}
		steps := hintedSteps(p)
		if _, err := checkEveryHinting(t, steps[:1+rng.Intn(len(steps)-1)]); err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	if rejected == 0 {
		t.Fatal("no truncated trace was rejected")
	}
}
