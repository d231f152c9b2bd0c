package fuzz

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sat"
	"repro/internal/sat/drat"
)

// TestScenarioPool replays every family of the scenario pool through all
// oracles once, so plain `go test` covers the full fuzz surface even
// when no fuzzing engine runs.
func TestScenarioPool(t *testing.T) {
	for fam := 0; fam < Families(); fam++ {
		fam := fam
		t.Run(fmt.Sprintf("family-%d", fam), func(t *testing.T) {
			t.Parallel()
			s, rng, err := FromSeed([]byte{byte(fam), 0x5e, 0xed})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CheckAll(rng, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCorpusRegressions replays the checked-in regression corpus: one
// minimized scenario per protocol feature, each with pinned verdicts on
// all three execution paths plus the differential oracle where valid.
func TestCorpusRegressions(t *testing.T) {
	corpus, err := LoadCorpus("testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 8 {
		t.Fatalf("regression corpus too small: %d scenarios, want >= 8", len(corpus))
	}
	for _, cs := range corpus {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			if err := cs.Verify(rand.New(rand.NewSource(1)), 3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzVerifyVsSim is the differential fuzz target: random fixture +
// random environments, symbolic stable state must equal the simulator's.
func FuzzVerifyVsSim(f *testing.F) {
	for fam := 0; fam < Families(); fam++ {
		f.Add([]byte{byte(fam)})
		f.Add([]byte{byte(fam), 0xaa, 0x01})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, rng, err := FromSeed(data)
		if err != nil {
			t.Skipf("scenario build: %v", err)
		}
		if !s.SimSafe {
			t.Skip("multi-stable scenario: simulator oracle not valid")
		}
		if err := s.DiffVsSim(rng, 3); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzPassesParity is the metamorphic fuzz target: one verdict, many
// roads — pass pipelines, assert order, renaming, execution paths.
func FuzzPassesParity(f *testing.F) {
	for fam := 0; fam < Families(); fam++ {
		f.Add([]byte{byte(fam)})
		f.Add([]byte{byte(fam), 0x07, 0x3b})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, rng, err := FromSeed(data)
		if err != nil {
			t.Skipf("scenario build: %v", err)
		}
		if err := s.PassesParity(rng); err != nil {
			t.Fatal(err)
		}
		if err := s.PathParity(rng); err != nil {
			t.Fatal(err)
		}
		if err := s.RenamingParity(rng); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzModularParity is the compositional fuzz target: on every scenario
// the assume/guarantee pipeline either composes a verdict that must
// match the monolithic pipeline's, or names residue and defers to it.
func FuzzModularParity(f *testing.F) {
	for fam := 0; fam < Families(); fam++ {
		f.Add([]byte{byte(fam)})
		f.Add([]byte{byte(fam), 0x4d, 0x0d})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, rng, err := FromSeed(data)
		if err != nil {
			t.Skipf("scenario build: %v", err)
		}
		if err := s.ModularParity(rng); err != nil {
			t.Fatal(err)
		}
	})
}

// cnfFromBytes decodes fuzz input into a small CNF: the first byte picks
// the variable count, then every 3 bytes form one ternary clause.
func cnfFromBytes(data []byte) (nv int, clauses [][]int) {
	nv = 3 + int(data[0]%10)
	data = data[1:]
	for len(data) >= 3 && len(clauses) < 200 {
		var cl []int
		for _, b := range data[:3] {
			v := int(b>>1) % nv
			if b&1 == 1 {
				cl = append(cl, -(v + 1))
			} else {
				cl = append(cl, v+1)
			}
		}
		clauses = append(clauses, cl)
		data = data[3:]
	}
	return nv, clauses
}

// FuzzSolverDrat fuzzes the SAT core against the independent proof
// checker: solve a random CNF, block each model found (exercising the
// proof across incremental AddClause/Solve rounds), and when the
// instance turns UNSAT the recorded trace must pass drat.Check twice:
// as recorded, every lemma verified from the solver's hints, and with
// the hints stripped, every lemma verified by search. SAT models are
// validated against every clause.
func FuzzSolverDrat(f *testing.F) {
	f.Add([]byte{0x05, 0x02, 0x03, 0x05, 0x08, 0x0b, 0x0d})
	f.Add([]byte{0x00, 0x01, 0x03, 0x05, 0x00, 0x02, 0x04, 0x01, 0x02, 0x05})
	f.Add([]byte{0xff, 0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98})
	// All eight sign patterns over three variables: UNSAT only through
	// learned lemmas, so both checking paths have something to verify.
	f.Add([]byte{0x00,
		0, 2, 4, 1, 2, 4, 0, 3, 4, 1, 3, 4,
		0, 2, 5, 1, 2, 5, 0, 3, 5, 1, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("too short")
		}
		nv, clauses := cnfFromBytes(data)
		s := sat.New()
		proof := s.EnableProof()
		vars := make([]sat.Var, nv)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		lit := func(code int) sat.Lit {
			if code < 0 {
				return sat.MkLit(vars[-code-1], true)
			}
			return sat.MkLit(vars[code-1], false)
		}
		for _, cl := range clauses {
			lits := make([]sat.Lit, len(cl))
			for i, c := range cl {
				lits[i] = lit(c)
			}
			s.AddClause(lits...)
		}
		for round := 0; round < 6; round++ {
			switch st := s.Solve(); st {
			case sat.Unsat:
				st, err := drat.Check(proof)
				if err != nil {
					t.Fatalf("round %d: UNSAT proof rejected: %v", round, err)
				}
				if st.Fallbacks != 0 {
					t.Fatalf("round %d: %d of %d lemmas not verified from the solver's hints", round, st.Fallbacks, st.Lemmas)
				}
				bare, err := drat.Check(sat.RebuildProof(proof.Steps()))
				if err != nil {
					t.Fatalf("round %d: UNSAT proof rejected once its hints were stripped: %v", round, err)
				}
				if bare.Hinted != 0 || bare.Fallbacks != st.Hinted {
					t.Fatalf("round %d: stripped trace verified %d lemmas from hints and %d by search, want 0 and %d",
						round, bare.Hinted, bare.Fallbacks, st.Hinted)
				}
				return
			case sat.Sat:
				// The model must satisfy every original clause.
				for _, cl := range clauses {
					ok := false
					for _, c := range cl {
						if s.ValueLit(lit(c)) == sat.True {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("round %d: model violates clause %v", round, cl)
					}
				}
				// Block this model and go around again.
				block := make([]sat.Lit, 0, nv)
				for _, v := range vars {
					block = append(block, sat.MkLit(v, s.Value(v) == sat.True))
				}
				s.AddClause(block...)
			default:
				t.Fatalf("round %d: unexpected status %v", round, st)
			}
		}
	})
}
