package sat_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sat"
	"repro/internal/sat/drat"
)

var lit = sat.Mk

// newSolver returns a solver recording its proof, with nVars variables
// and the clauses (DIMACS convention) loaded.
func newSolver(nVars int, clauses ...[]int) (*sat.Solver, *sat.Proof) {
	s := sat.New()
	p := s.EnableProof()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	sat.AddDimacs(s, clauses)
	return s, p
}

func add(s *sat.Solver, clauses ...[]int) { sat.AddDimacs(s, clauses) }

// checked requires a refutation to check from the solver's hints alone,
// and the solver to be intact.
func checked(t *testing.T, s *sat.Solver, p *sat.Proof, assumptions ...sat.Lit) *drat.Stats {
	t.Helper()
	cert, err := drat.Check(p, assumptions...)
	if err != nil {
		t.Fatalf("proof rejected: %v", err)
	}
	if cert.Fallbacks != 0 {
		t.Fatalf("%d of %d lemmas not verified from the solver's hints", cert.Fallbacks, cert.Lemmas)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return cert
}

// outcome is everything a run leaves that a caller can see.
type outcome struct {
	Status sat.Status
	Model  []bool
	Stats  sat.Stats
	Bytes  int64 // ClauseDBBytes
	Proof  int64 // Proof.Bytes
	Steps  []sat.ProofStep
	Cert   *drat.Stats
}

// TestRelocationInvisible runs the same scripts over a solver compacting
// at its default threshold and over one that relocates the whole database
// at every reduceDB and Simplify (explicit reductions are part of the
// scripts, so even instances of a dozen variables relocate learned
// clauses, at level 0 and under a model's trail), each once recording a
// proof and origins (every clause carrying its meta words) and once
// recording neither (no meta words). Verdict, model, stats and database
// size must not tell the four apart, nor the trace step for step and its
// certificate — hints alone, no fallback — the two recording runs.
func TestRelocationInvisible(t *testing.T) {
	type script func(t *testing.T, s *sat.Solver) (sat.Status, []sat.Lit)
	both := func(t *testing.T, nVars int, clauses [][]int, run script) {
		t.Helper()
		var got [2][2]outcome // [compact always][recording]
		for i := range got {
			for j := range got[i] {
				s, p := sat.New(), (*sat.Proof)(nil)
				if j == 1 {
					p = s.EnableProof()
					s.EnableOriginTracking()
					s.SetOrigin(1)
				}
				if i == 1 {
					s.CompactAlways()
				}
				for range nVars {
					s.NewVar()
				}
				sat.AddDimacs(s, clauses)
				st, assumptions := run(t, s)
				o := outcome{Status: st, Stats: s.Stats, Bytes: s.ClauseDBBytes()}
				switch {
				case st == sat.Sat:
					o.Model = s.Model()
				case st == sat.Unsat && p != nil:
					o.Cert = checked(t, s, p, assumptions...)
				}
				if p != nil {
					o.Proof, o.Steps = p.Bytes(), p.Steps()
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("compact always=%v recording=%v: %v", i == 1, j == 1, err)
				}
				got[i][j] = o
			}
		}
		bare := outcome{Status: got[0][1].Status, Model: got[0][1].Model, Stats: got[0][1].Stats, Bytes: got[0][1].Bytes}
		if !reflect.DeepEqual(got[0][1], got[1][1]) || !reflect.DeepEqual(got[0][0], bare) || !reflect.DeepEqual(got[1][0], bare) {
			for i := range got {
				for j := range got[i] {
					got[i][j].Steps = nil
				}
			}
			t.Fatalf("relocation or recording showed ([compact always][recording]):\n%+v", got)
		}
	}

	// The corpus of TestRandom3SATAgainstDPLL (same seed, same draws), each
	// instance solved, reduced under its model's trail, and re-solved with
	// the model blocked until it is refuted.
	t.Run("random 3-SAT corpus", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for iter := 0; iter < 500; iter++ {
			nVars := 4 + rng.Intn(10)
			clauses := sat.Random3SAT(rng, nVars, int(float64(nVars)*(3.0+rng.Float64()*3.0)), true)
			both(t, nVars, clauses, func(t *testing.T, s *sat.Solver) (sat.Status, []sat.Lit) {
				s.Simplify()
				for round := 0; ; round++ {
					st := s.Solve()
					s.ReduceDB()
					if st != sat.Sat || round == 8 {
						return st, nil
					}
					block := make([]sat.Lit, nVars)
					for v, val := range s.Model() {
						block[v] = sat.MkLit(sat.Var(v), val)
					}
					s.AddClause(block...)
					s.AddClause(block[0])
					s.Simplify()
				}
			})
		}
	})

	// The instances of the proof tests.
	t.Run("simplify and restarts", func(t *testing.T) {
		both(t, 0, nil, func(t *testing.T, s *sat.Solver) (sat.Status, []sat.Lit) {
			pigeonhole(s, 5)
			a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
			s.AddClause(sat.MkLit(a, false), sat.MkLit(b, false))
			s.AddClause(sat.MkLit(a, true), sat.MkLit(b, false), sat.MkLit(c, false))
			s.AddClause(sat.MkLit(b, true), sat.MkLit(c, true))
			s.AddClause(sat.MkLit(a, false))
			s.Simplify()
			return s.Solve(), nil
		})
	})
	t.Run("reduceDB", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		deleted := false
		for try := 0; try < 6; try++ {
			both(t, 140, sat.Random3SAT(rng, 140, 616, false), func(t *testing.T, s *sat.Solver) (sat.Status, []sat.Lit) {
				st := s.Solve()
				deleted = deleted || s.Stats.Deleted > 0
				return st, nil
			})
		}
		if !deleted {
			t.Fatal("no instance reached reduceDB")
		}
	})
	t.Run("incremental assumptions", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for iter := 0; iter < 20; iter++ {
			all := sat.Random3SAT(rng, 60, 330, true)
			both(t, 61, all[:200], func(t *testing.T, s *sat.Solver) (sat.Status, []sat.Lit) {
				// Variable 61 activates the second half, as a session's
				// activation literal does.
				act := lit(61)
				if st := s.Solve(); st != sat.Sat {
					return st, nil
				}
				for _, c := range all[200:] {
					s.AddClause(lit(c[0]), lit(c[1]), lit(c[2]), act.Not())
				}
				s.Simplify()
				if st := s.Solve(act); st != sat.Sat {
					return st, []sat.Lit{act}
				}
				s.AddClause(act.Not())
				s.Simplify()
				return s.Solve(), nil
			})
		}
	})
}

// TestBinaryClauses walks the cases in which a two-literal clause is
// decided from its watcher alone, each to a refutation that checks.
func TestBinaryClauses(t *testing.T) {
	hasBinaryLemma := func(p *sat.Proof) bool {
		for i, st := range p.Steps() {
			if st.Kind == sat.ProofDerive && len(st.Lits) == 2 && len(p.Hints(i)) > 1 {
				return true
			}
		}
		return false
	}

	t.Run("learned", func(t *testing.T) {
		// Deciding ¬v0, ¬v1 runs into the first two clauses: the lemma is
		// (v1 ∨ v0), which then propagates, conflicts and is resolved on.
		s, p := newSolver(7,
			[]int{1, 2, 3}, []int{1, 2, -3}, []int{1, -2, 4}, []int{1, -2, -4},
			[]int{-1, 5, 6}, []int{-1, 5, -6}, []int{-1, -5, 7}, []int{-1, -5, -7})
		if st := s.Solve(); st != sat.Unsat {
			t.Fatalf("got %v, want unsat", st)
		}
		if !hasBinaryLemma(p) {
			t.Fatal("no binary clause was learned")
		}
		checked(t, s, p)
	})

	t.Run("duplicates", func(t *testing.T) {
		for _, simplify := range []bool{false, true} {
			// Four times the same clause; ¬v0 follows from the next two.
			s, p := newSolver(4, []int{1, 2}, []int{2, 1}, []int{1, 1, 2}, []int{1, 2}, []int{-1, 3}, []int{-1, -3})
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if simplify {
				// v1 satisfies all four copies; each is detached by its own
				// ref and takes its own pair of watchers with it.
				s.AddClause(lit(2))
				s.Simplify()
				if s.Stats.Simplified != 4 {
					t.Fatalf("Simplify removed %d clauses, want the four copies", s.Stats.Simplified)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			add(s, []int{-2, 4}, []int{-2, -4})
			if st := s.Solve(); st != sat.Unsat {
				t.Fatalf("got %v, want unsat", st)
			}
			checked(t, s, p)
		}
	})

	t.Run("conflict under assumptions", func(t *testing.T) {
		s, p := newSolver(3, []int{-1, 2}, []int{-1, -2}, []int{1, 3})
		if st := s.Solve(lit(1)); st != sat.Unsat {
			t.Fatalf("assuming v0: got %v, want unsat", st)
		}
		checked(t, s, p, lit(1))
		if st := s.Solve(); st != sat.Sat || s.ValueLit(lit(1)) != sat.False || s.ValueLit(lit(3)) != sat.True {
			t.Fatalf("without the assumption: got %v", st)
		}
	})

	t.Run("strengthened by Simplify", func(t *testing.T) {
		// Assuming ¬v0, ¬v1, ¬v2 learns (v2 ∨ v1 ∨ v0); the unit ¬v1 then
		// strengthens it, and the two problem clauses, at the root.
		s, p := newSolver(8, []int{1, 2, 3, 4}, []int{1, 2, 3, -4})
		s.CompactAlways()
		if st := s.Solve(lit(-1), lit(-2), lit(-3)); st != sat.Unsat || !slices.Equal(s.LearntSizes(), []int{3}) {
			t.Fatalf("got %v with learned clauses of sizes %v, want unsat under the assumptions and one of 3", st, s.LearntSizes())
		}
		s.AddClause(lit(-2))
		s.Simplify()
		if !slices.Equal(s.LearntSizes(), []int{2}) || s.Stats.Strengthened != 3 {
			t.Fatalf("learned clause sizes %v after %d literals stripped, want one binary clause", s.LearntSizes(), s.Stats.Strengthened)
		}
		if err := s.CheckInvariants(); err != nil { // the flag is on both watchers
			t.Fatal(err)
		}
		// Propagating: under ¬v0 it implies v2 ...
		if st := s.Solve(lit(-1)); st != sat.Sat || s.ValueLit(lit(3)) != sat.True {
			t.Fatalf("under ¬v0: got %v, v2 %v", st, s.ValueLit(lit(3)))
		}
		// ... and is that literal's reason while the model's trail stands:
		// a reduction now must keep it, relocate it and re-point the reason.
		s.ReduceDB()
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(s.LearntSizes(), []int{2}) || s.ValueLit(lit(3)) != sat.True {
			t.Fatal("the reduction dropped a locked binary clause, or the model with it")
		}
		// Conflicting: v4 implies ¬v0 and ¬v2 before the clause is visited.
		add(s, []int{-5, -1}, []int{-5, -3})
		if st := s.Solve(lit(5)); st != sat.Unsat {
			t.Fatalf("under v4: got %v, want unsat", st)
		}
		checked(t, s, p, lit(5))
		// Resolved on, to a refutation of the whole formula.
		add(s, []int{1, -3, 6}, []int{1, -3, -6}, []int{-1, 7}, []int{-1, -7})
		if st := s.Solve(); st != sat.Unsat {
			t.Fatalf("got %v, want unsat", st)
		}
		checked(t, s, p)
	})
}

// TestWidenKeepsEveryRef switches proof logging, then origin tracking, on
// in solvers that have learned, reduced and simplified, with a model's
// trail standing: the widening relocates problem and learned clauses,
// watchers, and the reasons of a trail above level 0. Every ref must
// survive each step, and the search that goes on — the rest of the
// instance added and solved — must be the one of a twin that switched
// neither on, down to its stats and database size; a refutation must
// check from the solver's hints.
func TestWidenKeepsEveryRef(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	exercised := false
	for iter := 0; iter < 12; iter++ {
		nVars := 60 + rng.Intn(40)
		clauses := sat.Random3SAT(rng, nVars, 5*nVars, true)
		first := 7 * len(clauses) / 10
		var got [2]outcome
		for i := range got {
			s := sat.New()
			for range nVars {
				s.NewVar()
			}
			add(s, clauses[:first]...)
			s.Solve()
			s.ReduceDB()
			s.AddClause(lit(clauses[0][0]))
			s.Simplify()
			st := s.Solve()
			var p *sat.Proof
			if i == 1 {
				exercised = exercised || st == sat.Sat && s.Stats.Learned > 0 && s.Stats.Deleted > 0 && s.Stats.Simplified > 0
				p = s.EnableProof()
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("iter %d, proof logging switched on: %v", iter, err)
				}
				s.EnableOriginTracking()
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("iter %d, origin tracking switched on: %v", iter, err)
				}
			}
			add(s, clauses[first:]...)
			st = s.Solve()
			got[i] = outcome{Status: st, Stats: s.Stats, Bytes: s.ClauseDBBytes()}
			switch {
			case st == sat.Sat:
				got[i].Model = s.Model()
			case st == sat.Unsat && p != nil:
				checked(t, s, p)
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("iter %d: widening moved the search:\nnever %+v\nwidened %+v", iter, got[0], got[1])
		}
	}
	if !exercised {
		t.Fatal("no solver had learned, reduced and simplified under a model's trail when it widened")
	}
}
