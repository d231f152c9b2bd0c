package sat

import "testing"

// BenchLayers is the body of BenchmarkSat: the solver's layers one by one
// on a formula the caller built (bench_cnf_test.go blasts it from a
// fabric, which takes the encoder, and the encoder imports this package).
// Each layer is named after what it is in the repo benchmark's per-layer
// metrics (BENCHMARK.json): addclause is the solver's share of
// smt.blast_s, bcp is sat.propagations_per_s, analyze the per-conflict
// part of sat.conflicts_per_s, reducedb what keeps sat.clause_db_bytes
// bounded. Proof logging and origin tracking are off. The solver is
// loaded at its final size, as the blaster loads it (Reserve).
func BenchLayers(b *testing.B, nVars int, cnf [][]Lit) {
	lits := 0
	for _, c := range cnf {
		lits += len(c)
	}
	load := func() *Solver {
		s := New()
		s.Reserve(nVars, len(cnf), lits)
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, c := range cnf {
			s.AddClause(c...)
		}
		return s
	}
	// descend decides every free variable false, in index order, and
	// propagates; a decision that conflicts is taken back and skipped. It
	// returns the first conflict met, with the trail that led to it left
	// standing when stop is set.
	descend := func(s *Solver, stop bool) cref {
		var first cref
		for v := 0; v < nVars; v++ {
			if s.Value(Var(v)) != Unknown {
				continue
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(MkLit(Var(v), true), 0)
			if confl := s.propagate(); confl != 0 {
				if first == 0 {
					first = confl
				}
				if stop {
					return first
				}
				s.cancelUntil(s.decisionLevel() - 1)
			}
		}
		return first
	}

	b.Run("addclause", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			load()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cnf)), "ns/clause")
	})

	b.Run("bcp", func(b *testing.B) {
		s := load()
		descend(s, false) // grow the trail and the watch lists to their working size
		s.cancelUntil(0)
		before := s.Stats.Propagations
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			descend(s, false)
			s.cancelUntil(0)
		}
		b.ReportMetric(float64(s.Stats.Propagations-before)/b.Elapsed().Seconds(), "propagations/s")
	})

	b.Run("analyze", func(b *testing.B) {
		s := load()
		confl := descend(s, true)
		if confl == 0 {
			b.Skip("the descent met no conflict on this formula")
		}
		s.analyze(confl)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Analysis reads the trail and the reasons and leaves them as
			// they were (it bumps activities): the same conflict again.
			s.analyze(confl)
		}
		b.ReportMetric(float64(len(s.analyzeCl)), "lits/lemma")
	})

	b.Run("reducedb", func(b *testing.B) {
		// The search is deterministic: every probe ends on the same database.
		probe := func() *Solver {
			s := load()
			s.MaxConflicts = 200
			s.SolveLimited()
			return s
		}
		learnts := len(probe().learnts)
		if learnts < 100 {
			b.Skipf("only %d clauses learned in 200 conflicts", learnts)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := probe()
			b.StartTimer()
			s.reduceDB()
		}
		b.ReportMetric(float64(learnts), "learnts")
	})
}
