package sat

import (
	"math/rand"
	"testing"
)

// seeded3SAT is a random 3-SAT instance at the given clause/variable
// ratio, a function of the seed alone.
func seeded3SAT(seed int64, nVars int, ratio float64) [][]int {
	return random3SAT(rand.New(rand.NewSource(seed)), nVars, int(ratio*float64(nVars)), true)
}

// trajectory is what one pinned instance must reproduce exactly: the
// search counters and the size of the recorded proof.
type trajectory struct {
	Status                                                         Status
	Decisions, Propagations, Conflicts, Restarts, Learned, Deleted int64
	Simplified, Strengthened                                       int64
	Steps, Lits, Hints                                             int
}

func trajectoryOf(s *Solver, st Status) trajectory {
	p := s.Proof()
	return trajectory{st, s.Stats.Decisions, s.Stats.Propagations, s.Stats.Conflicts, s.Stats.Restarts,
		s.Stats.Learned, s.Stats.Deleted, s.Stats.Simplified, s.Stats.Strengthened,
		p.NumSteps(), p.NumLits(), p.NumHints()}
}

// TestSearchTrajectoryPinned holds the search to the trajectory recorded
// at the commit before the clause arena replaced heap clauses (4bb0f1d):
// the change of representation may make each step cheaper, never take a
// different one. Every number below was printed by that commit; a
// difference is a bug in the solver, not a baseline to regenerate.
func TestSearchTrajectoryPinned(t *testing.T) {
	loaded := func(nVars int, clauses [][]int) *Solver {
		s := newSolverWithVars(nVars)
		s.EnableProof()
		addDimacs(s, clauses)
		return s
	}
	php := func(n int) func() (*Solver, Status) {
		return func() (*Solver, Status) {
			s := New()
			s.EnableProof()
			loadPigeonhole(s, n)
			return s, s.Solve()
		}
	}
	r3sat := func(seed int64, nVars int) func() (*Solver, Status) {
		return func() (*Solver, Status) {
			s := loaded(nVars, seeded3SAT(seed, nVars, 4.26))
			return s, s.Solve()
		}
	}
	cases := []struct {
		name string
		run  func() (*Solver, Status)
		want trajectory
		// reduces marks the instances that must reach reduceDB.
		reduces bool
	}{
		{"php7", php(7), trajectory{Unsat, 9254, 105471, 7620, 30, 7612, 6556, 0, 0, 14380, 229575, 107315}, false},
		{"php8", php(8), trajectory{Unsat, 275647, 3358090, 224881, 510, 224875, 223776, 0, 0, 448954, 10059888, 3364854}, true},
		{"r3sat-150", r3sat(11, 150), trajectory{Unsat, 5234, 135980, 4398, 21, 4391, 3693, 0, 0, 8730, 73352, 88361}, false},
		{"r3sat-200", r3sat(5, 200), trajectory{Sat, 935, 26417, 707, 5, 707, 0, 0, 0, 1559, 9973, 14644}, false},
		{"r3sat-250-reducedb", r3sat(2, 250), trajectory{Sat, 27352, 973016, 22029, 77, 22029, 20650, 0, 0, 43744, 574825, 544594}, true},
		{"assumptions", func() (*Solver, Status) {
			s := loaded(150, seeded3SAT(23, 150, 4.26))
			return s, s.Solve(mk(3), mk(-17), mk(40))
		}, trajectory{Unsat, 1729, 45595, 1440, 9, 1440, 618, 0, 0, 2697, 22961, 28103}, false},
		{"incremental", func() (*Solver, Status) {
			// The session pattern: solve, add clauses (units included),
			// simplify, solve again, until the instance is refuted.
			all := seeded3SAT(31, 180, 5.2)
			s := loaded(180, all[:600])
			st := s.Solve()
			for at := 600; st == Sat && at < len(all); at += 48 {
				addDimacs(s, all[at:min(at+48, len(all))])
				s.AddClause(mk(all[at][0]))
				s.Simplify()
				st = s.Solve()
			}
			return s, st
		}, trajectory{Unsat, 3688, 112690, 3020, 18, 3012, 1871, 27, 32, 5730, 48407, 67851}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, st := tc.run()
			got := trajectoryOf(s, st)
			if tc.reduces && got.Deleted == 0 {
				t.Errorf("instance never reached reduceDB")
			}
			if got != tc.want {
				t.Errorf("trajectory moved:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
