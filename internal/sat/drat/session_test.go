package drat

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sat"
)

// TestCheckerFollowsASession runs random incremental sessions the way
// core's Session drives its solver: each check takes a fresh activation
// literal, enters its clauses under it and retires the previous one with
// the unit ¬act, and is answered UNSAT under it. After every check a
// checker following the growing trace must accept exactly what a one-shot
// check of the whole trace accepts, with the same core, which must be
// unsatisfiable under the assumption on its own. It replays each
// step once, so over a session it must propagate less than the one-shot
// replays together, which replay the trace's prefix again at every check.
func TestCheckerFollowsASession(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const sessions, checks = 20, 4
	for session := 0; session < sessions; session++ {
		nv := 10 + rng.Intn(10)
		s, p := randomCNF(rng, nv, 2.0)
		lit := func() sat.Lit { return sat.MkLit(sat.Var(rng.Intn(nv)), rng.Intn(2) == 0) }
		follow := NewChecker(p, true)
		var act sat.Lit = -1
		var oneShot int64
		for k := 0; k < checks; k++ {
			if act >= 0 {
				s.AddClause(act.Not())
			}
			act = sat.MkLit(s.NewVar(), false)
			for st := sat.Sat; st != sat.Unsat; st = s.Solve(act) {
				for i := 0; i < nv; i++ {
					s.AddClause(act.Not(), lit(), lit(), lit())
				}
			}
			got, gotCore, err := follow.Check(act)
			want, wantCore, wantErr := NewChecker(p, true).Check(act)
			if err != nil || wantErr != nil {
				t.Fatalf("session %d check %d: following checker err=%v, one-shot err=%v", session, k, err, wantErr)
			}
			if len(wantCore) == 0 || !slices.Equal(gotCore, wantCore) {
				t.Fatalf("session %d check %d: core %v, one-shot core %v", session, k, gotCore, wantCore)
			}
			// The core is a refutation in its own right.
			cs := sat.New()
			for cs.NumVars() <= int(act.Var()) {
				cs.NewVar()
			}
			for _, i := range gotCore {
				cs.AddClause(p.Steps()[i].Lits...)
			}
			if cs.Solve(act) != sat.Unsat {
				t.Fatalf("session %d check %d: core %v is satisfiable under the assumption", session, k, gotCore)
			}
			if got.Inputs != want.Inputs || got.Lemmas != want.Lemmas || got.Deletions != want.Deletions ||
				got.Hinted != want.Hinted || got.Fallbacks != want.Fallbacks {
				t.Fatalf("session %d check %d: stats %+v, one-shot %+v", session, k, got, want)
			}
			oneShot += want.Propagations
		}
		// A literal the trace does not refute is rejected both ways.
		free := sat.MkLit(s.NewVar(), false)
		_, _, err := follow.Check(free)
		_, oneErr := Check(p, free)
		if (err == nil) != (oneErr == nil) {
			t.Fatalf("session %d: following checker err=%v, one-shot err=%v on a free literal", session, err, oneErr)
		}
		st, _, _ := follow.Check(act)
		if st == nil || st.Propagations >= oneShot {
			t.Fatalf("session %d: the following checker propagated %+v, the %d one-shot replays %d", session, st, checks, oneShot)
		}
	}
}
