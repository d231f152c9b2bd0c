package sat

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// hasPointer reports whether a value of type t holds anything the
// collector would have to trace.
func hasPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// TestClauseLayout pins the layout the propagation loop was sized for: an
// 8-byte watcher; a problem clause of n literals in 1+n arena words, 3+n
// once a proof or origins are recorded, and a learned one in 3 more, each
// header word read back where it was written; and no pointer in anything
// a clause database is made of, so the collector has nothing to scan
// there.
func TestClauseLayout(t *testing.T) {
	if got := unsafe.Sizeof(watcher{}); got != 8 {
		t.Errorf("watcher is %d bytes, want 8", got)
	}
	lits := []Lit{mk(1), mk(-2), mk(3)}
	for _, recorded := range []bool{false, true} {
		s := newSolverWithVars(3)
		if recorded {
			s.EnableProof()
		}
		for _, learnt := range []bool{false, true} {
			want := 1 + len(lits)
			if recorded {
				want += 2
			}
			if learnt {
				want += 3
			}
			at := len(s.arena)
			c := s.alloc(lits, learnt, 5, 7, 9)
			if got := len(s.arena) - at; got != want || int(c) != at+want-1-len(lits) {
				t.Errorf("recorded=%v learnt=%v: %d words with the size word at +%d, want %d and +%d",
					recorded, learnt, got, int(c)-at, want, want-1-len(lits))
			}
			if !reflect.DeepEqual(s.lits(c), lits) || (s.arena[c]&1 == 1) != learnt {
				t.Errorf("recorded=%v learnt=%v: literals %v, size word %#x", recorded, learnt, s.lits(c), s.arena[c])
			}
			if recorded && (s.origin(c) != 7 || s.step(c) != 9) {
				t.Errorf("learnt=%v: origin %d step %d, want 7 and 9", learnt, s.origin(c), s.step(c))
			}
			if learnt && (s.lbd(c) != 5 || s.claActivity(c) != 0) {
				t.Errorf("recorded=%v: LBD %d activity %v, want 5 and 0", recorded, s.lbd(c), s.claActivity(c))
			}
		}
	}
	st := reflect.TypeOf(Solver{})
	for _, name := range []string{"arena", "clauses", "learnts", "reason", "assigns"} {
		f, _ := st.FieldByName(name)
		if hasPointer(f.Type.Elem()) {
			t.Errorf("Solver.%s has element type %v, which holds a pointer", name, f.Type.Elem())
		}
	}
	if f, _ := st.FieldByName("watches"); hasPointer(f.Type.Elem().Elem()) || f.Type.Elem().Elem() != reflect.TypeOf(watcher{}) {
		t.Errorf("a watch list has element type %v: want watcher, without pointers", f.Type.Elem().Elem())
	}
	// The accounting size is a model, not the layout: it must not follow.
	if clauseBytes(3) != 32+12 {
		t.Errorf("clauseBytes(3) = %d, want 44", clauseBytes(3))
	}
}

// TestSteadyStateAllocs: adding a clause to a solver whose arena and
// lists have room, and a solve that only decides and propagates, allocate
// nothing.
func TestSteadyStateAllocs(t *testing.T) {
	s := newSolverWithVars(16)
	clauses := [][]Lit{
		{mk(1), mk(-2)},
		{mk(3), mk(-4), mk(5)},
		{mk(16), mk(-6), mk(7), mk(-8), mk(9), mk(-10), mk(11), mk(-12), mk(13), mk(-14), mk(15), mk(6)},
	}
	for _, c := range clauses {
		for i := 0; i < 4096; i++ { // warm the arena, the clause list and the two watch lists
			s.AddClause(c...)
		}
		if got := testing.AllocsPerRun(1000, func() { s.AddClause(c...) }); got != 0 {
			t.Errorf("AddClause of %d literals: %v allocs/op, want 0", len(c), got)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// x1 and a chain of implications, binary and ternary: every solve is
	// decisions and propagations, no conflict, nothing learned.
	s = newSolverWithVars(64)
	for v := 1; v+2 <= 64; v += 2 {
		s.AddClause(mk(-v), mk(v+1))
		s.AddClause(mk(-v), mk(-(v + 1)), mk(v+2))
	}
	if got := testing.AllocsPerRun(100, func() {
		if s.Solve() != Sat {
			t.Fatal("chain is satisfiable")
		}
	}); got != 0 {
		t.Errorf("propagate-only solve: %v allocs/op, want 0", got)
	}
	if s.Stats.Conflicts != 0 || s.Stats.Propagations == 0 || s.Stats.Decisions == 0 {
		t.Fatalf("solve was not decisions and propagations only: %+v", s.Stats)
	}
}

// TestClauseDBBytesRunningTotal holds the running total (and the waste
// count, the watch lists and the reasons: CheckInvariants) to a recount
// through random sequences of everything that changes the database: add,
// solve (learn, reduceDB), solve under assumptions, units and Simplify
// (remove, strengthen), with compaction at its default threshold and
// forced at every opportunity.
func TestClauseDBBytesRunningTotal(t *testing.T) {
	for _, forced := range []bool{false, true} {
		rng := rand.New(rand.NewSource(99))
		for iter := 0; iter < 12; iter++ {
			nVars := 90 + rng.Intn(60)
			all := seeded3SAT(rng.Int63(), nVars, 4.3)
			s := newSolverWithVars(nVars)
			if forced {
				s.CompactAlways()
			}
			if iter%2 == 0 {
				s.EnableProof()
			}
			check := func(when string) {
				t.Helper()
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("forced=%v iter %d after %s: %v", forced, iter, when, err)
				}
			}
			for at := 0; at < len(all) && s.Okay(); {
				switch rng.Intn(6) {
				case 0, 1:
					n := min(1+rng.Intn(80), len(all)-at)
					addDimacs(s, all[at:at+n])
					at += n
					check("add")
				case 2:
					s.MaxConflicts = s.Stats.Conflicts + int64(200+rng.Intn(3000))
					s.SolveLimited()
					check("solve")
				case 3:
					s.MaxConflicts = s.Stats.Conflicts + int64(200+rng.Intn(1000))
					s.SolveLimited(mk(1+rng.Intn(nVars)), mk(-(1 + rng.Intn(nVars))))
					check("solve under assumptions")
				case 4:
					s.AddClause(mk(all[at][rng.Intn(3)]))
					s.Simplify()
					check("unit and simplify")
				case 5:
					s.reduceDB()
					check("reduceDB")
				}
			}
			s.Simplify()
			check("final simplify")
		}
	}
}

// TestClauseDBFull: a clause that does not fit the arena's address space
// is a named refusal — never an inconsistency (that would read as UNSAT),
// never a verdict over a database with the clause missing.
func TestClauseDBFull(t *testing.T) {
	refused := func(t *testing.T, s *Solver) {
		t.Helper()
		if !s.Okay() {
			t.Fatal("a full database reads as inconsistent")
		}
		if st := s.Solve(); st != Unsolved {
			t.Fatalf("Solve on a full database = %v, want unsolved", st)
		}
		if st, err := s.SolveLimited(); st != Unsolved || !errors.Is(err, ErrClauseDBFull) {
			t.Fatalf("SolveLimited on a full database = %v, %v, want unsolved, ErrClauseDBFull", st, err)
		}
		if s.decisionLevel() != 0 {
			t.Fatalf("refused at decision level %d", s.decisionLevel())
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("AddClause", func(t *testing.T) {
		s := newSolverWithVars(8)
		s.AddClause(mk(1), mk(2), mk(3))
		s.arenaLimit = len(s.arena) + 1 + 2 // room for one binary clause
		if !s.AddClause(mk(-1), mk(4), mk(5)) {
			t.Fatal("AddClause reported an inconsistency for a clause that did not fit")
		}
		refused(t, s)
		// The refusal is permanent, whatever fits later.
		if !s.AddClause(mk(-1), mk(2)) || s.NumClauses() != 2 {
			t.Fatalf("a clause that fits was not added: %d clauses", s.NumClauses())
		}
		refused(t, s)
	})

	// Switching recording on over a database that cannot take the meta
	// words is the same refusal, and nothing is recorded.
	t.Run("widen", func(t *testing.T) {
		s := newSolverWithVars(8)
		s.AddClause(mk(1), mk(2), mk(3))
		s.AddClause(mk(-1), mk(4))
		s.arenaLimit = len(s.arena) + 3 // short of the 2 words each clause needs
		if p := s.EnableProof(); p.NumSteps() != 0 || s.Proof() != nil {
			t.Fatalf("a refused widening recorded a proof of %d steps", p.NumSteps())
		}
		if s.EnableOriginTracking(); s.origins != nil {
			t.Fatal("a refused widening tracks origins")
		}
		refused(t, s)
	})

	t.Run("learned clause mid-search", func(t *testing.T) {
		s := pigeonhole(6)
		s.arenaLimit = len(s.arena) + 200
		refused(t, s)
		if s.Stats.Learned == 0 || s.Stats.Conflicts <= s.Stats.Learned {
			t.Fatalf("search did not stop at a learned clause that did not fit: %+v", s.Stats)
		}
	})
}
