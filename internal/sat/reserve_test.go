package sat

import (
	"reflect"
	"testing"
)

// TestReserveIsOnlyAHint loads and solves one instance with no hint, the
// exact one, a hundred times too much and half of what is needed (the
// slab runs out mid-way and the arrays regrow after all): the database,
// the search and the invariants must not know the difference.
func TestReserveIsOnlyAHint(t *testing.T) {
	const nVars = 150
	clauses := seeded3SAT(11, nVars, 4.26)
	type outcome struct {
		status  Status
		stats   Stats
		bytes   int64
		problem [][]Lit
	}
	run := func(vars, cls, lits int) outcome {
		s := New()
		s.Reserve(vars, cls, lits)
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		addDimacs(s, clauses)
		loaded := s.Clauses()
		st := s.Solve()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("Reserve(%d, %d, %d): %v", vars, cls, lits, err)
		}
		return outcome{st, s.Stats, s.ClauseDBBytes(), loaded}
	}
	want := run(0, 0, 0)
	if want.stats.Conflicts < 1000 {
		t.Fatalf("only %d conflicts: not a search worth comparing", want.stats.Conflicts)
	}
	for _, h := range [][3]int{
		{nVars, len(clauses), 3 * len(clauses)},
		{100 * nVars, 100 * len(clauses), 300 * len(clauses)},
		{nVars / 2, len(clauses) / 2, len(clauses)},
		{-1, 5, 5},
	} {
		if got := run(h[0], h[1], h[2]); !reflect.DeepEqual(got, want) {
			t.Errorf("Reserve%v: %v, %+v, %d bytes; without: %v, %+v, %d bytes (or the loaded clauses differ)",
				h, got.status, got.stats, got.bytes, want.status, want.stats, want.bytes)
		}
	}
}

// TestAddClauseInReservedRoomAllocatesNothing: with the room reserved,
// loading a clause writes into the arena and into the watch lists'
// windows of the slab, and allocates nothing of the solver's own. With
// proof logging on, reserved before the room as the executor does, the
// header's proof words fit the same reservation and the one allocation a
// clause is the trace's copy of its literals. No literal here is watched
// more than slabWindow times.
func TestAddClauseInReservedRoomAllocatesNothing(t *testing.T) {
	const nVars = 400
	var clauses [][]Lit
	lits := 0
	for v := Var(0); v+2 < nVars; v++ {
		clauses = append(clauses,
			[]Lit{MkLit(v, false), MkLit(v+1, false), MkLit(v+2, true)},
			[]Lit{MkLit(v, true), MkLit(v+1, true)})
		lits += 5
	}
	for _, proof := range []bool{false, true} {
		s := New()
		want := 0.0
		if proof {
			s.EnableProof()
			want = 1
		}
		s.Reserve(nVars, len(clauses), lits)
		room := cap(s.arena)
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		next := 0
		if n := testing.AllocsPerRun(len(clauses)-1, func() {
			s.AddClause(clauses[next]...)
			next++
		}); n != want {
			t.Errorf("proof=%v: AddClause allocates %v times a clause in reserved room, want %v", proof, n, want)
		}
		if s.NumClauses() != len(clauses) || cap(s.arena) != room {
			t.Fatalf("proof=%v: %d of %d clauses stored; the arena went from %d words of room to %d",
				proof, s.NumClauses(), len(clauses), room, cap(s.arena))
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
