package sat

import "testing"

// TestOriginSetInterning pins the set-interning semantics behind
// SetOrigin: base lists are sorted and deduplicated, identical sets share
// one id, negative ids are dropped, and the empty set stays id 0.
func TestOriginSetInterning(t *testing.T) {
	s := New()
	s.EnableOriginTracking()
	a, b := s.NewVar(), s.NewVar()

	s.SetOrigin(3, 1, 3)
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.SetOrigin(1, 3)
	s.AddClause(MkLit(a, false), MkLit(b, true))
	s.SetOrigin(-7)
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.SetOrigin()
	s.AddClause(MkLit(a, true), MkLit(b, true))

	sets, counts := s.OriginSnapshot()
	if len(sets) != len(counts) {
		t.Fatalf("snapshot misaligned: %d sets, %d counts", len(sets), len(counts))
	}
	// Id 0 is the empty set; {3,1,3} and {1,3} intern to one further set.
	if len(sets) != 2 {
		t.Fatalf("interned %d sets, want 2 (empty + {1,3}): %v", len(sets), sets)
	}
	if len(sets[0]) != 0 {
		t.Fatalf("set 0 not empty: %v", sets[0])
	}
	if len(sets[1]) != 2 || sets[1][0] != 1 || sets[1][1] != 3 {
		t.Fatalf("set 1 = %v, want [1 3]", sets[1])
	}
}

// TestOriginAttribution solves a small UNSAT instance with two tagged
// clause groups plus untagged glue and checks that solver work lands on
// the tagged sets: the conflicting constraints over (a,b) must be
// attributed, and learned-clause origins must be unions of antecedent
// bases — never inventions.
func TestOriginAttribution(t *testing.T) {
	s := New()
	s.EnableOriginTracking()
	a, b := s.NewVar(), s.NewVar()
	c, d := s.NewVar(), s.NewVar()

	s.SetOrigin(10)
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, false), MkLit(b, true))
	s.SetOrigin(20)
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(a, true), MkLit(b, true))
	s.SetOrigin()
	s.AddClause(MkLit(c, false), MkLit(d, false)) // satisfiable, irrelevant

	if st := s.Solve(); st != Unsat {
		t.Fatalf("status %v, want Unsat", st)
	}
	sets, counts := s.OriginSnapshot()
	var worked []int32
	for id, cnt := range counts {
		if cnt == (OriginCounts{}) {
			continue
		}
		for _, base := range sets[id] {
			if base != 10 && base != 20 {
				t.Fatalf("work attributed to unknown base %d (set %v)", base, sets[id])
			}
			worked = append(worked, base)
		}
	}
	if len(worked) == 0 {
		t.Fatal("UNSAT solve attributed no work to any tagged origin")
	}
}

// TestOriginTrackingOffIsFree pins the disabled path: without
// EnableOriginTracking the snapshot is nil and SetOrigin is a no-op.
func TestOriginTrackingOffIsFree(t *testing.T) {
	s := New()
	s.SetOrigin(1, 2, 3)
	v := s.NewVar()
	s.AddClause(MkLit(v, false))
	if sets, counts := s.OriginSnapshot(); sets != nil || counts != nil {
		t.Fatalf("snapshot without tracking: %v %v", sets, counts)
	}
	if s.origins != nil {
		t.Fatal("origin tables exist without enable")
	}
}
