package cost

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/stream"
)

// TestMergeNeverAliasesItsDonor is the regression test for the modular
// double count: Merge used to graft the donor's children by pointer, so a
// later merge into the receiver also grew the donor, and a donor merged
// into two roots made them share nodes.
func TestMergeNeverAliasesItsDonor(t *testing.T) {
	donor := func(conflicts int64) *Node {
		d := New("goal")
		d.Child("blast").Add(Work{ClauseDBBytes: 100})
		d.Child("solve").Add(Work{Conflicts: conflicts, Propagations: 10 * conflicts})
		d.Child("solve").Child("part:0").Add(Work{Decisions: 1})
		d.Child("solve").AddWall(time.Millisecond)
		return d
	}
	d1, d2 := donor(3), donor(5)
	want1, want2 := d1.Total(), d2.Total()
	wall1 := d1.TotalWall()

	a, b := New("class"), New("goal")
	for _, root := range []*Node{a, b} {
		root.Merge(d1)
		root.Merge(d2)
	}
	if d1.Total() != want1 || d2.Total() != want2 || d1.TotalWall() != wall1 {
		t.Fatalf("Merge mutated its donors: %+v / %+v, want %+v / %+v", d1.Total(), d2.Total(), want1, want2)
	}
	if a.Total() != b.Total() || a.Total() != want1.Plus(want2) {
		t.Fatalf("same donors, different roots: %+v vs %+v, want %+v", a.Total(), b.Total(), want1.Plus(want2))
	}
	// Growing one root must reach neither the other root nor the donors.
	a.Find("solve", "part:0").Add(Work{Decisions: 100})
	if b.Total() != want1.Plus(want2) || d1.Total() != want1 {
		t.Fatal("roots or donors share a node with the root that grew")
	}
}

// TestScopeWritesEveryAccountAtTheClose drives a scope with all three
// accounts attached and checks, from inside the sink, the order the close
// promises: by the time phase.end is seen the span has ended and the
// ledger child of the same name already holds what the event reports.
func TestScopeWritesEveryAccountAtTheClose(t *testing.T) {
	root, ledger := obs.StartSpan("query"), New("goal")
	var events []string
	var s *Scope
	s = Open(root, ledger, func(event string, f map[string]any) {
		name := f["phase"].(string)
		events = append(events, event+":"+name)
		node, sp := ledger.Find(name), root.Find(name)
		if event == stream.EventPhaseStart {
			if sp == nil || sp.Ended() {
				t.Errorf("%s started without an open span", name)
			}
			return
		}
		if sp == nil || !sp.Ended() {
			t.Errorf("phase.end for %s before its span ended", name)
		}
		if node == nil || node.Wall <= 0 || durMs(node.Wall) != f["ms"] {
			t.Errorf("phase.end for %s reports %v ms, node holds %+v", name, f["ms"], node)
		}
		if node.Total().Units() != f["units"] || node.Total().ClauseDBBytes != f["db_bytes"] {
			t.Errorf("phase.end for %s reports %v units, node holds %+v", name, f["units"], node.Total())
		}
	})
	s.Begin("blast").SetInt("sat_vars", 7)
	time.Sleep(time.Millisecond)
	if w := s.End(Work{Propagations: 4, ClauseDBBytes: 64}); w != ledger.Find("blast").Wall {
		t.Fatalf("End returned %v, charged %v", w, ledger.Find("blast").Wall)
	}
	s.Begin("solve")
	time.Sleep(time.Millisecond)
	s.End(Work{Conflicts: 2})
	want := []string{"phase.start:blast", "phase.end:blast", "phase.start:solve", "phase.end:solve"}
	if len(events) != len(want) {
		t.Fatalf("events %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events %v, want %v", events, want)
		}
	}
	if got := ledger.Total(); got != (Work{Propagations: 4, Conflicts: 2, ClauseDBBytes: 64}) {
		t.Fatalf("ledger total %+v", got)
	}
	// The windows tile the scope's lifetime: solve starts where blast ended.
	if root.Find("solve").Duration() > ledger.Find("solve").Wall {
		t.Fatalf("solve span %v longer than its window %v", root.Find("solve").Duration(), ledger.Find("solve").Wall)
	}
}

// TestScopeNilSafeAndFree: a nil scope and a scope with nothing attached
// are no-ops, and with no sink and no span a Begin/End pair allocates
// nothing once the ledger child exists.
func TestScopeNilSafeAndFree(t *testing.T) {
	var none *Scope
	if none.Begin("x") != nil || none.End(Work{}) != 0 {
		t.Fatal("nil scope did something")
	}
	bare := Open(nil, nil, nil)
	bare.Begin("x")
	if bare.End(Work{Conflicts: 1}) < 0 {
		t.Fatal("negative window")
	}

	ledger := New("goal")
	s := Open(nil, ledger, nil)
	s.Begin("solve")
	s.End(Work{}) // creates the child
	allocs := testing.AllocsPerRun(200, func() {
		s.Begin("solve")
		s.End(Work{Conflicts: 1})
	})
	if allocs != 0 {
		t.Fatalf("Begin/End with no sink and no span allocates %v times a pair", allocs)
	}
	if got := ledger.Find("solve").Total().Conflicts; got != 201 {
		t.Fatalf("solve conflicts = %d, want 201", got)
	}
}
