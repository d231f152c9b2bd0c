package cost

import (
	"bytes"
	"encoding/json"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"repro/internal/sat"
)

func TestWorkArithmetic(t *testing.T) {
	a := Work{Decisions: 3, Propagations: 10, Conflicts: 2, ClauseDBBytes: 100}
	b := Work{Decisions: 1, Propagations: 5, Conflicts: 1, ProofBytes: 7}
	sum := a.Plus(b)
	if sum.Decisions != 4 || sum.Propagations != 15 || sum.Conflicts != 3 ||
		sum.ClauseDBBytes != 100 || sum.ProofBytes != 7 {
		t.Fatalf("Plus wrong: %+v", sum)
	}
	if got := sum.Minus(b); got != a {
		t.Fatalf("Minus not inverse of Plus: %+v != %+v", got, a)
	}
	if sum.Units() != 4+15+3 {
		t.Fatalf("Units = %d", sum.Units())
	}
	if !(Work{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestFromStats(t *testing.T) {
	st := sat.Stats{Decisions: 7, Propagations: 42, Conflicts: 5, Learned: 4, Restarts: 1}
	w := FromStats(st)
	if w.Decisions != 7 || w.Propagations != 42 || w.Conflicts != 5 || w.Learned != 4 || w.Restarts != 1 {
		t.Fatalf("FromStats wrong: %+v", w)
	}
}

func TestNodeTotalSumsSubtree(t *testing.T) {
	root := New("job")
	root.Add(Work{Decisions: 1})
	goal := root.Child("goal")
	goal.Child("blast").Add(Work{ClauseDBBytes: 500})
	goal.Child("solve").Add(Work{Decisions: 10, Propagations: 100, Conflicts: 3})
	goal.Child("solve").Add(Work{Conflicts: 1}) // Child must find, not duplicate
	if len(goal.Children) != 2 {
		t.Fatalf("Child duplicated: %d children", len(goal.Children))
	}
	total := root.Total()
	want := Work{Decisions: 11, Propagations: 100, Conflicts: 4, ClauseDBBytes: 500}
	if total != want {
		t.Fatalf("Total = %+v, want %+v", total, want)
	}
}

func TestNilSafety(t *testing.T) {
	var n *Node
	n.Add(Work{Decisions: 1})
	n.AddWall(time.Second)
	n.SetMeta("k", 1)
	n.Merge(New("x"))
	n.AddChild(New("x"))
	if n.Child("x") != nil {
		t.Fatal("nil Child should return nil")
	}
	if !n.Total().IsZero() || n.TotalWall() != 0 {
		t.Fatal("nil totals should be zero")
	}
	if name, _ := n.Costliest(); name != "" {
		t.Fatal("nil Costliest should be empty")
	}
	n.charge(snapshot{}, snapshot{wall: time.Now()})
	var buf bytes.Buffer
	n.WriteTree(&buf)
}

func TestMergeFoldsSameNameChildren(t *testing.T) {
	a := New("job")
	a.Child("solve").Add(Work{Conflicts: 2})
	a.Child("solve").AddWall(10 * time.Millisecond)
	a.Mem = Mem{AllocBytes: 100, HeapPeakBytes: 50}

	b := New("job")
	b.Child("solve").Add(Work{Conflicts: 3})
	b.Child("certify").Add(Work{ProofBytes: 9})
	b.Mem = Mem{AllocBytes: 10, HeapPeakBytes: 80}
	b.SetMeta("wasted_units", 4)

	a.Merge(b)
	if len(a.Children) != 2 {
		t.Fatalf("merge children = %d", len(a.Children))
	}
	if got := a.Find("solve").Total().Conflicts; got != 5 {
		t.Fatalf("merged solve conflicts = %d", got)
	}
	if a.Mem.AllocBytes != 110 || a.Mem.HeapPeakBytes != 80 {
		t.Fatalf("merged mem = %+v", a.Mem)
	}
	if a.metaOr("wasted_units") != 4 {
		t.Fatal("meta not merged")
	}
}

func TestCostliest(t *testing.T) {
	root := New("job")
	root.Child("small").Add(Work{Conflicts: 1})
	root.Child("big").Add(Work{Propagations: 1000})
	name, units := root.Costliest()
	if name != "big" || units != 1000 {
		t.Fatalf("Costliest = %q/%d", name, units)
	}
	// Wall-time tiebreak when no solver work anywhere.
	tied := New("job")
	tied.Child("a").AddWall(time.Millisecond)
	tied.Child("b").AddWall(time.Second)
	if name, _ := tied.Costliest(); name != "b" {
		t.Fatalf("wall tiebreak picked %q", name)
	}
}

// TestJSONInvariant checks the acceptance-criteria shape: every node's
// work equals self_work plus the sum of its children's work, so the root
// carries the grand total.
func TestJSONInvariant(t *testing.T) {
	root := New("job")
	root.Add(Work{Decisions: 2})
	g := root.Child("goal")
	g.Add(Work{Propagations: 7})
	g.Child("solve").Add(Work{Decisions: 10, Propagations: 100, Conflicts: 5})
	g.Child("certify").Add(Work{ProofBytes: 64})

	data, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Name     string          `json:"name"`
		Work     Work            `json:"work"`
		SelfWork *Work           `json:"self_work"`
		Children json.RawMessage `json:"children"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Work != root.Total() {
		t.Fatalf("root work %+v != total %+v", wire.Work, root.Total())
	}
	var checkSum func(raw json.RawMessage) Work
	checkSum = func(raw json.RawMessage) Work {
		var nodes []struct {
			Name     string          `json:"name"`
			Work     Work            `json:"work"`
			SelfWork *Work           `json:"self_work"`
			Children json.RawMessage `json:"children"`
		}
		if len(raw) == 0 {
			return Work{}
		}
		if err := json.Unmarshal(raw, &nodes); err != nil {
			t.Fatal(err)
		}
		var sum Work
		for _, nd := range nodes {
			childSum := checkSum(nd.Children)
			self := Work{}
			if nd.SelfWork != nil {
				self = *nd.SelfWork
			} else if len(nd.Children) == 0 || string(nd.Children) == "null" {
				self = nd.Work
			}
			if got := childSum.Plus(self); got != nd.Work {
				t.Fatalf("node %s: children+self %+v != work %+v", nd.Name, got, nd.Work)
			}
			sum = sum.Plus(nd.Work)
		}
		return sum
	}
	selfRoot := Work{}
	if wire.SelfWork != nil {
		selfRoot = *wire.SelfWork
	}
	if got := checkSum(wire.Children).Plus(selfRoot); got != wire.Work {
		t.Fatalf("root children+self %+v != work %+v", got, wire.Work)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	root := New("job")
	root.Wall = 120 * time.Millisecond
	root.Add(Work{Decisions: 2})
	root.Child("solve").Add(Work{Conflicts: 5, Propagations: 50})
	root.SetMeta("winner", 1)

	data, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var back Node
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Total() != root.Total() {
		t.Fatalf("round trip total %+v != %+v", back.Total(), root.Total())
	}
	if back.Self != root.Self {
		t.Fatalf("round trip self %+v != %+v", back.Self, root.Self)
	}
	if back.Meta["winner"] != 1 {
		t.Fatal("meta lost in round trip")
	}
}

func TestChargeAccumulates(t *testing.T) {
	n := New("phase")
	var samples [len(snapSamples)]metrics.Sample
	snap := readSnap(&samples)
	// Allocate something visible and burn a little time.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 16<<10))
	}
	_ = sink
	time.Sleep(2 * time.Millisecond)
	next := readSnap(&samples)
	n.charge(snap, next)
	if n.Wall <= 0 {
		t.Fatal("charge recorded no wall time")
	}
	if n.Mem.AllocBytes <= 0 {
		t.Fatal("charge recorded no allocations")
	}
	if n.Mem.HeapPeakBytes == 0 {
		t.Fatal("charge recorded no heap watermark")
	}
	// Consecutive windows chain: a second charge from the end of the
	// first adds its own window only.
	wall1 := n.Wall
	n.charge(next, readSnap(&samples))
	if n.Wall < wall1 {
		t.Fatal("chained charge lost time")
	}
}

func TestWriteTree(t *testing.T) {
	root := New("job")
	g := root.Child("goal")
	g.Child("solve").Add(Work{Decisions: 1, Propagations: 2, Conflicts: 3})
	var buf bytes.Buffer
	root.WriteTree(&buf)
	out := buf.String()
	for _, want := range []string{"node", "units", "job", "  goal", "    solve"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
}

func TestFind(t *testing.T) {
	root := New("job")
	root.Child("goal").Child("solve").Add(Work{Conflicts: 1})
	if root.Find("goal", "solve") == nil {
		t.Fatal("Find missed existing path")
	}
	if root.Find("goal", "missing") != nil {
		t.Fatal("Find invented a node")
	}
}
