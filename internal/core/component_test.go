package core

import (
	"context"
	"testing"

	"repro/internal/obs/cost"
	"repro/internal/testnets"
)

// TestComposeVerdictsOnlyReadsItsComponents runs three checks the way a
// modular class does — each ledger merged into a class tree as it
// finishes, all of them composed afterwards — and holds every component
// Result to what it was before: same ledger, same times. The composed
// ledger and the class tree then price the same work, the components'
// sum, and the composed times are the ledger's.
func TestComposeVerdictsOnlyReadsItsComponents(t *testing.T) {
	m, err := Encode(testnets.OSPFChain(3).Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn := m.Compile()
	reach := m.Reach(m.Main, true)
	class := cost.New("class:0")
	var vs []*ComponentVerdict
	var want cost.Work
	type books struct {
		work    cost.Work
		elapsed int64
	}
	var before []books
	for _, r := range []string{"R1", "R2", "R3"} {
		res, err := m.CheckGoal(context.Background(), cn, reach[r], m.NoFailures())
		if err != nil {
			t.Fatal(err)
		}
		class.Merge(res.Cost)
		vs = append(vs, &ComponentVerdict{Check: r, Res: res})
		before = append(before, books{res.Cost.Total(), int64(res.Elapsed)})
		want = want.Plus(res.Cost.Total())
	}
	out := ComposeVerdicts(vs)
	for i, v := range vs {
		if got := (books{v.Res.Cost.Total(), int64(v.Res.Elapsed)}); got != before[i] {
			t.Errorf("component %s changed under composition: %+v, was %+v", v.Check, got, before[i])
		}
	}
	if out.Cost.Total() != want || class.Total() != want {
		t.Fatalf("composed %+v, class tree %+v, components sum to %+v", out.Cost.Total(), class.Total(), want)
	}
	if got := cost.FromStats(out.Stats); got.Units() != want.Units() || got.Learned != want.Learned {
		t.Fatalf("composed stats %+v, ledgers %+v", got, want)
	}
	if out.SolveElapsed != out.Cost.Find("solve").Wall || out.SolveElapsed <= vs[0].Res.SolveElapsed {
		t.Fatalf("composed solve time %v, ledger %v", out.SolveElapsed, out.Cost.Find("solve").Wall)
	}
}
