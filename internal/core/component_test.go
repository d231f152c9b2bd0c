package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs/cost"
	"repro/internal/testnets"
)

// TestComposeVerdictsOnlyReadsItsComponents runs three certified checks
// the way a modular class does — each ledger merged into a class tree as
// it finishes, all of them composed afterwards — and holds every
// component Result to what it was before: same ledger, same times, same
// certificate. The composed Stats and certificate are the components'
// sums, the class tree prices the same work, and the times FillTimes
// reads from a root holding that tree are the components' summed phases.
func TestComposeVerdictsOnlyReadsItsComponents(t *testing.T) {
	m, err := Encode(testnets.OSPFChain(3).Graph, certifyOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn := m.Compile()
	reach := m.Reach(m.Main, true)
	pin := m.Ctx.Eq(m.DstIP, m.Ctx.BV(uint64(testnets.StubIP(3)), WidthIP))
	class := cost.New("class:0")
	var rs []*Result
	var want cost.Work
	var lemmas int
	var solve time.Duration
	type books struct {
		work    cost.Work
		elapsed int64
		cert    Certificate
	}
	var before []books
	for _, r := range []string{"R1", "R2", "R3"} {
		res, err := m.CheckGoal(context.Background(), cn, reach[r], m.NoFailures(), pin)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified || res.Certificate == nil {
			t.Fatalf("%s: want a certified verified check, got %+v", r, res)
		}
		class.Merge(res.Cost)
		rs = append(rs, res)
		before = append(before, books{res.Cost.Total(), int64(res.Elapsed), *res.Certificate})
		want = want.Plus(res.Cost.Total())
		lemmas += res.Certificate.Lemmas
		solve += res.SolveElapsed
	}
	out := ComposeVerdicts(rs)
	out.Cost = cost.New("goal")
	out.Cost.AddChild(class)
	out.FillTimes()
	for i, r := range rs {
		if got := (books{r.Cost.Total(), int64(r.Elapsed), *r.Certificate}); got != before[i] {
			t.Errorf("component %d changed under composition: %+v, was %+v", i, got, before[i])
		}
	}
	if !out.Verified || class.Total() != want || out.Cost.Total() != want {
		t.Fatalf("verified %v, class tree %+v, components sum to %+v", out.Verified, class.Total(), want)
	}
	if got := cost.FromStats(out.Stats); got.Units() != want.Units() || got.Learned != want.Learned {
		t.Fatalf("composed stats %+v, ledgers %+v", got, want)
	}
	if c := out.Certificate; c == nil || !c.Checked || c.Lemmas != lemmas || c == rs[0].Certificate {
		t.Fatalf("composed certificate %+v, want a new one with the components' %d lemmas", c, lemmas)
	}
	if out.SolveElapsed != solve || out.SolveElapsed != class.Find("solve").Wall {
		t.Fatalf("composed solve time %v, components %v, class tree %v", out.SolveElapsed, solve, class.Find("solve").Wall)
	}
}
