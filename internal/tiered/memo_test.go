package tiered_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/protograph"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

// memoCase is one network of the memo population and the goals asked of
// it.
type memoCase struct {
	name  string
	g     *protograph.Graph
	goals []tiered.Goal
}

// memoPopulation is the soundness corpus (its recorded checks) and the
// outcome-parity networks (the fixtures, every fuzz family, operational
// networks and a fabric), each asked the may-graph goal sweep and every
// whole-network check, unscoped and scoped to each of its subnets.
func memoPopulation(t *testing.T) []memoCase {
	t.Helper()
	var cases []memoCase
	add := func(name string, g *protograph.Graph, extra ...tiered.Goal) {
		subs := ownSubnets(g)
		goals := append(extra, mayGoals(g, subs)...)
		for _, check := range append(wholeNetworkChecks, "no-leak") {
			goals = append(goals, tiered.Goal{Check: check})
			for _, sub := range subs {
				goals = append(goals, tiered.Goal{Check: check, Subnet: sub, HasSubnet: true})
			}
		}
		cases = append(cases, memoCase{name, g, goals})
	}
	corpus, err := fuzz.LoadCorpus("../fuzz/testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range corpus {
		var recorded []tiered.Goal
		for _, ck := range cs.Checks {
			goal, err := ck.Goal()
			if err != nil {
				t.Fatal(err)
			}
			recorded = append(recorded, goal)
		}
		add("corpus-"+cs.Name, cs.Net.Graph, recorded...)
	}
	add("acl-chain", aclChain(t))
	add("static-scope", staticScope(t))
	add("static-hole", staticHole(t))
	for fam := 0; fam < fuzz.Families(); fam++ {
		s, _, err := fuzz.FromSeed([]byte{byte(fam), 14})
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("fuzz-%d-%s", fam, s.Name), s.Net.Graph)
	}
	for _, size := range []int{3, 9, 17, 25} {
		p := netgen.DefaultParams()
		p.MinRouters, p.MaxRouters = size, size
		p.PACLException, p.PDeepDrop = 1, 1
		n, err := netgen.Generate(fmt.Sprintf("netgen-size-%d", size), int64(300+size), p)
		if err != nil {
			t.Fatal(err)
		}
		net, err := pipeline.Build(n.Routers)
		if err != nil {
			t.Fatal(err)
		}
		add(n.Name, net.Graph)
	}
	ft, err := topogen.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := pipeline.Build(ft.Routers)
	if err != nil {
		t.Fatal(err)
	}
	add("pods-4", fab.Graph)
	return cases
}

// decideFresh answers each goal on an Analysis of its own: nothing
// memoised by one goal can reach another.
func decideFresh(c memoCase) []tiered.Outcome {
	out := make([]tiered.Outcome, len(c.goals))
	for i, goal := range c.goals {
		out[i] = tiered.NewAnalysis(c.g).Decide(goal)
	}
	return out
}

func sameOutcome(t *testing.T, label string, c memoCase, i int, got, want tiered.Outcome) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		g := c.goals[i]
		t.Errorf("%s %s: %s subnet=%v (scoped %v) src=%s: got %+v, want %+v",
			c.name, label, g.Check, g.Subnet, g.HasSubnet, g.Src, got, want)
	}
}

// TestPlaneMemoIsInvisible: an Analysis that has decided other goals
// first — all of them, or the same ones in reverse order — answers every
// goal exactly as a fresh Analysis does, field for field.
func TestPlaneMemoIsInvisible(t *testing.T) {
	total, decided := 0, 0
	for _, c := range memoPopulation(t) {
		want := decideFresh(c)
		warm := tiered.NewAnalysis(c.g)
		for _, goal := range c.goals {
			warm.Decide(goal)
		}
		for i, goal := range c.goals {
			sameOutcome(t, "warmed", c, i, warm.Decide(goal), want[i])
		}
		rev := tiered.NewAnalysis(c.g)
		for i := len(c.goals) - 1; i >= 0; i-- {
			sameOutcome(t, "reversed", c, i, rev.Decide(c.goals[i]), want[i])
		}
		for _, out := range want {
			total++
			if out.Decided {
				decided++
			}
		}
	}
	if decided == 0 || decided == total {
		t.Fatalf("%d of %d goals decided; want a mix of verdicts and residue", decided, total)
	}
	t.Logf("%d goals, %d decided", total, decided)
}

// TestDecideConcurrently: eight goroutines deciding every goal on one
// shared Analysis get what a fresh Analysis answers (run under -race).
func TestDecideConcurrently(t *testing.T) {
	for _, c := range memoPopulation(t) {
		want := decideFresh(c)
		a := tiered.NewAnalysis(c.g)
		got := make([][]tiered.Outcome, 8)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = make([]tiered.Outcome, len(c.goals))
				for k := range c.goals {
					i := (k + w*len(c.goals)/len(got)) % len(c.goals) // each worker starts elsewhere
					got[w][i] = a.Decide(c.goals[i])
				}
			}(w)
		}
		wg.Wait()
		for w := range got {
			for i := range c.goals {
				sameOutcome(t, fmt.Sprintf("worker %d", w), c, i, got[w][i], want[i])
			}
		}
	}
}

// TestFig8GoalsSimulateOnce: the seven subnet-scoped Figure 8 goals of a
// fat-tree all ask about one destination class, so all seven are decided
// from a single simulator run.
func TestFig8GoalsSimulateOnce(t *testing.T) {
	f, err := harness.BuildFabric(4)
	if err != nil {
		t.Fatal(err)
	}
	a := tiered.NewAnalysis(f.Net.Graph)
	n := 0
	for _, prop := range harness.AllFig8Props() {
		goal, ok := harness.Fig8ModularGoal(f, prop)
		if !ok {
			continue
		}
		n++
		if out := a.Decide(goal); !out.Decided || !out.Verified {
			t.Errorf("%s: decided=%v verified=%v reason=%s, want a verified graph-tier verdict",
				prop, out.Decided, out.Verified, out.Reason)
		}
	}
	if n != 7 {
		t.Fatalf("%d Figure 8 goals, want 7", n)
	}
	if sims := a.Simulations(); sims != 1 {
		t.Fatalf("%d simulator runs for the Figure 8 goals, want 1", sims)
	}
}
