package modular_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/modular"
	"repro/internal/pipeline"
	"repro/internal/protograph"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

func fabric(t *testing.T, k int) *pipeline.Network {
	t.Helper()
	ft, err := topogen.Generate(k)
	if err != nil {
		t.Fatal(err)
	}
	net, err := pipeline.Build(ft.Routers)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func fabricGraph(t *testing.T, k int) *protograph.Graph { return fabric(t, k).Graph }

func fabricGoals(k int) []tiered.Goal {
	ft, _ := topogen.Generate(k)
	sub := topogen.ToRSubnet(0, 0)
	far := topogen.ToRName(k-1, 0)
	return []tiered.Goal{
		{Check: "reachability", Src: far, Subnet: sub, HasSubnet: true},
		{Check: "reachability-all", Srcs: ft.AllToRs(), Subnet: sub, HasSubnet: true},
		{Check: "bounded-length", Src: far, Subnet: sub, HasSubnet: true, Hops: 4},
		{Check: "bounded-length-all", Srcs: ft.AllToRs(), Subnet: sub, HasSubnet: true, Hops: 4},
		{Check: "equal-lengths", Srcs: ft.ToRs[k-1], Subnet: sub, HasSubnet: true},
		{Check: "blackholes", Subnet: sub, HasSubnet: true},
		{Check: "multipath-consistency", Subnet: sub, HasSubnet: true},
	}
}

func TestPartitionFatTreeDeterministic(t *testing.T) {
	g := fabricGraph(t, 2)
	cut := modular.Partition(g)
	if got, want := len(cut.Components), topogen.NumRouters(2); got != want {
		t.Fatalf("components = %d, want %d (all-eBGP fabric is all singletons)", got, want)
	}
	for _, c := range cut.Components {
		if len(c.Routers) != 1 {
			t.Fatalf("component %d has %d routers, want 1", c.Index, len(c.Routers))
		}
	}
	if len(cut.Residue) != 0 {
		t.Fatalf("unexpected residue %v", cut.Residue)
	}
	// 8 fabric links (k=2: 2 pods × (tor-agg) + 2 agg-core... derive from
	// sessions): each internal eBGP link yields two directed sessions.
	if len(cut.Sessions)%2 != 0 || len(cut.Sessions) == 0 {
		t.Fatalf("sessions = %d, want a positive even count", len(cut.Sessions))
	}
	for i := 0; i < 5; i++ {
		again := modular.Partition(fabricGraph(t, 2))
		if again.Hash != cut.Hash {
			t.Fatalf("partition hash differs across runs: %s vs %s", again.Hash, cut.Hash)
		}
	}
}

func TestContractsFatTree(t *testing.T) {
	g := fabricGraph(t, 2)
	cut := modular.Partition(g)
	con := modular.DeriveContracts(g, cut, topogen.ToRSubnet(0, 0))
	if len(con.Residue) != 0 {
		t.Fatalf("contract residue %v", con.Residue)
	}
	if len(con.Originators) != 1 || con.Originators[0] != topogen.ToRName(0, 0) {
		t.Fatalf("originators = %v, want [tor-0-0]", con.Originators)
	}
	wantDist := map[string]int{
		topogen.ToRName(0, 0): 0,
		topogen.AggName(0, 0): 1,
		topogen.CoreName(0):   2,
		topogen.AggName(1, 0): 3,
		topogen.ToRName(1, 0): 4,
	}
	for r, want := range wantDist {
		if got, ok := con.Dist[r]; !ok || got != want {
			t.Fatalf("dist[%s] = %d (ok=%v), want %d", r, got, ok, want)
		}
	}
	for id, c := range con.BySession {
		if !c.Valid {
			t.Fatalf("contract %s invalid, want all valid on a connected fabric", id)
		}
		if want := con.Dist[c.Session.From] + 1; c.Metric != want {
			t.Fatalf("contract %s metric = %d, want %d", id, c.Metric, want)
		}
	}
}

// checkParity answers a goal through the pipeline with the modular step
// on (graph tier off) and holds the composed verdict to the monolithic
// step's alone.
func checkParity(t *testing.T, net *pipeline.Network, goal tiered.Goal, wantAlias bool) {
	t.Helper()
	opts := modularOpts()
	v, err := pipeline.Run(context.Background(), net, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != pipeline.ModeModular {
		t.Fatalf("mode = %s (residue %v), want modular", v.Mode, v.Residue)
	}
	opts.Modular = false
	mono, err := pipeline.Run(context.Background(), net, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Result.Verified != mono.Result.Verified {
		t.Fatalf("parity: modular verified=%v, monolithic verified=%v", v.Result.Verified, mono.Result.Verified)
	}
	if v.Result.Verified && len(v.Result.Blame) == 0 {
		t.Fatalf("composed verified verdict has empty blame")
	}
	if wantAlias && v.Modular.AliasHits == 0 {
		t.Fatalf("expected isomorphic-pod alias hits, got 0 (classes=%d, components=%d)",
			v.Modular.Classes, v.Modular.Components)
	}
}

func modularOpts() pipeline.Options {
	opts := pipeline.Options{Modular: true}
	opts.Core.Tiers = "none"
	opts.Core.Blame = true
	opts.Workers = 2
	return opts
}

func TestModularParityFatTree(t *testing.T) {
	// k=2 has no isomorphic pods (every router's contract metric is
	// distinct), so no alias hits are expected here; see the k=4 tests.
	net := fabric(t, 2)
	for _, goal := range fabricGoals(2) {
		goal := goal
		t.Run(goal.Check, func(t *testing.T) { checkParity(t, net, goal, false) })
	}
}

// TestModularParityFatTreeK4 cross-checks two goal shapes against the
// monolithic encoding at 20 routers (the largest fabric where the
// monolithic side is still quick); the fuzz ModularParity oracle and the
// CI sweep cover the remaining goals at this size.
func TestModularParityFatTreeK4(t *testing.T) {
	net := fabric(t, 4)
	for _, goal := range fabricGoals(4) {
		switch goal.Check {
		case "reachability-all", "equal-lengths":
		default:
			continue
		}
		goal := goal
		t.Run(goal.Check, func(t *testing.T) { checkParity(t, net, goal, true) })
	}
}

// TestModularAliasFatTree exercises the isomorphism aliasing without
// paying for monolithic reference checks: at k=4 the far pods must
// collapse into shared classes for every goal shape.
func TestModularAliasFatTree(t *testing.T) {
	net := fabric(t, 4)
	for _, goal := range fabricGoals(4) {
		goal := goal
		t.Run(goal.Check, func(t *testing.T) {
			v, err := pipeline.Run(context.Background(), net, goal, modularOpts())
			if err != nil {
				t.Fatal(err)
			}
			if v.Mode != pipeline.ModeModular {
				t.Fatalf("mode = %s (residue %v), want modular", v.Mode, v.Residue)
			}
			if !v.Result.Verified {
				t.Fatalf("fabric goal %s not verified", goal.Check)
			}
			if v.Modular.Classes >= v.Modular.Components {
				t.Fatalf("no class sharing: %d classes for %d components", v.Modular.Classes, v.Modular.Components)
			}
			if v.Modular.AliasHits != v.Modular.Components-v.Modular.Classes {
				t.Fatalf("alias hits = %d, want components-classes = %d",
					v.Modular.AliasHits, v.Modular.Components-v.Modular.Classes)
			}
		})
	}
}

// TestModularLedgersEqualStats holds a composed verdict to its one
// account. It began as the regression test for the modular double count
// (cost.Node.Merge used to graft its donor's children by pointer, so
// every component check but a class's first was added to the class tree
// twice and to the composed ledger twice more). On every modular goal at
// k=4 the verdict's ledger has one "class:N" child per solved class, each
// with the compile of its class, every clause-db byte lies in those
// subtrees, and the ledger's work is the composed solver stats to the
// unit.
func TestModularLedgersEqualStats(t *testing.T) {
	net := fabric(t, 4)
	for _, goal := range fabricGoals(4) {
		goal := goal
		t.Run(goal.Check, func(t *testing.T) {
			v, err := pipeline.Run(context.Background(), net, goal, modularOpts())
			if err != nil {
				t.Fatal(err)
			}
			if v.Mode != pipeline.ModeModular {
				t.Fatalf("mode = %s (residue %v), want modular", v.Mode, v.Residue)
			}
			ledger := v.Result.Cost
			var classes int
			var classBytes int64
			for _, c := range ledger.Children {
				if !strings.HasPrefix(c.Name, "class:") {
					continue
				}
				classes++
				classBytes += c.Total().ClauseDBBytes
				if c.Find("compile") == nil {
					t.Errorf("%s has no compile phase", c.Name)
				}
			}
			if classes != v.Modular.Classes {
				t.Fatalf("%d class subtrees in the verdict's ledger, %d classes solved", classes, v.Modular.Classes)
			}
			st, work := v.Result.Stats, ledger.Total()
			if want := st.Decisions + st.Propagations + st.Conflicts; work.Units() != want {
				t.Fatalf("units: stats %d, ledger %d", want, work.Units())
			}
			if work.ClauseDBBytes != classBytes || work.ClauseDBBytes <= 0 {
				t.Fatalf("clause-db bytes: ledger %d, class subtrees %d", work.ClauseDBBytes, classBytes)
			}
		})
	}
}
