package core_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/obs/cost"
	"repro/internal/pipeline"
	"repro/internal/protograph"
	"repro/internal/simulator"
	"repro/internal/testnets"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

// ask answers goal on m's fresh door.
func ask(t *testing.T, ctx context.Context, m *core.Model, goal tiered.Goal) (*core.Result, error) {
	t.Helper()
	p, assumptions, err := pipeline.Property(m, goal)
	if err != nil {
		t.Fatal(err)
	}
	return m.CheckGoal(ctx, nil, p, assumptions...)
}

// encode builds a certified model of g, with the witness probe withheld
// when withhold is set.
func encode(t *testing.T, g *protograph.Graph, withhold bool) *core.Model {
	t.Helper()
	m, err := core.Encode(g, core.Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if withhold {
		core.WithholdProbe(m)
	}
	return m
}

// pair answers goal on a fresh model of g with the probe and on another
// with the probe withheld.
func pair(t *testing.T, g *protograph.Graph, goal tiered.Goal) (with, without *core.Result) {
	t.Helper()
	var err error
	if with, err = ask(t, context.Background(), encode(t, g, false), goal); err != nil {
		t.Fatalf("%+v: %v", goal, err)
	}
	if without, err = ask(t, context.Background(), encode(t, g, true), goal); err != nil {
		t.Fatalf("%+v withheld: %v", goal, err)
	}
	if with.Verified != without.Verified {
		t.Fatalf("%+v: verified=%v with the probe (%s), %v without", goal, with.Verified, with.Probe, without.Verified)
	}
	if without.Probe != "" || without.Cost.Find("probe") != nil {
		t.Fatalf("%+v: a withheld probe ran (%q)", goal, without.Probe)
	}
	return with, without
}

// sameMainSearch fails unless with, a checked-with-probe result, searched
// exactly as without, its probe-withheld twin: the same formula, the same
// proof, and Stats apart by exactly the ledger's probe node.
func sameMainSearch(t *testing.T, what string, with, without *core.Result) {
	t.Helper()
	if with.Probe == core.ProbeAnswered {
		t.Fatalf("%s: the probe answered a verified query", what)
	}
	var probe cost.Work
	if n := with.Cost.Find("probe"); n != nil {
		probe = n.Total()
	}
	probe.ClauseDBBytes, probe.ProofBytes = 0, 0
	if diff := cost.FromStats(with.Stats).Minus(cost.FromStats(without.Stats)); diff != probe {
		t.Errorf("%s: Stats differ by %+v, the probe node holds %+v", what, diff, probe)
	}
	if with.SATVars != without.SATVars || with.SATClauses != without.SATClauses {
		t.Errorf("%s: formula %d/%d with the probe, %d/%d without", what, with.SATVars, with.SATClauses, without.SATVars, without.SATClauses)
	}
	if a, b := with.Cost.Total().ProofBytes, without.Cost.Total().ProofBytes; a != b {
		t.Errorf("%s: proof %d bytes with the probe, %d without", what, a, b)
	}
}

func fabric(t *testing.T, pods int, order *rand.Rand) (*topogen.FatTree, *testnets.Net) {
	t.Helper()
	ft, err := topogen.Generate(pods)
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, len(ft.Routers))
	for i, r := range ft.Routers {
		texts[i] = config.Print(r)
	}
	if order != nil {
		order.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	}
	return ft, testnets.MustBuild(texts...)
}

// monoGoals are the repo benchmark's three fabric queries: every other
// ToR reaches ToR 0-0's subnet (verified), the far pod's first ToR is
// isolated from it (falsified), the far pod's ToRs reach it over equal
// lengths (verified).
func monoGoals(ft *topogen.FatTree) []tiered.Goal {
	dst := topogen.ToRSubnet(0, 0)
	var others []string
	for _, tor := range ft.AllToRs() {
		if tor != topogen.ToRName(0, 0) {
			others = append(others, tor)
		}
	}
	far := ft.ToRs[ft.K-1]
	return []tiered.Goal{
		{Check: "reachability-all", Srcs: others, Subnet: dst, HasSubnet: true},
		{Check: "isolation", Src: far[0], Subnet: dst, HasSubnet: true},
		{Check: "equal-lengths", Srcs: far, Subnet: dst, HasSubnet: true},
	}
}

// TestProbeKeepsTheMainSearch holds every verified goal with a subnet on
// the pods-2 fabric and the testnets fixtures to the search it ran
// without the probe: the probe adds its own work and changes nothing of
// the check's.
func TestProbeKeepsTheMainSearch(t *testing.T) {
	ft, fab := fabric(t, 2, nil)
	nets := map[string]*testnets.Net{
		"fabric-2":        fab,
		"ospf-chain":      testnets.OSPFChain(3),
		"rip-chain":       testnets.RIPChain(3),
		"ebgp-triangle":   testnets.EBGPTriangle(),
		"acl-square":      testnets.ACLSquare(),
		"static-null":     testnets.StaticNull(),
		"hijack-open":     testnets.Hijackable(false),
		"hijack-filtered": testnets.Hijackable(true),
		"figure2":         testnets.Figure2(),
		"multihop-ibgp":   testnets.MultihopIBGP(),
	}
	verified := 0
	for name, net := range nets {
		var goals []tiered.Goal
		if name == "fabric-2" {
			goals = monoGoals(ft)
		}
		src := net.Topo.Nodes[0].Name
		seen := map[network.Prefix]bool{}
		for _, n := range net.Topo.Nodes {
			for _, ifc := range net.Routers[n.Name].Interfaces {
				if seen[ifc.Prefix] {
					continue
				}
				seen[ifc.Prefix] = true
				goals = append(goals,
					tiered.Goal{Check: "reachability", Src: src, Subnet: ifc.Prefix, HasSubnet: true},
					tiered.Goal{Check: "blackholes", Subnet: ifc.Prefix, HasSubnet: true},
					tiered.Goal{Check: "loops", Subnet: ifc.Prefix, HasSubnet: true})
			}
		}
		for _, goal := range goals {
			with, without := pair(t, net.Graph, goal)
			if without.Verified {
				verified++
				sameMainSearch(t, fmt.Sprintf("%s %s %v", name, goal.Check, goal.Subnet), with, without)
			}
		}
	}
	if verified == 0 {
		t.Fatal("no verified goal: nothing was compared")
	}
	t.Logf("%d verified goals searched as without the probe", verified)
}

// TestProbeAcrossLoadOrders is the pods-2 form of the load-order
// experiment (EXPERIMENTS.md): under five seeded permutations of the
// router files the isolation query is answered by the probe, and the
// verified queries search exactly as they would without it.
func TestProbeAcrossLoadOrders(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ft, net := fabric(t, 2, rand.New(rand.NewSource(seed)))
		for _, goal := range monoGoals(ft) {
			with, without := pair(t, net.Graph, goal)
			what := fmt.Sprintf("order %d %s", seed, goal.Check)
			if goal.Check == "isolation" {
				if with.Probe != core.ProbeAnswered || with.Stats.Conflicts >= 1000 {
					t.Errorf("%s: probe %q after %d conflicts", what, with.Probe, with.Stats.Conflicts)
				}
				continue
			}
			sameMainSearch(t, what, with, without)
		}
	}
}

// TestProbeAnswerReplays checks that a probe-answered counterexample is
// an ordinary one: the simulator replays it, and its packet lies in the
// goal's subnet.
func TestProbeAnswerReplays(t *testing.T) {
	ft, net := fabric(t, 2, nil)
	goal := monoGoals(ft)[1]
	m := encode(t, net.Graph, false)
	res, err := ask(t, context.Background(), m, goal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probe != core.ProbeAnswered || res.Verified || res.Counterexample == nil {
		t.Fatalf("probe %q, verified=%v", res.Probe, res.Verified)
	}
	if !goal.Subnet.Contains(res.Counterexample.Packet.DstIP) {
		t.Errorf("counterexample packet %v outside %v", res.Counterexample.Packet.DstIP, goal.Subnet)
	}
	diffs, err := m.ReplayAgrees(res.Counterexample)
	if err != nil || len(diffs) > 0 {
		t.Errorf("replay: %v %v", err, diffs)
	}
	if res.Cost.Find("blast") != nil || res.Cost.Find("solve") != nil {
		t.Error("a probe-answered check blasted or searched the check's own solver")
	}
}

// TestProbeNeverAnError: a simulator that fails or panics leaves the
// check as it would have run without the probe; only a canceled context
// ends it, with ctx's error.
func TestProbeNeverAnError(t *testing.T) {
	goal := tiered.Goal{Check: "reachability", Src: "R1", Subnet: network.MustParsePrefix("10.3.3.0/24"), HasSubnet: true}
	net := testnets.Figure2()
	_, want := pair(t, net.Graph, goal)
	for _, c := range []struct {
		name, outcome string
		sim           func(network.IP, *simulator.Environment) (*simulator.Result, error)
	}{
		{"simulator error", "skipped:simulator: ", func(dst network.IP, _ *simulator.Environment) (*simulator.Result, error) {
			return nil, fmt.Errorf("simulator: no convergence for dst %v after 64 rounds", dst)
		}},
		{"panic", "skipped:panic: ", func(network.IP, *simulator.Environment) (*simulator.Result, error) {
			panic("probe fault")
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := encode(t, net.Graph, false)
			core.ReplaceProbeSim(m, c.sim)
			res, err := ask(t, context.Background(), m, goal)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(res.Probe, c.outcome) || res.Verified != want.Verified {
				t.Errorf("probe %q, verified=%v; want %q..., %v", res.Probe, res.Verified, c.outcome, want.Verified)
			}
			sameMainSearch(t, c.name, res, want)
		})
	}
	t.Run("canceled", func(t *testing.T) {
		m := encode(t, net.Graph, false)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		core.ReplaceProbeSim(m, func(dst network.IP, env *simulator.Environment) (*simulator.Result, error) {
			cancel()
			return simulator.New(net.Graph).Run(dst, env)
		})
		if _, err := ask(t, ctx, m, goal); !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
	})
}

// TestProbeScope: a query over the whole destination space probes the
// destinations the configuration discards, so it runs no probe on a
// network that discards none; a whole-space pair query and a session
// check run no probe either, and their ledgers have no probe node.
func TestProbeScope(t *testing.T) {
	net := testnets.OSPFChain(3)
	m := encode(t, net.Graph, false)
	res, err := ask(t, context.Background(), m, tiered.Goal{Check: "blackholes"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probe != "" || res.Cost.Find("probe") != nil {
		t.Errorf("whole-space query on a network that discards nothing: probe %q", res.Probe)
	}
	// StaticNull's R1 null-routes 172.16.0.0/16: a whole-space question
	// whose goals survive their own solver probes that destination, and
	// only under the silent environment, since the network has no
	// external peer.
	null := testnets.StaticNull()
	tr := obs.New("query")
	m = encode(t, null.Graph, false)
	m.Opts.Span = tr.Root()
	if res, err = ask(t, context.Background(), m, tiered.Goal{Check: "multipath-consistency"}); err != nil {
		t.Fatal(err)
	}
	var tries string
	for _, c := range tr.Root().Children() {
		for _, ph := range c.Children() {
			if a, ok := ph.Attr("tries"); ok && ph.Name() == "probe" {
				tries = a.Str
			}
		}
	}
	if !res.Verified || res.Probe != core.ProbeRefuted || tries != "172.16.0.0 silent refuted" {
		t.Errorf("whole-space query on a network with a null route: verified=%v probe %q, tries %q", res.Verified, res.Probe, tries)
	}
	pair, prop, err := core.FaultInvariance(null.Graph, core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = pair.Check(context.Background(), prop); err != nil {
		t.Fatal(err)
	}
	if res.Probe != "" || res.Cost.Find("probe") != nil {
		t.Errorf("whole-space pair query: probe %q", res.Probe)
	}
	m = encode(t, net.Graph, false)
	p, assumptions, err := pipeline.Property(m, tiered.Goal{Check: "isolation", Src: "R1",
		Subnet: network.MustParsePrefix("10.100.3.0/24"), HasSubnet: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err = m.NewSession().CheckContext(context.Background(), p, assumptions...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified || res.Probe != "" || res.Cost.Find("probe") != nil {
		t.Errorf("session check: verified=%v probe %q", res.Verified, res.Probe)
	}
}

// probeParitySeeds is how many seeds of each fuzz family
// TestProbeParity draws.
const probeParitySeeds = 8

// TestProbeParity is the probe-parity oracle: on probeParitySeeds seeds
// of every fuzz family, each goal with a subnet and each whole-space goal
// (blackholes, loops, multipath-consistency) gets the same verdict from
// the fresh door with the probe as with it withheld, and every
// counterexample the probe answered replays in the simulator to the
// state it decodes. It logs how many goals the probe answered per
// family. TestProbeParityOnTheAudit holds the audit's blackhole checks
// to the same.
func TestProbeParity(t *testing.T) {
	for fam := 0; fam < fuzz.Families(); fam++ {
		fam := fam
		t.Run(fmt.Sprint("family-", fam), func(t *testing.T) {
			t.Parallel()
			answered, wholeSpace, asked := 0, 0, 0
			for seed := 0; seed < probeParitySeeds; seed++ {
				s, rng, err := fuzz.FromSeed(binary.BigEndian.AppendUint32([]byte{byte(fam)}, uint32(seed)))
				if err != nil {
					t.Fatal(err)
				}
				nodes := s.Net.Topo.Nodes
				src, via := nodes[rng.Intn(len(nodes))].Name, nodes[rng.Intn(len(nodes))].Name
				dst := s.Dsts[rng.Intn(len(s.Dsts))]
				maxFail := rng.Intn(2)
				with, without := encode(t, s.Net.Graph, false), encode(t, s.Net.Graph, true)
				var goals []tiered.Goal
				for _, sub := range []network.Prefix{{Addr: dst, Len: 32}, {Addr: dst.Mask(24), Len: 24}} {
					for _, goal := range []tiered.Goal{
						{Check: "reachability", Src: src, MaxFailures: maxFail},
						{Check: "isolation", Src: src, MaxFailures: maxFail},
						{Check: "waypoint", Src: src, Via: via, MaxFailures: maxFail},
						{Check: "bounded-length", Src: src, Hops: 1, MaxFailures: maxFail},
						{Check: "loops"}, {Check: "blackholes"}, {Check: "multipath-consistency"},
					} {
						goal.Subnet, goal.HasSubnet = sub, true
						goals = append(goals, goal)
					}
				}
				goals = append(goals, tiered.Goal{Check: "loops"}, tiered.Goal{Check: "blackholes"}, tiered.Goal{Check: "multipath-consistency"})
				for _, goal := range goals {
					a, err := ask(t, context.Background(), with, goal)
					if err != nil {
						t.Fatalf("%s %+v: %v", s.Name, goal, err)
					}
					b, err := ask(t, context.Background(), without, goal)
					if err != nil {
						t.Fatalf("%s %+v withheld: %v", s.Name, goal, err)
					}
					asked++
					if a.Verified != b.Verified {
						t.Fatalf("%s %+v: verified=%v with the probe (%s), %v without", s.Name, goal, a.Verified, a.Probe, b.Verified)
					}
					if a.Probe != core.ProbeAnswered {
						continue
					}
					answered++
					if !goal.HasSubnet {
						wholeSpace++
					}
					diffs, err := with.ReplayAgrees(a.Counterexample)
					if err != nil || len(diffs) > 0 {
						t.Fatalf("%s %+v: the probe's counterexample does not replay: %v %v", s.Name, goal, err, diffs)
					}
				}
			}
			t.Logf("%d of %d goals answered by the probe, %d of them over the whole destination space", answered, asked, wholeSpace)
		})
	}
}

// TestProbeParityOnTheAudit holds the §8.1 blackhole check of each of
// the 24 networks netgen.Audit(6..29) to the verdict it gets with the
// probe withheld. Each answer the probe gives must replay in the
// simulator, announcements included; the falsified checks are the
// deep-drop ones, answered under a peer announcing the ACL's
// destination, and every one of them must be answered.
func TestProbeParityOnTheAudit(t *testing.T) {
	answered, falsified := 0, 0
	for size := 6; size <= 29; size++ {
		m, with := auditBlackholes(t, size, core.DefaultOptions(), false)
		_, without := auditBlackholes(t, size, core.DefaultOptions(), true)
		if with.Verified != without.Verified {
			t.Fatalf("net%d: verified=%v with the probe (%s), %v without", size, with.Verified, with.Probe, without.Verified)
		}
		if with.Verified {
			if with.Probe == core.ProbeAnswered {
				t.Fatalf("net%d: the probe answered a verified check", size)
			}
			continue
		}
		falsified++
		if with.Probe != core.ProbeAnswered {
			t.Errorf("net%d: falsified, but the probe %q", size, with.Probe)
			continue
		}
		answered++
		if len(with.Counterexample.Env.Anns) == 0 {
			t.Errorf("net%d: the probe's counterexample has no announcement", size)
		}
		diffs, err := m.ReplayAgrees(with.Counterexample)
		if err != nil || len(diffs) > 0 {
			t.Fatalf("net%d: the probe's counterexample does not replay: %v %v", size, err, diffs)
		}
	}
	if falsified == 0 {
		t.Fatal("no falsified check: nothing was compared")
	}
	t.Logf("%d of %d falsified checks answered by the probe", answered, falsified)
}
