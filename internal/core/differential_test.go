package core

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/simulator"
	"repro/internal/smt"
	"repro/internal/testnets"
)

// solveConcrete pins the environment and extracts the unique stable
// state (test wrapper over Model.SolveConcrete).
func solveConcrete(t *testing.T, m *Model, dst network.IP, env *simulator.Environment) smt.Assignment {
	t.Helper()
	asg, err := m.SolveConcrete(dst, env)
	if err != nil {
		t.Fatal(err)
	}
	return asg
}

// compareStates checks the decoded symbolic stable state against the
// simulator's (test wrapper over Model.DiffSimulator).
func compareStates(t *testing.T, m *Model, asg smt.Assignment, simres *simulator.Result, dst network.IP, env *simulator.Environment) {
	t.Helper()
	for _, d := range m.DiffSimulator(asg, simres, dst, env) {
		t.Error(d)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// runDifferential compares encoder and simulator over a set of
// destinations and environments.
func runDifferential(t *testing.T, net *testnets.Net, opts Options, dsts []network.IP, envs []*simulator.Environment) {
	t.Helper()
	m, err := Encode(net.Graph, opts)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for _, dst := range dsts {
		for _, env := range envs {
			diffs, err := m.DiffAgainstSimulator(dst, env)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diffs {
				t.Error(d)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

func ip(s string) network.IP         { return network.MustParseIP(s) }
func pfx(s string) network.Prefix    { return network.MustParsePrefix(s) }
func newEnv() *simulator.Environment { return simulator.NewEnvironment() }
func allOpts() map[string]Options {
	return map[string]Options{
		"optimized": DefaultOptions(),
		"nohoist":   {Passes: "slice,propagate,coi"},
		"noslice":   {Passes: "hoist,propagate,coi"},
		"naive":     {Passes: "propagate,coi"},
	}
}

func TestDifferentialOSPFChain(t *testing.T) {
	net := testnets.OSPFChain(4)
	dsts := []network.IP{testnets.StubIP(4), testnets.StubIP(1), ip("9.9.9.9")}
	envs := []*simulator.Environment{
		newEnv(),
		newEnv().Fail("R2", "R3"),
		newEnv().Fail("R1", "R2").Fail("R3", "R4"),
	}
	for name, opts := range allOpts() {
		t.Run(name, func(t *testing.T) {
			runDifferential(t, net, opts, dsts, envs)
		})
	}
}

func TestDifferentialRIPChain(t *testing.T) {
	net := testnets.RIPChain(4)
	dsts := []network.IP{testnets.StubIP(4), testnets.StubIP(2)}
	envs := []*simulator.Environment{newEnv(), newEnv().Fail("R1", "R2")}
	runDifferential(t, net, DefaultOptions(), dsts, envs)
}

func TestDifferentialEBGPTriangle(t *testing.T) {
	net := testnets.EBGPTriangle()
	dsts := []network.IP{testnets.StubIP(1), testnets.StubIP(2), testnets.StubIP(3)}
	envs := []*simulator.Environment{
		newEnv(),
		newEnv().Fail("R1", "R3"),
		newEnv().Fail("R1", "R2").Fail("R2", "R3"),
	}
	for name, opts := range allOpts() {
		t.Run(name, func(t *testing.T) {
			runDifferential(t, net, opts, dsts, envs)
		})
	}
}

func TestDifferentialFigure2(t *testing.T) {
	net := testnets.Figure2()
	ext := pfx("8.8.8.0/24")
	dsts := []network.IP{ip("8.8.8.8"), ip("10.3.3.1"), ip("10.1.1.1")}
	envs := []*simulator.Environment{
		newEnv(),
		newEnv().Announce("N1", simulator.Announcement{Prefix: ext, PathLen: 3}).
			Announce("N2", simulator.Announcement{Prefix: ext, PathLen: 3}).
			Announce("N3", simulator.Announcement{Prefix: ext, PathLen: 3}),
		newEnv().Announce("N2", simulator.Announcement{Prefix: ext, PathLen: 2}).
			Announce("N3", simulator.Announcement{Prefix: ext, PathLen: 1}),
		newEnv().Announce("N1", simulator.Announcement{Prefix: ext, PathLen: 3}).Fail("R1", "R2"),
	}
	runDifferential(t, net, DefaultOptions(), dsts, envs)
}

// TestFigure2RedistributionDispute covers a genuinely multi-stable
// configuration: with only N3 announcing a default route at local-pref
// 100, Figure 2's mutual BGP↔OSPF redistribution admits two stable states
// at R1 (the iBGP-supported OSPF state, or the OSPF-import-supported BGP
// state). The encoder's semantics is "any stable state" (§3), so the test
// accepts either, but requires the returned state to be one of the two and
// well-founded (no circular support).
func TestFigure2RedistributionDispute(t *testing.T) {
	net := testnets.Figure2()
	m, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	env := newEnv().Announce("N3", simulator.Announcement{Prefix: pfx("0.0.0.0/0"), PathLen: 5})
	asg := solveConcrete(t, m, ip("8.8.8.8"), env)
	best := DecodeRecord(m.Main.Best["R1"], asg)
	stateA := best.Valid && best.AD == 110 && best.Metric == 20 // OSPF, redistributed at R1
	stateB := best.Valid && best.AD == 20 && best.Metric == 0   // BGP, redistributed from the OSPF import
	if !stateA && !stateB {
		t.Fatalf("R1 in neither legitimate stable state: %+v", best)
	}
	// In either state the traffic must head toward R2 and exit via N3.
	if !smt.Eval(m.Main.CtrlFwd["R1"][Hop{Node: "R2"}], asg).Bool {
		t.Fatalf("R1 should forward to R2 (state %+v)", best)
	}
	if !smt.Eval(m.Main.CtrlFwd["R2"][Hop{Ext: "N3"}], asg).Bool {
		t.Fatal("R2 should exit via N3")
	}
}

func TestDifferentialFigure2Unoptimized(t *testing.T) {
	if testing.Short() {
		t.Skip("unoptimized encodings are slow")
	}
	net := testnets.Figure2()
	ext := pfx("8.8.8.0/24")
	dsts := []network.IP{ip("8.8.8.8")}
	envs := []*simulator.Environment{
		newEnv().Announce("N1", simulator.Announcement{Prefix: ext, PathLen: 3}).
			Announce("N3", simulator.Announcement{Prefix: ext, PathLen: 1}),
	}
	for name, opts := range allOpts() {
		t.Run(name, func(t *testing.T) {
			runDifferential(t, net, opts, dsts, envs)
		})
	}
}

func TestDifferentialACLSquare(t *testing.T) {
	net := testnets.ACLSquare()
	dsts := []network.IP{ip("10.50.0.1"), ip("10.0.25.2")}
	envs := []*simulator.Environment{newEnv(), newEnv().Fail("R1", "R2")}
	runDifferential(t, net, DefaultOptions(), dsts, envs)
}

func TestDifferentialStaticNull(t *testing.T) {
	net := testnets.StaticNull()
	dsts := []network.IP{ip("10.100.2.1"), ip("172.16.9.9"), ip("1.1.1.1")}
	envs := []*simulator.Environment{newEnv(), newEnv().Fail("R1", "R2")}
	runDifferential(t, net, DefaultOptions(), dsts, envs)
}

func TestDifferentialHijack(t *testing.T) {
	mgmt := ip("192.168.50.1")
	hijack := simulator.Announcement{Prefix: pfx("192.168.50.1/32"), PathLen: 1}
	for _, filtered := range []bool{false, true} {
		net := testnets.Hijackable(filtered)
		envs := []*simulator.Environment{
			newEnv(),
			newEnv().Announce("N", hijack),
			newEnv().Announce("N", simulator.Announcement{Prefix: pfx("192.168.0.0/16"), PathLen: 2}),
		}
		runDifferential(t, net, DefaultOptions(), []network.IP{mgmt}, envs)
	}
}

// TestDataFwdRespectsACL pins the ACLSquare network and checks the
// control/data plane divergence appears in the model exactly where the
// ACL sits.
func TestDataFwdRespectsACL(t *testing.T) {
	net := testnets.ACLSquare()
	m, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	asg := solveConcrete(t, m, ip("10.50.0.1"), newEnv())
	ctrl := m.Main.CtrlFwd["R3"][Hop{Node: "R5"}]
	data := m.Main.DataFwd["R3"][Hop{Node: "R5"}]
	if !smt.Eval(ctrl, asg).Bool {
		t.Fatal("R3 should forward to R5 in the control plane")
	}
	if smt.Eval(data, asg).Bool {
		t.Fatal("ACL should block R3->R5 in the data plane")
	}
	// The R2 path is clean.
	if !smt.Eval(m.Main.DataFwd["R2"][Hop{Node: "R5"}], asg).Bool {
		t.Fatal("R2->R5 should pass")
	}
}

// TestComparatorAgainstSimulator cross-checks the symbolic preference
// circuits against the simulator's concrete comparators on enumerated
// records.
func TestComparatorAgainstSimulator(t *testing.T) {
	c := smt.NewContext()
	mk := func(tag string) (*Record, func(r simulator.Record) smt.Assignment) {
		rec := &Record{
			Valid:      c.True(),
			PrefixLen:  c.BVVar(tag+".plen", WidthPrefixLen),
			AD:         c.BVVar(tag+".ad", WidthAD),
			LocalPref:  c.BVVar(tag+".lp", WidthLP),
			Metric:     c.BVVar(tag+".metric", WidthMetric),
			MED:        c.BVVar(tag+".med", WidthMED),
			NbrASN:     c.BVVar(tag+".asn", WidthASN),
			RID:        c.BVVar(tag+".rid", WidthRID),
			Internal:   c.BoolVar(tag + ".int"),
			FromClient: c.False(),
			Comms:      map[string]*smt.Term{},
		}
		asgOf := func(r simulator.Record) smt.Assignment {
			return smt.Assignment{
				tag + ".plen":   {BV: uint64(r.PrefixLen)},
				tag + ".ad":     {BV: uint64(r.AD)},
				tag + ".lp":     {BV: uint64(r.LocalPref)},
				tag + ".metric": {BV: uint64(r.Metric)},
				tag + ".med":    {BV: uint64(r.MED)},
				tag + ".asn":    {BV: uint64(r.NbrASN)},
				tag + ".rid":    {BV: uint64(r.RID)},
				tag + ".int":    {Bool: r.Internal},
			}
		}
		return rec, asgOf
	}
	ra, asgA := mk("a")
	rb, asgB := mk("b")
	intraT := betterIntra(c, ra, rb, cmpMode{})
	overallT := betterOverall(c, ra, rb, cmpMode{})
	eqT := equallyGood(c, ra, rb, cmpMode{})

	recs := []simulator.Record{}
	for _, plen := range []int{16, 24} {
		for _, ad := range []int{20, 110, 200} {
			for _, lp := range []int{100, 120} {
				for _, metric := range []int{1, 3} {
					for _, internal := range []bool{false, true} {
						for _, rid := range []uint32{1, 9} {
							recs = append(recs, simulator.Record{
								Valid: true, PrefixLen: plen, AD: ad, LocalPref: lp,
								Metric: metric, Internal: internal, RID: rid,
								MED: int(rid) % 2, NbrASN: uint32(1 + int(rid)%2),
							})
						}
					}
				}
			}
		}
	}
	for _, a := range recs {
		for _, b := range recs {
			asg := smt.Assignment{}
			for k, v := range asgA(a) {
				asg[k] = v
			}
			for k, v := range asgB(b) {
				asg[k] = v
			}
			if got, want := smt.Eval(intraT, asg).Bool, simulator.BetterIntra(a, b, simulator.CompareMode{}); got != want {
				t.Fatalf("betterIntra(%v, %v) = %v, want %v", a, b, got, want)
			}
			if got, want := smt.Eval(overallT, asg).Bool, simulator.Better(a, b, simulator.CompareMode{}); got != want {
				t.Fatalf("betterOverall(%v, %v) = %v, want %v", a, b, got, want)
			}
			if got, want := smt.Eval(eqT, asg).Bool, simulator.EquallyGood(a, b, simulator.CompareMode{}); got != want {
				t.Fatalf("equallyGood(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestPassesNoneMatchesAll is the pass-pipeline soundness check of the
// compile-once refactor: for every testnet, a suite of properties must
// get the same verdict with every optimization pass disabled and with
// the full pipeline enabled.
func TestPassesNoneMatchesAll(t *testing.T) {
	nets := map[string]*testnets.Net{
		"ospf-chain":  testnets.OSPFChain(4),
		"rip-chain":   testnets.RIPChain(4),
		"ebgp-tri":    testnets.EBGPTriangle(),
		"figure2":     testnets.Figure2(),
		"acl-square":  testnets.ACLSquare(),
		"static-null": testnets.StaticNull(),
		"hijackable":  testnets.Hijackable(false),
	}
	type propCase struct {
		name  string
		build func(m *Model) (*smt.Term, []*smt.Term)
	}
	dst := testnets.StubIP(1)
	pin := func(m *Model) *smt.Term {
		return m.Ctx.Eq(m.DstIP, m.Ctx.BV(uint64(dst), WidthIP))
	}
	cases := []propCase{
		{"reach-first", func(m *Model) (*smt.Term, []*smt.Term) {
			r := m.G.Topo.Nodes[0].Name
			return m.Reach(m.Main, true)[r], []*smt.Term{m.NoFailures(), pin(m)}
		}},
		{"reach-last", func(m *Model) (*smt.Term, []*smt.Term) {
			r := m.G.Topo.Nodes[len(m.G.Topo.Nodes)-1].Name
			return m.Reach(m.Main, true)[r], []*smt.Term{m.NoFailures(), pin(m)}
		}},
		{"reach-last-1fail", func(m *Model) (*smt.Term, []*smt.Term) {
			r := m.G.Topo.Nodes[len(m.G.Topo.Nodes)-1].Name
			return m.Reach(m.Main, true)[r], []*smt.Term{m.AtMostFailures(1), pin(m)}
		}},
		{"bounded-length", func(m *Model) (*smt.Term, []*smt.Term) {
			// Exercises an asserts-appending builder after Compile.
			r := m.G.Topo.Nodes[0].Name
			lens, w := m.PathLengths(m.Main)
			return m.Ctx.Ule(lens[r], m.Ctx.BV(uint64(len(m.G.Topo.Nodes)), w)),
				[]*smt.Term{m.NoFailures(), pin(m)}
		}},
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			for _, pc := range cases {
				verdicts := map[string]bool{}
				for _, passes := range []string{"none", "all"} {
					m, err := Encode(net.Graph, Options{Passes: passes})
					if err != nil {
						t.Fatalf("%s/%s: encode: %v", pc.name, passes, err)
					}
					p, assumptions := pc.build(m)
					res, err := m.CheckGoal(context.Background(), nil, p, assumptions...)
					if err != nil {
						t.Fatalf("%s/%s: check: %v", pc.name, passes, err)
					}
					verdicts[passes] = res.Verified
				}
				if verdicts["none"] != verdicts["all"] {
					t.Errorf("%s: verdict differs: none=%v all=%v",
						pc.name, verdicts["none"], verdicts["all"])
				}
			}
		})
	}
}

func TestEncodeStats(t *testing.T) {
	net := testnets.Figure2()
	opt, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Encode(net.Graph, Options{Passes: "propagate,coi"})
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumRecordVars >= naive.NumRecordVars {
		t.Fatalf("slicing should reduce record variables: %d vs %d", opt.NumRecordVars, naive.NumRecordVars)
	}
	if len(opt.Asserts) == 0 {
		t.Fatal("no constraints generated")
	}
	_ = config.Protocol(0)
}
