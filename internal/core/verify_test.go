package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/simulator"
	"repro/internal/smt"
	"repro/internal/testnets"
)

// witness searches for a stable state satisfying cond rather than
// verifying its absence: the check of ¬cond is falsified by it.
func witness(m *Model, cond *smt.Term) (*Counterexample, error) {
	res, err := m.CheckGoal(context.Background(), nil, m.Ctx.Not(cond))
	if err != nil {
		return nil, err
	}
	return res.Counterexample, nil
}

func TestCheckSatFindsWitness(t *testing.T) {
	net := testnets.Hijackable(false)
	m, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Witness: some stable state where R2 exits via N.
	cond := m.Main.CtrlFwd["R2"][Hop{Ext: "N"}]
	cex, err := witness(m, cond)
	if err != nil {
		t.Fatal(err)
	}
	if cex == nil {
		t.Fatal("no witness found")
	}
	if cex.Env.Anns["N"] == nil {
		t.Fatalf("witness needs an announcement: %v", cex.Env)
	}
}

func TestReplayAgreement(t *testing.T) {
	net := testnets.Hijackable(false)
	m, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cond := m.Ctx.And(
		m.Main.CtrlFwd["R2"][Hop{Ext: "N"}],
		m.NoFailures(),
		m.Ctx.Eq(m.DstIP, m.Ctx.BV(uint64(ip("192.168.50.1")), WidthIP)),
	)
	cex, err := witness(m, cond)
	if err != nil || cex == nil {
		t.Fatalf("witness: %v %v", cex, err)
	}
	diffs, err := m.ReplayAgrees(cex)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("replay disagrees: %v", diffs)
	}
	simres, err := m.Replay(cex)
	if err != nil {
		t.Fatal(err)
	}
	if !simres.States["R2"].Best.Valid {
		t.Fatal("replayed state lost the route")
	}
}

func TestCounterexampleString(t *testing.T) {
	net := testnets.Hijackable(false)
	m, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cex, err := witness(m, m.Main.Env["N"].Valid)
	if err != nil || cex == nil {
		t.Fatalf("%v %v", cex, err)
	}
	s := cex.String()
	if !strings.Contains(s, "packet:") || !strings.Contains(s, "environment:") {
		t.Fatalf("render: %q", s)
	}
	_ = simulator.NewEnvironment()
}

// TestParallelUnknownMode pins the Options.Parallel tombstone: the two
// spellings of the sequential search still check, and every mode of the
// removed parallel engine is an error naming the removal — on both
// execution paths, never a silent sequential run.
func TestParallelUnknownMode(t *testing.T) {
	net := testnets.OSPFChain(2)
	for _, mode := range []string{"", "off", "portfolio", "cubes", "auto", "sideways"} {
		o := DefaultOptions()
		o.Parallel = mode
		m, err := Encode(net.Graph, o)
		if err != nil {
			t.Fatal(err)
		}
		_, fresh := m.CheckGoal(context.Background(), nil, m.Ctx.True())
		_, session := m.NewSession().CheckContext(context.Background(), m.Ctx.True())
		for path, err := range map[string]error{"CheckGoal": fresh, "Session.CheckContext": session} {
			switch accepted := mode == "" || mode == "off"; {
			case accepted && err != nil:
				t.Errorf("%s with Parallel=%q: %v", path, mode, err)
			case !accepted && (err == nil || !strings.Contains(err.Error(), "removed")):
				t.Errorf("%s with Parallel=%q: err = %v, want one naming the removal", path, mode, err)
			}
		}
	}
}
