package core

import (
	"testing"

	"repro/internal/network"
	"repro/internal/simulator"
	"repro/internal/smt"
	"repro/internal/smt/passes"
	"repro/internal/testnets"
)

// TestProbePinsOutsideTheConeSkipped: pins on variables the system does
// not mention are dropped, and the ones on its variables kept.
func TestProbePinsOutsideTheConeSkipped(t *testing.T) {
	net := testnets.OSPFChain(3)
	m, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dst := testnets.StubIP(3)
	env := simulator.NewEnvironment()
	st, err := simulator.New(net.Graph).Run(dst, env)
	if err != nil {
		t.Fatal(err)
	}
	pins := append(m.PinEnvironment(dst, env), m.routePins(st)...)
	c := m.Ctx
	scope := c.InRange(m.DstIP, uint64(dst), uint64(dst))
	// A system that reads the destination alone keeps the packet's pin.
	kept := inCone(coneOf(&passes.System{Ctx: c, Goals: []*smt.Term{scope}}), pins)
	if len(kept) != 1 || kept[0] != c.Eq(m.DstIP, c.BV(uint64(dst), WidthIP)) {
		t.Fatalf("kept %v of %d pins, want the destination's alone", kept, len(pins))
	}
	// The whole network keeps every pin but the source, the ports and the
	// protocol: the chain has no ACL to read them.
	if all := inCone(coneOf(&passes.System{Ctx: c, Asserts: m.Asserts, Goals: []*smt.Term{scope}}), pins); len(all) != len(pins)-4 {
		t.Fatalf("kept %d of %d pins over the whole system", len(all), len(pins))
	}
	if got, ok := m.probeDst([]*smt.Term{scope}); !ok || got != dst {
		t.Fatalf("probe destination %v %v, want %v", got, ok, dst)
	}
	sub := network.MustParsePrefix("10.100.3.0/24")
	if got, ok := m.probeDst([]*smt.Term{c.InRange(m.DstIP, uint64(sub.First()), uint64(sub.Last()))}); !ok || got != sub.First() {
		t.Fatalf("probe destination %v %v, want %v", got, ok, sub.First())
	}
}
