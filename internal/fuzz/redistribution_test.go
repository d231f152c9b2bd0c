package fuzz

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/simulator"
	"repro/internal/tiered"
)

// TestSimulatorMatchesEncoderOnRedistribution pins the two netgen networks
// on which the simulator delivered a packet that no stable state of the
// encoding delivers. In both, border1 redistributes its connected external
// subnet into BGP and BGP into OSPF.
//
//   - 8931228383982218953: border1 carried the connected route on from BGP
//     into OSPF, so access1 learned it; the encoder's ghost-route rule
//     (DESIGN §7 item 4) forbids redistributing a record again at the
//     router that redistributed it.
//   - 3336639495163543454: border2 learns the BGP route over multihop iBGP
//     and redistributes it into OSPF, and forwarded it straight to
//     border1, a router it has no link to; a redistributed route forwards
//     as its source protocol's choice does (§7 item 12), here recursively
//     through the cores, which send it back to border2.
//
// Under the empty environment the solver verifies isolation, the
// simulator's walk must not deliver, and the graph tier must not falsify.
func TestSimulatorMatchesEncoderOnRedistribution(t *testing.T) {
	for _, c := range []struct {
		seed     int64
		src, dst string
	}{
		{8931228383982218953, "access1", "198.51.2.1"},
		{3336639495163543454, "access2", "198.51.9.1"},
	} {
		s, err := netgenScenario("netgen", func() int64 { return c.seed }, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		dst := network.MustParseIP(c.dst)
		goal := tiered.Goal{Check: "isolation", Src: c.src, Subnet: network.Prefix{Addr: dst, Len: 32}, HasSubnet: true}
		v, err := pipeline.Run(context.Background(), &pipeline.Network{Graph: s.Net.Graph}, goal, pinned(""))
		if err != nil {
			t.Fatal(err)
		}
		if !v.Result.Verified {
			t.Fatalf("%s: the solver no longer verifies isolation of %s from %v", s.Name, c.src, dst)
		}
		sim := simulator.New(s.Net.Graph)
		res, err := sim.Run(dst, simulator.NewEnvironment())
		if err != nil {
			t.Fatal(err)
		}
		if w := sim.Walk(res, c.src, config.Packet{DstIP: dst}); w.Outcomes[simulator.Delivered] {
			t.Errorf("%s: the simulator delivers %v from %s: %v", s.Name, dst, c.src, w.Outcomes)
		}
		if out := tiered.NewAnalysis(s.Net.Graph).Decide(goal); out.Decided && !out.Verified {
			t.Errorf("%s: the graph tier falsifies isolation of %s (%s)", s.Name, c.src, out.Reason)
		}
		m, err := s.Encode("")
		if err != nil {
			t.Fatal(err)
		}
		diffs, err := m.DiffAgainstSimulator(dst, simulator.NewEnvironment())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diffs {
			t.Errorf("%s: %s", s.Name, d)
		}
	}
	// The first network's border1 has no OSPF route to its own external
	// subnet: the one it could have is its BGP redistribution of it.
	s, err := netgenScenario("netgen", func() int64 { return 8931228383982218953 }, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.New(s.Net.Graph).Run(network.MustParseIP("198.51.2.1"), simulator.NewEnvironment())
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := res.States["border1"].PerProto[config.OSPF]; ok {
		t.Errorf("border1 redistributes its redistributed route into OSPF: %v", r)
	}
}
