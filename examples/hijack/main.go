// Hijack: the §8.1 management-interface vulnerability, end to end.
//
// A router's management loopback is distributed internally via OSPF
// (administrative distance 110). An unfiltered eBGP session lets an
// external neighbor announce the same /32 — and eBGP's administrative
// distance of 20 diverts management traffic out of the network. The
// verifier finds the attack as a counterexample to the
// management-reachability property; we then replay the decoded environment
// in the concrete simulator to watch the packet leave, and finally verify
// the fixed configuration (an inbound prefix-list) is immune.
//
// Run with: go run ./examples/hijack
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/properties"
	"repro/internal/simulator"
	"repro/internal/testnets"
)

func main() {
	ctx := context.Background()
	fmt.Println("== vulnerable configuration (no inbound filter) ==")
	vulnerable := testnets.Hijackable(false)
	m, err := core.Encode(vulnerable.Graph, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.CheckGoal(ctx, nil, properties.ManagementReachable(m), m.NoFailures())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(properties.Describe("management reachability", res))
	if res.Verified {
		log.Fatal("expected a violation")
	}

	// Replay the counterexample concretely.
	cex := res.Counterexample
	fmt.Println("\nreplaying the counterexample in the simulator:")
	sim := simulator.New(vulnerable.Graph)
	simres, err := sim.Run(cex.Packet.DstIP, cex.Env)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range []string{"R1", "R2"} {
		fmt.Println("  " + simulator.FIBEntry(simres, r))
	}
	w := sim.Walk(simres, "R2", cex.Packet)
	fmt.Printf("  packet from R2 to %v: %v (exits via %v)\n",
		cex.Packet.DstIP, w, w.ExitedVia)

	fmt.Println("\n== fixed configuration (prefix-list blocks management space) ==")
	fixed := testnets.Hijackable(true)
	m2, err := core.Encode(fixed.Graph, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	res2, err := m2.CheckGoal(ctx, nil, properties.ManagementReachable(m2), m2.NoFailures())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(properties.Describe("management reachability", res2))
}
