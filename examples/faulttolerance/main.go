// Faulttolerance: reason about link failures symbolically (§5).
//
// Link failures are part of the network model, so a single query proves a
// property for EVERY failure combination up to a bound — no iteration over
// failure cases. We check an eBGP triangle (survives any single failure),
// find the two-failure cut that breaks it, and run the §5 fault-invariance
// check that compares a failure-free copy of the network against a copy
// with at most one failure.
//
// Run with: go run ./examples/faulttolerance
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/properties"
	"repro/internal/testnets"
)

func main() {
	net := testnets.EBGPTriangle()
	fmt.Println("network: three ASes in a triangle, each originating a /24")

	m, err := core.Encode(net.Graph, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	stub := network.MustParsePrefix("10.100.3.0/24")
	p := properties.Reachable(m, "R1", stub)

	for k := 0; k <= 2; k++ {
		res, err := m.Check(p, m.AtMostFailures(k))
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("R1 reaches R3's subnet with ≤%d failures", k)
		fmt.Println(properties.Describe(name, res))
		if res.Counterexample != nil {
			fmt.Printf("  cut: %v\n", res.Counterexample.Env)
		}
	}

	fmt.Println("\nfault-invariance (§5): reachability unchanged under any single failure?")
	pair, prop, err := core.FaultInvariance(net.Graph, core.DefaultOptions(), 1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := pair.Check(context.Background(), prop)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(properties.Describe("triangle fault-invariance", res))

	chain := testnets.OSPFChain(3)
	pair2, prop2, err := core.FaultInvariance(chain.Graph, core.DefaultOptions(), 1)
	if err != nil {
		log.Fatal(err)
	}
	res2, err := pair2.Check(context.Background(), prop2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(properties.Describe("3-router chain fault-invariance", res2))
	if res2.Counterexample != nil {
		fmt.Printf("  failure that changes reachability: %v\n", res2.Counterexample.Env)
	}
}
