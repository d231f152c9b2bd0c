// Quickstart: verify properties of the paper's running example (Figure 2).
//
// Three internal routers run OSPF; R1 and R2 speak eBGP to external
// neighbors N1–N3 and iBGP to each other, with BGP↔OSPF redistribution.
// We parse the configurations, build the symbolic model, and ask questions
// that hold for ALL packets and ALL environments.
//
// Run with: go run ./examples/quickstart
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
	ctx := context.Background()
	// The Figure 2 network ships as a fixture; testnets.Figure2 parses the
	// same config text you would load from disk with cmd/minesweeper.
	net := testnets.Figure2()
	fmt.Println("network: Figure 2 of the paper (R1, R2, R3; external N1, N2, N3)")

	m, err := core.Encode(net.Graph, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded: %d constraints, %d symbolic record fields\n\n",
		len(m.Asserts), m.NumRecordVars)

	s3 := network.MustParsePrefix("10.3.3.0/24")

	// 1. With silent neighbors, everyone reaches subnet S3 on R3.
	quiet := m.NoFailures()
	for _, n := range []string{"N1", "N2", "N3"} {
		quiet = m.Ctx.And(quiet, m.Ctx.Not(m.Main.Env[n].Valid))
	}
	res, err := m.CheckGoal(ctx, nil, properties.ReachableAll(m, []string{"R1", "R2"}, s3), quiet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(properties.Describe("S3 reachable from R1 and R2 (quiet environment)", res))

	// 2. Over ALL environments the same property fails: S3 can be hijacked
	// by an external announcement, because Figure 2 filters nothing.
	res2, err := m.CheckGoal(ctx, nil, properties.ReachableAll(m, []string{"R1", "R2"}, s3), m.NoFailures())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(properties.Describe("S3 reachable from R1 and R2 (any environment)", res2))
	if res2.Counterexample != nil {
		fmt.Println("forwarding under the counterexample:")
		for _, line := range m.DecodeForwarding(m.Main, res2.Counterexample.Assignment) {
			fmt.Println("  " + line)
		}
	}

	// 3. The paper's §2.1 walkthrough: when all three neighbors announce a
	// destination, R3's egress uses N1 (R1's local-preference 120 wins).
	fmt.Println("\negress preference (paper §2.1): if N1 announces, traffic never exits via N3")
	mustAnnounce := m.Ctx.And(m.NoFailures(),
		m.Main.Env["N1"].Valid, m.Main.Env["N2"].Valid, m.Main.Env["N3"].Valid,
		m.Ctx.Eq(m.Main.Env["N1"].PrefixLen, m.Main.Env["N2"].PrefixLen),
		m.Ctx.Eq(m.Main.Env["N2"].PrefixLen, m.Main.Env["N3"].PrefixLen),
		properties.DstIn(m, network.MustParsePrefix("8.0.0.0/8")))
	neverN3 := m.Ctx.Not(m.Main.CtrlFwd["R2"][core.Hop{Ext: "N3"}])
	res3, err := m.CheckGoal(ctx, nil, neverN3, mustAnnounce)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(properties.Describe("no egress via N3 when all neighbors announce equally", res3))
}
