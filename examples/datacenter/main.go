// Datacenter: verify a folded-Clos BGP fabric (the §8.2 workload).
//
// We generate a 4-pod fat-tree (20 routers) running eBGP with multipath,
// then check the Figure 8 property suite against one destination ToR:
// reachability from a far ToR and from all ToRs, 4-hop bounded path
// length, equal path lengths within a remote pod, multipath consistency,
// no blackholes, and pairwise equivalence of the core tier.
//
// Run with: go run ./examples/datacenter
package main

import (
	"fmt"
	"log"

	"repro/internal/harness"
	"repro/internal/pipeline"
)

func main() {
	const pods = 4
	f, err := harness.BuildFabric(pods)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fabric: %d pods, %d routers, %d links, %d external backbone peers\n\n",
		pods, len(f.FT.Routers), len(f.Net.Graph.Topo.Links), len(f.Net.Graph.Topo.Externals))

	// The graph tier is off, so the SAT solver answers every query.
	var opts pipeline.Options
	opts.Core.Tiers = "none"
	for _, prop := range harness.AllFig8Props() {
		v, err := harness.RunFig8Property(f, prop, opts)
		if err != nil {
			log.Fatal(err)
		}
		res := v.Result
		verdict := "verified"
		if !res.Verified {
			verdict = "VIOLATED"
		}
		fmt.Printf("%-28s %-9s %8.1f ms\n", prop, verdict,
			float64(res.Elapsed.Microseconds())/1000)
	}
}
