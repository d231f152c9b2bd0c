package fuzz

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// tierSweepSeeds is how many seeds of each family TestTierParitySweep
// draws.
const tierSweepSeeds = 60

// TestTierParitySweep holds every verdict the graph tier decides to the
// solver's on tierSweepSeeds seeds of every fuzz family: reachability,
// isolation, waypoint, bounded-length and the whole-network checks, as
// Scenario.TierParity asks them. It also fails when the simulated-
// falsification rule decides nothing on the families with networks
// outside the deterministic fragment (Figure 2 and the generated
// networks, whose hijackable half is), or the deterministic path nothing
// on the generated networks (whose filtered half its layered fragment
// admits), so neither rule can go quiet and pass. The seeds are fixed: the sweep is
// deterministic. A fixture family draws the same network on every seed,
// so a goal it repeats is held to the solver once.
func TestTierParitySweep(t *testing.T) {
	mustSimulate := map[string]bool{"figure2": true, "netgen": true}
	mustStabilize := map[string]bool{"netgen": true, "netgen-redist": true}
	for fam := 0; fam < Families(); fam++ {
		fam, name := fam, pool[fam].name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var decided tierCounts
			seen := map[string]bool{}
			for seed := 0; seed < tierSweepSeeds; seed++ {
				data := binary.BigEndian.AppendUint32([]byte{byte(fam)}, uint32(seed))
				s, rng, err := FromSeed(data)
				if err != nil {
					t.Fatal(err)
				}
				n, err := s.tierParity(rng, seen)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				decided.stable += n.stable
				decided.simulated += n.simulated
			}
			t.Logf("%s: %d goals decided by the deterministic path, %d by the simulated-falsification rule", name, decided.stable, decided.simulated)
			if mustSimulate[name] && decided.simulated == 0 {
				t.Fatal(fmt.Sprintf("the simulated-falsification rule decided nothing on %d %s seeds", tierSweepSeeds, name))
			}
			if mustStabilize[name] && decided.stable == 0 {
				t.Fatal(fmt.Sprintf("the deterministic path decided nothing on %d %s seeds", tierSweepSeeds, name))
			}
		})
	}
}
