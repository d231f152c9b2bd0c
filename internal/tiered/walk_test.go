package tiered_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/protograph"
	"repro/internal/tiered"
)

// TestDecideMatchesTwoRuleReference holds Decide, whose walk leaves the
// deterministic fragment and goes on falsifying in one pass, to
// RefDecide, the deterministic path followed by a separate simulated-
// falsification pass, field for field: on every goal TierParity asks of
// the seeds TestTierParitySweep draws, and on the memo population. Each
// side decides on an Analysis of its own, so neither sees the other's
// planes, and both must have simulated and tried the same planes.
func TestDecideMatchesTwoRuleReference(t *testing.T) {
	decided := 0
	same := func(name string, g *protograph.Graph, goals []tiered.Goal) {
		a, ref := tiered.NewAnalysis(g), tiered.NewAnalysis(g)
		for _, goal := range goals {
			got, want := a.Decide(goal), ref.RefDecide(goal)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %+v: got %+v, want %+v", name, goal, got, want)
			}
			if got.Decided {
				decided++
			}
		}
		if a.Simulations() != ref.Simulations() || a.MenuTries() != ref.MenuTries() {
			t.Errorf("%s: %d simulations and %d menu tries, want %d and %d",
				name, a.Simulations(), a.MenuTries(), ref.Simulations(), ref.MenuTries())
		}
	}
	for fam := 0; fam < fuzz.Families(); fam++ {
		for seed := 0; seed < 60; seed++ {
			s, rng, err := fuzz.FromSeed(binary.BigEndian.AppendUint32([]byte{byte(fam)}, uint32(seed)))
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("%s seed %d", s.Name, seed), s.Net.Graph, s.TierGoals(rng))
		}
	}
	for _, c := range memoPopulation(t) {
		same(c.name, c.g, c.goals)
	}
	t.Logf("%d decided outcomes held to the reference", decided)
}
