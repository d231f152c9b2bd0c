package sat_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/sat"
	"repro/internal/smt"
)

// BenchmarkSat times the solver's layers (sat.BenchLayers) on the formula
// of a real query: no-blackholes on the pods-2 fabric, the network's
// constraints, the assumptions and the negated property blasted as they
// are and exported once through smt.Solver.Clauses.
//
//	go test -run '^$' -bench '^BenchmarkSat$' -benchtime 200x ./internal/sat
func BenchmarkSat(b *testing.B) {
	f, err := harness.BuildFabric(2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Encode(f.Net.Graph, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	goal, _ := harness.Fig8Goal(f, harness.Fig8NoBlackholes)
	prop, assumptions, err := pipeline.Property(m, goal)
	if err != nil {
		b.Fatal(err)
	}
	sol := smt.NewSolver(m.Ctx)
	for _, t := range m.Asserts {
		sol.Assert(t)
	}
	for _, t := range assumptions {
		sol.Assert(t)
	}
	sol.Assert(m.Ctx.Not(prop))
	sat.BenchLayers(b, sol.SAT().NumVars(), sol.SAT().Clauses())
}
