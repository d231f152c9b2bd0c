package core

import (
	"repro/internal/network"
	"repro/internal/simulator"
)

// WithholdProbe makes m's fresh checks run as they would without the
// witness probe, for the external test package's parity tests.
func WithholdProbe(m *Model) { m.probeOff = true }

// ReplaceProbeSim makes m's witness probe take its stable state from sim
// instead of the simulator.
func ReplaceProbeSim(m *Model, sim func(network.IP, *simulator.Environment) (*simulator.Result, error)) {
	m.probeSim = sim
}
