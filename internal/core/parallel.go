package core

import (
	"runtime"

	"repro/internal/provenance"
	"repro/internal/psolve"
	"repro/internal/sat"
	"repro/internal/smt"
)

// parallelEnabled reports whether checks on this model hand the CDCL
// search to the parallel engine (internal/psolve).
func (m *Model) parallelEnabled() bool { return psolve.Enabled(m.Opts.Parallel) }

// parallelWorkers resolves Options.ParallelWorkers (<=0 means one per
// CPU).
func (m *Model) parallelWorkers() int {
	if m.Opts.ParallelWorkers > 0 {
		return m.Opts.ParallelWorkers
	}
	return runtime.NumCPU()
}

// parallelOptions assembles the psolve configuration for one check on
// the given solver.
func (m *Model) parallelOptions(solver *smt.Solver) psolve.Options {
	return psolve.Options{
		Mode:       m.Opts.Parallel,
		Workers:    m.parallelWorkers(),
		Seed:       m.Opts.Seed,
		Candidates: m.parallelCandidates(solver),
		Schedule:   m.Schedule,
		OnEvent:    m.OnEvent,
	}
}

// parallelCandidates lists the SAT variables cube-and-conquer may split
// on: the bits of the environment records (announcement validity and
// prefix length) and the link-failure indicators. These are the
// variables the Minesweeper query universally quantifies over, so
// fixing them partitions the search space along semantically meaningful
// axes. Order is irrelevant — the engine totally orders candidates by
// probe activity and variable id.
func (m *Model) parallelCandidates(solver *smt.Solver) []sat.Var {
	var out []sat.Var
	add := func(t *smt.Term) {
		for _, l := range solver.BlastedLits(t) {
			out = append(out, l.Var())
		}
	}
	if m.Main != nil {
		for _, rec := range m.Main.Env {
			if rec == nil {
				continue
			}
			add(rec.Valid)
			add(rec.PrefixLen)
		}
	}
	for _, t := range m.Failed {
		add(t)
	}
	return out
}

// profileFromOutcome merges the participating solvers' origin counters
// into one hot-constraint profile; nil when tracking was off.
func (m *Model) profileFromOutcome(out *psolve.Outcome) *provenance.Profile {
	if len(out.Origins) == 0 {
		return nil
	}
	profiles := make([]*provenance.Profile, 0, len(out.Origins))
	for _, od := range out.Origins {
		pc := make([]provenance.Counts, len(od.Counts))
		for i, c := range od.Counts {
			pc[i] = provenance.Counts{
				Conflicts:    c.Conflicts,
				Propagations: c.Propagations,
				Learned:      c.Learned,
				LBDSum:       c.LBDSum,
			}
		}
		profiles = append(profiles, provenance.BuildProfile(m.Prov, od.Sets, pc))
	}
	return provenance.MergeProfiles(profiles...)
}
