package psolve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sat"
)

// runCubes answers the query by cube-and-conquer: a short probing run
// ranks the split candidates by VSIDS activity, the top-k become 2^k
// cubes (sign patterns), and each cube is solved on its own clone with
// the cube literals as extra assumptions. A SAT cube ends the run (the
// others are interrupted); UNSAT requires every cube UNSAT, and the
// per-cube traces are stitched into one checkable proof.
//
// With one worker — or when no usable split candidate survives — the run
// degenerates to a single vanilla clone, keeping the sequential
// semantics bit for bit.
func runCubes(ctx context.Context, template *sat.Solver, opts Options, assumptions []sat.Lit) (*Outcome, error) {
	if opts.Workers <= 1 {
		return runPortfolio(ctx, template, Options{Mode: ModePortfolio, Workers: 1,
			Schedule: opts.Schedule, OnEvent: opts.OnEvent}, assumptions)
	}
	prefix := proofPrefixLen(template)
	base := template.Stats
	baseDB := template.ClauseDBBytes()

	// Lookahead: a budgeted probe both ranks the split variables and
	// sometimes settles the query outright.
	probe := template.Clone()
	// The budget is relative to the work already on the clock: clones
	// inherit the template's cumulative conflict count.
	probe.MaxConflicts = probe.Stats.Conflicts + opts.ProbeConflicts
	stop := watchCancel(ctx, []*sat.Solver{probe})
	probeStatus, probeErr := probe.SolveLimited(assumptions...)
	stop()
	probe.ResetInterrupt()
	probe.MaxConflicts = template.MaxConflicts
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if decisive(probeStatus) {
		out := adoptSingle(probe, probeStatus)
		out.Tasks = []TaskWork{taskWork(-1, "probe", probe, base, baseDB, true)}
		out.Cube = &CubeReport{Workers: opts.Workers, SatCube: -1, ProbeDecided: true}
		emitCubeEvent(opts, out.Cube, out.Status)
		return out, nil
	}
	if probeErr != nil && probeErr != sat.ErrBudget {
		return nil, probeErr
	}

	splitVars := pickSplitVars(template, probe, opts, assumptions)
	if len(splitVars) == 0 {
		// Nothing safe to split on: fall back to a portfolio race.
		return runPortfolio(ctx, template, Options{Mode: ModePortfolio, Workers: opts.Workers,
			Seed: opts.Seed, Schedule: opts.Schedule, OnEvent: opts.OnEvent}, assumptions)
	}

	// Cube i assigns splitVars[j] the sign of bit (k-1-j): variable 0 is
	// the most significant bit, so consecutive cubes differ in the LAST
	// literal — the order the proof-stitching merge tree resolves on.
	k := len(splitVars)
	nCubes := 1 << k
	cubeLits := make([][]sat.Lit, nCubes)
	for i := 0; i < nCubes; i++ {
		lits := make([]sat.Lit, k)
		for j := 0; j < k; j++ {
			lits[j] = sat.MkLit(splitVars[j], (i>>(k-1-j))&1 == 0)
		}
		cubeLits[i] = lits
	}

	solvers := make([]*sat.Solver, nCubes)
	for i := range solvers {
		solvers[i] = template.Clone()
	}
	type result struct {
		status sat.Status
		err    error
		ran    bool
	}
	results := make([]result, nCubes)
	var sawSat atomic.Bool
	var mu sync.Mutex
	stop = watchCancel(ctx, solvers)
	tasks := make([]func(), nCubes)
	for i := range solvers {
		i := i
		tasks[i] = func() {
			if sawSat.Load() {
				return // a satisfying cube already ended the run
			}
			as := append(append([]sat.Lit(nil), assumptions...), cubeLits[i]...)
			st, err := solvers[i].SolveLimited(as...)
			mu.Lock()
			results[i] = result{status: st, err: err, ran: true}
			if st == sat.Sat && !sawSat.Swap(true) {
				for j, other := range solvers {
					if j != i {
						other.Interrupt()
					}
				}
			}
			mu.Unlock()
		}
	}
	runTasks(opts.Schedule, tasks)
	stop()
	for _, s := range solvers {
		s.ResetInterrupt()
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}

	report := &CubeReport{Workers: opts.Workers, SplitVars: splitVars, Cubes: nCubes, SatCube: -1}
	stats := base
	statsAdd(&stats, base, probe.Stats)
	// Every cube's refutation contributes to the verdict, so every ran
	// task is adopted — a cube fan-out has no wasted-work rows.
	taskRows := []TaskWork{taskWork(-1, "probe", probe, base, baseDB, true)}
	for i, r := range results {
		if !r.ran {
			continue
		}
		statsAdd(&stats, base, solvers[i].Stats)
		taskRows = append(taskRows, taskWork(i, fmt.Sprintf("cube:%d", i), solvers[i], base, baseDB, true))
		if r.status == sat.Unsat {
			report.UnsatCubes++
		}
	}

	// A satisfying cube settles the query: its model satisfies the
	// formula under the original assumptions (the cube literals were only
	// assumptions, not clauses).
	for i, r := range results {
		if r.ran && r.status == sat.Sat {
			report.SatCube = i
			out := adoptSingle(solvers[i], sat.Sat)
			out.Stats = stats
			out.Tasks = taskRows
			out.Cube = report
			emitCubeEvent(opts, report, sat.Sat)
			return out, nil
		}
	}
	if report.UnsatCubes < nCubes {
		// Some cube was interrupted or exhausted its budget without a SAT
		// winner: no verdict.
		for _, r := range results {
			if r.err != nil && r.err != sat.ErrInterrupted {
				return nil, r.err
			}
		}
		return nil, ErrNoVerdict
	}

	out := &Outcome{
		Status:      sat.Unsat,
		Winner:      solvers[0],
		Stats:       stats,
		OriginBases: template.OriginSetBases,
		Tasks:       taskRows,
		Cube:        report,
	}
	if template.Proof() != nil {
		out.Proof = stitchProof(template, prefix, cubeLits, solvers)
	}
	if template.TrackingOrigins() {
		// Every clone's counters include the template's pre-existing work;
		// emit the base once and per-participant deltas, so the merged
		// profile counts the shared prefix exactly once — the same total a
		// sequential run would report.
		baseData, _ := originData(template)
		out.Origins = append(out.Origins, baseData)
		if od, ok := originDelta(probe, baseData.Counts); ok {
			out.Origins = append(out.Origins, od)
		}
		for _, s := range solvers {
			if od, ok := originDelta(s, baseData.Counts); ok {
				out.Origins = append(out.Origins, od)
			}
		}
	}
	emitCubeEvent(opts, report, sat.Unsat)
	return out, nil
}

// adoptSingle wraps one deciding solver as an outcome.
func adoptSingle(s *sat.Solver, st sat.Status) *Outcome {
	out := &Outcome{
		Status:      st,
		Winner:      s,
		Stats:       s.Stats,
		Proof:       s.Proof(),
		OriginBases: s.OriginSetBases,
	}
	if od, ok := originData(s); ok {
		out.Origins = []OriginData{od}
	}
	return out
}

func emitCubeEvent(opts Options, report *CubeReport, st sat.Status) {
	if opts.OnEvent == nil {
		return
	}
	opts.OnEvent(EventCube, map[string]any{
		"workers":       report.Workers,
		"split_vars":    len(report.SplitVars),
		"cubes":         report.Cubes,
		"unsat_cubes":   report.UnsatCubes,
		"sat_cube":      report.SatCube,
		"probe_decided": report.ProbeDecided,
		"status":        st.String(),
	})
}

// pickSplitVars ranks the candidate variables by the probe's VSIDS
// activity and returns the top k, where 2^k roughly doubles the worker
// count (capped at 64 cubes). Candidates already assigned at the
// template's root level, out of range, duplicated, or appearing among
// the assumptions are discarded.
func pickSplitVars(template, probe *sat.Solver, opts Options, assumptions []sat.Lit) []sat.Var {
	assumed := make(map[sat.Var]bool, len(assumptions))
	for _, l := range assumptions {
		assumed[l.Var()] = true
	}
	seen := make(map[sat.Var]bool, len(opts.Candidates))
	var cands []sat.Var
	for _, v := range opts.Candidates {
		if v < 0 || int(v) >= template.NumVars() || seen[v] || assumed[v] {
			continue
		}
		seen[v] = true
		if template.Value(v) != sat.Unknown {
			continue // fixed at root: splitting on it wastes half the cubes
		}
		cands = append(cands, v)
	}
	if len(cands) == 0 {
		return nil
	}
	sort.SliceStable(cands, func(i, j int) bool {
		ai, aj := probe.Activity(cands[i]), probe.Activity(cands[j])
		if ai != aj {
			return ai > aj
		}
		return cands[i] < cands[j]
	})
	k := opts.CubeVars
	if k <= 0 {
		k = 1
		for 1<<k < 2*opts.Workers && k < 6 {
			k++
		}
	}
	if k > 6 {
		k = 6
	}
	if k > len(cands) {
		k = len(cands)
	}
	return cands[:k]
}

// stitchProof assembles one checkable DRAT trace from an all-UNSAT cube
// fan-out. Layout:
//
//	shared prefix            — the template's trace, common to every clone
//	per-cube derives         — each clone's learned clauses (valid without
//	                           the cube: CDCL learns only by resolution on
//	                           database clauses, never on assumptions)
//	per-cube ¬cube clause    — RUP: propagating the cube literals over the
//	                           clone's final database mimics its refutation
//	merge tree               — pairs of ¬cube clauses differing in the last
//	                           literal resolve to their shared prefix (RUP:
//	                           both become unit on the split variable with
//	                           opposite signs), down to the empty clause
//
// Delete steps from the clone tails are dropped: the clones delete shared
// clauses independently, and a checker database that only grows keeps
// every later RUP check valid. Origin ids recorded by the clones are
// re-interned into the template's tables so one solver resolves the whole
// stitched trace, and the clones' hints are renumbered to it; the ¬cube
// and merge steps carry none and are checked by search.
func stitchProof(template *sat.Solver, prefix int, cubeLits [][]sat.Lit, solvers []*sat.Solver) *sat.Proof {
	p := sat.NewProof()
	for j, st := range template.Proof().Steps() {
		p.AppendShared(st, template.Proof().Hints(j)...)
	}
	negCubes := make([][]sat.Lit, len(solvers))
	var hints []int32
	for i, s := range solvers {
		// Origin-set ids diverge across clones past the shared prefix, so
		// the remap cache is per clone.
		remapped := map[int32]int32{}
		// So do step ids: moved[j] is where the clone's step prefix+j lands
		// in the stitched trace. Dropped deletes leave every clause a hint
		// names in the database.
		tail := s.Proof().Steps()[prefix:]
		moved := make([]int32, len(tail))
		for j, st := range tail {
			moved[j] = int32(p.NumSteps())
			if st.Kind == sat.ProofDelete {
				continue
			}
			hints = hints[:0]
			for _, h := range s.Proof().Hints(prefix + j) {
				if int(h) >= prefix {
					h = moved[int(h)-prefix]
				}
				hints = append(hints, h)
			}
			origin := st.Origin
			if origin != 0 {
				id, ok := remapped[origin]
				if !ok {
					id = template.InternOriginSet(s.OriginSetBases(origin))
					remapped[origin] = id
				}
				origin = id
			}
			p.AppendShared(sat.ProofStep{Kind: st.Kind, Lits: st.Lits, Origin: origin}, hints...)
		}
		neg := make([]sat.Lit, len(cubeLits[i]))
		for j, l := range cubeLits[i] {
			neg[j] = l.Not()
		}
		p.AppendShared(sat.ProofStep{Kind: sat.ProofDerive, Lits: neg})
		negCubes[i] = neg
	}
	frontier := negCubes
	for level := len(cubeLits[0]); level > 0; level-- {
		next := make([][]sat.Lit, 0, len(frontier)/2)
		for j := 0; j+1 < len(frontier); j += 2 {
			merged := append([]sat.Lit(nil), frontier[j][:level-1]...)
			p.AppendShared(sat.ProofStep{Kind: sat.ProofDerive, Lits: merged})
			next = append(next, merged)
		}
		frontier = next
	}
	return p
}
