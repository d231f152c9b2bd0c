package main

import (
	"context"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/modular"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

// fabric-scale: a large fat-tree loaded from text inside the timed
// region, then the Figure 8 goals in the order the tiers are meant to be
// tried: the graph analysis first, and the modular assume/guarantee
// pipeline for what it leaves undecided. Loading, graph analysis,
// partitioning and alias hashing do the work; the solver sees only a
// handful of one-router components.

type fabricGoal struct {
	prop string
	goal tiered.Goal
}

type fabricInput struct {
	texts []string
	goals []fabricGoal
}

func fabricSetup(_ int64, sc scale) (any, error) {
	ft, err := topogen.Generate(sc.scalePods)
	if err != nil {
		return nil, err
	}
	in := &fabricInput{texts: printConfigs(ft.Routers)}
	// Every goal carries the destination subnet: a whole-space goal is
	// outside the modular vocabulary, and its monolithic encoding is out
	// of reach at this size.
	f := &harness.Fabric{FT: ft}
	for _, prop := range harness.AllFig8Props() {
		if goal, ok := harness.Fig8ModularGoal(f, prop); ok {
			in.goals = append(in.goals, fabricGoal{prop, goal})
		}
	}
	// As on fabric-mono, the seed draws nothing: the fabric is fixed by
	// its pod count and the goals keep the paper's order.
	return in, nil
}

func fabricPass(input any, tr *tracer) *passResult {
	in := input.(*fabricInput)
	p := newPassResult(tr)
	start := time.Now()
	root := tr.begin("bench.pass", -1, -1)
	defer func() { tr.end(root); p.wall = time.Since(start) }()

	p.attempted = len(in.goals)
	g, err := p.loadGraph(in.texts, root, -1)
	if err != nil {
		p.fail("load: %v", err)
		p.failed = p.attempted
		return p
	}
	var analysis *tiered.Analysis
	p.timed("tiered.analysis", root, -1, func() { analysis = tiered.NewAnalysis(g) })

	opts := modular.Options{Core: core.DefaultOptions(), Workers: runtime.NumCPU(), NoFallback: true}
	for qi, fg := range in.goals {
		qStart := time.Now()
		var out tiered.Outcome
		p.timed("tiered.decide", root, qi, func() { out = analysis.Decide(fg.goal) })
		p.c["tiered.goals"]++
		verified := out.Verified
		if out.Decided {
			p.c["tiered.hits"]++
		} else {
			// The steps of modular.Verify, called one by one so each gets
			// its own span; residue is a failed query, never a fallback.
			p.c["modular.goals"]++
			var cut *modular.Cut
			p.timed("modular.partition", root, qi, func() { cut = modular.Partition(g) })
			var plan *modular.Plan
			p.timed("modular.plan", root, qi, func() { plan = modular.NewPlan(g, cut, fg.goal) })
			var rep *modular.Report
			p.timed("modular.run", root, qi, func() { rep, err = modular.Run(context.Background(), g, plan, opts) })
			if err != nil {
				p.fail("%s: modular: %v", fg.prop, err)
				continue
			}
			p.c["modular.components"] += float64(rep.Components)
			p.c["modular.alias_hits"] += float64(rep.AliasHits)
			p.c["modular.checks"] += float64(rep.Checks)
			if len(rep.Residue) > 0 || rep.Result == nil {
				p.c["modular.residue"]++
				p.fail("%s: modular residue %s", fg.prop, strings.Join(rep.Residue, ","))
				continue
			}
			p.bookComposed(rep.Result)
			verified = rep.Verified
		}
		p.samples = append(p.samples, sample{classCold, time.Since(qStart)})
		// Every Figure 8 goal holds on a fat-tree by construction.
		if !verified {
			p.fail("%s: falsified on a clean fat-tree", fg.prop)
		}
	}
	return p
}

// bookComposed books the solver-side sums of a composed modular verdict.
// The component checks run on modular.Run's own workers, so these are
// busy times inside the modular.run span, not spans of their own.
func (p *passResult) bookComposed(res *core.Result) {
	units := res.Stats.Decisions + res.Stats.Propagations + res.Stats.Conflicts
	work := res.Cost.Total()
	p.c["smt.blast_s"] += res.EncodeElapsed.Seconds()
	p.c["smt.simplify_s"] += res.SimplifyElapsed.Seconds()
	p.c["sat.solve_s"] += res.SolveElapsed.Seconds()
	p.c["smt.sat_clauses"] += float64(res.SATClauses)
	p.c["smt.sat_vars"] += float64(res.SATVars)
	p.c["sat.work_units"] += float64(units)
	p.c["sat.conflicts"] += float64(res.Stats.Conflicts)
	p.c["sat.propagations"] += float64(res.Stats.Propagations)
	p.c["sat.clause_db_bytes"] += float64(work.ClauseDBBytes)
	p.exact.WorkUnits += units
	p.exact.SATClauses += int64(res.SATClauses)
}
