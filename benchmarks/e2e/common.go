package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/protograph"
	"repro/internal/smt"
)

// Query classes: cold misses every cache, hit repeats an earlier request
// exactly, warm asks something new about a network the daemon already
// holds. Every query of the three batch workloads is cold.
const (
	classCold = "cold"
	classHit  = "hit"
	classWarm = "warm"
)

type sample struct {
	class string
	d     time.Duration
}

// counters are the additive per-pass sums the per-layer metrics are
// derived from: seconds busy and work counts, keyed by metric name.
type counters map[string]float64

// exactCounts must repeat bit for bit between two passes over the same
// inputs on the batch workloads.
type exactCounts struct {
	WorkUnits  int64 // sat decisions + propagations + conflicts
	SATClauses int64
	TermsAfter int64
	ProofBytes int64
}

// maxFailuresShown bounds the failure descriptions a report carries; the
// count is always complete.
const maxFailuresShown = 5

// passResult is what one pass from config text to last verdict reports.
type passResult struct {
	wall time.Duration
	// attempted counts verdicts asked for, samples the latencies taken;
	// the audit takes one latency per network for its two verdicts.
	attempted int
	samples   []sample
	failed    int
	failures  []string // the first few, for the report
	exact     exactCounts
	c         counters
	tr        *tracer
}

func newPassResult(tr *tracer) *passResult { return &passResult{c: counters{}, tr: tr} }

// fail counts a query that errored, was left undecided or answered
// differently from the known answer.
func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < maxFailuresShown {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// timed runs fn under a span and adds its wall time to the counter of the
// same name with an "_s" suffix.
func (p *passResult) timed(name string, parent, query int, fn func()) {
	id := p.tr.begin(name, parent, query)
	start := time.Now()
	fn()
	p.c[name+"_s"] += time.Since(start).Seconds()
	p.tr.end(id)
}

// loadGraph is the front end every workload shares: configuration text
// to protocol graph through the public entry points of config and
// protograph.
func (p *passResult) loadGraph(texts []string, parent, query int) (*protograph.Graph, error) {
	var routers []*config.Router
	byName := make(map[string]*config.Router, len(texts))
	var err error
	p.timed("config.parse", parent, query, func() {
		for _, t := range texts {
			var r *config.Router
			if r, err = config.Parse(t); err != nil {
				return
			}
			routers = append(routers, r)
			byName[r.Name] = r
			p.c["config.parse_bytes"] += float64(len(t))
		}
	})
	if err != nil {
		return nil, err
	}
	var topo *network.Topology
	p.timed("config.topology", parent, query, func() {
		topo, err = config.BuildTopology(routers)
	})
	if err != nil {
		return nil, err
	}
	var g *protograph.Graph
	p.timed("protograph.build", parent, query, func() {
		g, err = protograph.Build(topo, byName)
	})
	if err != nil {
		return nil, err
	}
	p.c["protograph.sessions"] += float64(len(g.Sessions))
	return g, nil
}

// check answers one query with a fresh solver through core.Model.CheckGoal
// and books the phases it went through to their layers. CheckGoal has no
// public entry per phase, so the split comes from the public core.Result
// fields; the phases become derived spans under the call's own span.
func (p *passResult) check(m *core.Model, cn *core.CompiledNetwork, prop *smt.Term, assumptions []*smt.Term, parent, query int) (*core.Result, error) {
	id := p.tr.begin("core.check", parent, query)
	start := time.Now()
	res, err := m.CheckGoal(context.Background(), cn, prop, assumptions...)
	wall := time.Since(start)
	p.tr.end(id)
	if err != nil {
		return nil, err
	}

	var coi, cnfSimplify time.Duration
	termsAfter := 0
	for _, ps := range res.PassStats {
		if ps.Pass == "cnf-simplify" {
			cnfSimplify = ps.Elapsed
			continue
		}
		coi += ps.Elapsed
		termsAfter = ps.TermsAfter
	}
	var decode time.Duration
	if n := res.Cost.Find("decode"); n != nil {
		decode = n.Wall
	}
	phases := []phase{
		{"passes.coi", coi},
		{"smt.blast", res.EncodeElapsed},
		{"smt.simplify", cnfSimplify},
		{"sat.solve", res.SolveElapsed},
		{"drat.check", res.CertifyElapsed},
		{"core.decode", decode},
	}
	p.tr.derive(id, query, phases)
	self := wall
	for _, ph := range phases {
		p.c[ph.name+"_s"] += ph.d.Seconds()
		self -= ph.d
	}
	p.c["core.check_s"] += self.Seconds()

	work := res.Cost.Total()
	units := res.Stats.Decisions + res.Stats.Propagations + res.Stats.Conflicts
	p.c["passes.terms_after"] += float64(termsAfter)
	p.c["smt.sat_vars"] += float64(res.SATVars)
	p.c["smt.sat_clauses"] += float64(res.SATClauses)
	p.c["sat.work_units"] += float64(units)
	p.c["sat.conflicts"] += float64(res.Stats.Conflicts)
	p.c["sat.propagations"] += float64(res.Stats.Propagations)
	p.c["sat.clause_db_bytes"] += float64(work.ClauseDBBytes)
	p.c["drat.proof_bytes"] += float64(work.ProofBytes)
	if cert := res.Certificate; cert != nil {
		p.c["drat.lemmas"] += float64(cert.Lemmas)
		p.c["drat.lits"] += float64(cert.Lits)
	}
	p.exact.WorkUnits += units
	p.exact.SATClauses += int64(res.SATClauses)
	p.exact.TermsAfter += int64(termsAfter)
	p.exact.ProofBytes += work.ProofBytes
	return res, nil
}

// encode builds the symbolic model of a network and compiles it, the two
// steps every fresh monolithic query starts with.
func (p *passResult) encode(g *protograph.Graph, opts core.Options, parent, query int) (*core.Model, *core.CompiledNetwork, error) {
	var m *core.Model
	var err error
	p.timed("core.encode", parent, query, func() { m, err = core.Encode(g, opts) })
	if err != nil {
		return nil, nil, err
	}
	p.c["core.terms"] += float64(m.Ctx.NumTerms())
	var cn *core.CompiledNetwork
	p.timed("passes.compile", parent, query, func() { cn = m.Compile() })
	if len(cn.PassStats) > 0 {
		p.c["passes.terms_before"] += float64(cn.PassStats[0].TermsBefore)
	}
	return m, cn, nil
}
