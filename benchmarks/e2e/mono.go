package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/properties"
	"repro/internal/smt"
	"repro/internal/topogen"
)

// fabric-mono: a small fat-tree answered by the monolithic path alone —
// one whole-network formula per query, a fresh solver each time, every
// verified verdict backed by a checked DRAT proof. The solver and the
// proof checker do nearly all the work.

type monoQuery struct {
	name string
	// want is the answer the fat-tree gives by construction: every ToR
	// reaches every ToR subnet over equal-length shortest paths.
	want  bool
	build func(m *core.Model) *smt.Term
}

type monoInput struct {
	texts   []string
	queries []monoQuery
}

func monoSetup(_ int64, sc scale) (any, error) {
	ft, err := topogen.Generate(sc.monoPods)
	if err != nil {
		return nil, err
	}
	in := &monoInput{texts: printConfigs(ft.Routers)}
	k := ft.K
	dst := topogen.ToRSubnet(0, 0)
	var others []string
	for _, t := range ft.AllToRs() {
		if t != topogen.ToRName(0, 0) {
			others = append(others, t)
		}
	}
	farPod := ft.ToRs[k-1]
	in.queries = []monoQuery{
		{"all-tor-reachability", true, func(m *core.Model) *smt.Term {
			return properties.ReachableAll(m, others, dst)
		}},
		{"tor-isolation", false, func(m *core.Model) *smt.Term {
			return properties.Isolated(m, farPod[0], dst)
		}},
		{"equal-length-pod", true, func(m *core.Model) *smt.Term {
			return properties.EqualLengths(m, farPod, dst)
		}},
	}
	// The seed draws nothing here. The fabric is fixed by its pod count.
	// The files keep the generator's order, because the order routers are
	// read in numbers the solver's variables: one shuffle of the twenty
	// files took the same three queries from 19 s to 97 s. The queries keep
	// theirs, because the garbage one query leaves sets how far the heap
	// grows during the next, and peak memory moved by a third with it.
	return in, nil
}

func monoPass(input any, tr *tracer) *passResult {
	in := input.(*monoInput)
	p := newPassResult(tr)
	start := time.Now()
	root := tr.begin("bench.pass", -1, -1)
	defer func() { tr.end(root); p.wall = time.Since(start) }()

	p.attempted = len(in.queries)
	g, err := p.loadGraph(in.texts, root, -1)
	if err != nil {
		p.fail("load: %v", err)
		p.failed = p.attempted
		return p
	}
	opts := core.DefaultOptions()
	opts.Tiers, opts.Parallel, opts.Certify = "sat", "off", true
	dst := topogen.ToRSubnet(0, 0)
	for qi, q := range in.queries {
		// Each query stands for one run of the command line tool, so it
		// starts from a collected heap; otherwise the garbage of the last
		// query sets how far the heap grows during this one, and the peak
		// of the run flips between two values a fifth apart.
		runtime.GC()
		qStart := time.Now()
		m, cn, err := p.encode(g, opts, root, qi)
		if err != nil {
			p.fail("%s: %v", q.name, err)
			continue
		}
		var prop *smt.Term
		var assumptions []*smt.Term
		p.timed("core.property", root, qi, func() {
			prop = q.build(m)
			assumptions = []*smt.Term{m.NoFailures(), properties.DstIn(m, dst)}
		})
		res, err := p.check(m, cn, prop, assumptions, root, qi)
		p.samples = append(p.samples, sample{classCold, time.Since(qStart)})
		switch {
		case err != nil:
			p.fail("%s: %v", q.name, err)
		case res.Verified != q.want:
			p.fail("%s: verified=%v, known answer %v", q.name, res.Verified, q.want)
		case res.Verified && (res.Certificate == nil || !res.Certificate.Checked):
			p.fail("%s: verified without a checked proof", q.name)
		}
	}
	return p
}
