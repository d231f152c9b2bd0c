// Benchmarks regenerating the paper's evaluation (§8), one benchmark per
// table or figure. Each benchmark exercises the same code path as the
// full-scale harness in cmd/bench, at sizes that keep `go test -bench=.`
// tractable on a laptop; run cmd/bench for the paper-scale sweeps (each
// also writes its rows to BENCH_<experiment>.json; the §8.1 violation
// counts are fig7's footer):
//
//	go run ./cmd/bench -experiment fig7 -count 152
//	go run ./cmd/bench -experiment fig8 -pods 2,4,6
//	go run ./cmd/bench -experiment ablation -pods 4
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/modular"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/properties"
	"repro/internal/protograph"
	"repro/internal/simulator"
	"repro/internal/smt"
	"repro/internal/smt/passes"
	"repro/internal/testnets"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

// BenchmarkSection81Violations regenerates the §8.1 violations table on a
// small slice of the population (full population via cmd/bench). The
// violation counts are reported as benchmark metrics.
func BenchmarkSection81Violations(b *testing.B) {
	pop, err := netgen.Population(8, 1, netgen.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	props := harness.AllSection81Props()
	var violations []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		violations = make([]int, len(props))
		for _, n := range pop {
			vs, err := harness.CheckNetwork(n, props)
			if err != nil {
				b.Fatal(err)
			}
			for j, v := range vs {
				if !v.Result.Verified {
					violations[j]++
				}
			}
		}
	}
	// props is in paper order: mgmt, local equivalence, blackholes,
	// fault-invariance.
	for j, unit := range []string{"hijacks", "equiv-violations", "blackholes", "fault-invariance"} {
		b.ReportMetric(float64(violations[j]), unit)
	}
}

// benchFig7 measures one §8.1 property on one mid-size operational
// network: the per-network timing that makes up Figure 7's panels.
func benchFig7(b *testing.B, prop string) {
	n, err := netgen.Generate("bench", 17, netgen.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n.Lines), "config-lines")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.CheckNetwork(n, []string{prop}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7MgmtReachability(b *testing.B) { benchFig7(b, harness.PropMgmtReach) }
func BenchmarkFig7LocalEquivalence(b *testing.B) { benchFig7(b, harness.PropLocalEquiv) }
func BenchmarkFig7Blackholes(b *testing.B)       { benchFig7(b, harness.PropBlackholes) }
func BenchmarkFig7FaultInvariance(b *testing.B)  { benchFig7(b, harness.PropFaultInvar) }

// BenchmarkFig8 regenerates Figure 8's series: verification time per
// property per fabric size. Pod counts are kept small here; cmd/bench
// runs the larger sizes.
func BenchmarkFig8(b *testing.B) {
	pods := []int{2}
	if !testing.Short() {
		pods = []int{2, 4}
	}
	for _, k := range pods {
		f, err := harness.BuildFabric(k)
		if err != nil {
			b.Fatal(err)
		}
		// Untiered: the series measures the solver.
		var opts pipeline.Options
		opts.Core.Tiers = "none"
		props := harness.AllFig8Props()
		if k >= 4 {
			// Keep the default benchmark run affordable: the slow
			// whole-fabric properties at k≥4 are covered by cmd/bench.
			props = []string{harness.Fig8NoBlackholes, harness.Fig8LocalConsist, harness.Fig8EqualLengthPod}
		}
		for _, prop := range props {
			b.Run(fmt.Sprintf("pods=%d/%s", k, prop), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					v, err := harness.RunFig8Property(f, prop, opts)
					if err != nil {
						b.Fatal(err)
					}
					if !v.Result.Verified {
						b.Fatalf("%s unexpectedly violated", prop)
					}
				}
			})
		}
	}
}

// BenchmarkOptimizations regenerates the §8.3 ablation: single-source
// reachability with the hoisting and slicing optimizations toggled.
func BenchmarkOptimizations(b *testing.B) {
	f, err := harness.BuildFabric(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, passes := range harness.AblationPasses() {
		b.Run(passes, func(b *testing.B) {
			var opts pipeline.Options
			opts.Core.Passes = passes
			var v *pipeline.Verdict
			for i := 0; i < b.N; i++ {
				v, err = harness.RunAblation(f, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(v.Model.NumRecordVars), "record-vars")
			b.ReportMetric(float64(v.Result.SATVars), "sat-vars")
			b.ReportMetric(float64(v.Result.SATClauses), "sat-clauses")
		})
	}
}

// BenchmarkEncode measures formula construction alone (the translation
// front-end the paper attributes to Batfish + model generation).
func BenchmarkEncode(b *testing.B) {
	for _, k := range []int{2, 4} {
		f, err := harness.BuildFabric(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pods=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Encode(f.Net.Graph, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulator measures the concrete control-plane oracle used for
// differential validation (the Batfish stand-in).
func BenchmarkSimulator(b *testing.B) {
	f, err := harness.BuildFabric(4)
	if err != nil {
		b.Fatal(err)
	}
	sim := simulator.New(f.Net.Graph)
	dst := network.MustParseIP("10.0.0.10")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(dst, simulator.NewEnvironment()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHijackQuery measures the paper's headline bug-finding query on
// the canonical vulnerable network.
func BenchmarkHijackQuery(b *testing.B) {
	net := testnets.Hijackable(false)
	for i := 0; i < b.N; i++ {
		m, err := core.Encode(net.Graph, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.CheckGoal(context.Background(), nil, properties.ManagementReachable(m), m.NoFailures())
		if err != nil {
			b.Fatal(err)
		}
		if res.Verified {
			b.Fatal("hijack not found")
		}
	}
}

// BenchmarkSessionHijackQuery is BenchmarkHijackQuery on a long-lived
// session: the model is encoded and blasted once, each iteration only
// re-checks the property under a fresh activation literal.
func BenchmarkSessionHijackQuery(b *testing.B) {
	net := testnets.Hijackable(false)
	m, err := core.Encode(net.Graph, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sess := m.NewSession()
	p := properties.ManagementReachable(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.CheckContext(context.Background(), p, m.NoFailures())
		if err != nil {
			b.Fatal(err)
		}
		if res.Verified {
			b.Fatal("hijack not found")
		}
	}
}

// BenchmarkFabricGeneration measures the workload generators.
func BenchmarkFabricGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := topogen.Generate(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricScale times the layers of the repo benchmark's
// fabric-scale workload one by one, at pods-12 (180 routers) instead of
// pods-24, so a regression on the non-solver fabric path names its layer
// without a 720-router run. Each sub-benchmark mirrors BENCHMARK.json
// per-layer metrics: load = config.parse_s + config.topology_s +
// protograph.build_s, analysis = tiered.analysis_s, decide-fig8 =
// tiered.analysis_s + tiered.decide_s (a fresh Analysis answering the
// seven goals: the first simulates the destination class, the other six
// reuse it), partition = modular.partition_s, plan = modular.plan_s, run
// = modular.run_s. The graph tier decides all seven goals, so the
// workload no longer reaches the modular layers; they are timed on the
// subnet-scoped no-blackholes goal as the modular step would answer it.
func BenchmarkFabricScale(b *testing.B) {
	ft, err := topogen.Generate(12)
	if err != nil {
		b.Fatal(err)
	}
	configs := make(map[string]string, len(ft.Routers))
	for _, r := range ft.Routers {
		configs[r.Name] = config.Print(r)
	}
	load := func() *protograph.Graph {
		net, err := pipeline.Load(configs)
		if err != nil {
			b.Fatal(err)
		}
		return net.Graph
	}
	g := load()
	f := &harness.Fabric{FT: ft}
	var goals []tiered.Goal
	for _, prop := range harness.AllFig8Props() {
		if goal, ok := harness.Fig8ModularGoal(f, prop); ok {
			goals = append(goals, goal)
		}
	}
	decideAll := func() {
		analysis := tiered.NewAnalysis(g)
		for _, goal := range goals {
			if out := analysis.Decide(goal); !out.Decided || !out.Verified {
				b.Fatalf("%s: %+v, want a verified graph-tier verdict", goal.Check, out)
			}
		}
	}
	decideAll()
	blackholes, _ := harness.Fig8ModularGoal(f, harness.Fig8NoBlackholes)
	cut := modular.Partition(g)
	plan := modular.NewPlan(g, cut, blackholes)
	opts := modular.Options{Core: core.DefaultOptions(), Workers: 2, NoFallback: true}

	for _, layer := range []struct {
		name string
		fn   func()
	}{
		{"load", func() { load() }},
		{"analysis", func() { tiered.NewAnalysis(g) }},
		{"decide-fig8", decideAll},
		{"partition", func() { modular.Partition(g) }},
		{"plan", func() { modular.NewPlan(g, cut, blackholes) }},
		{"run", func() {
			rep, err := modular.Run(context.Background(), g, plan, opts)
			if err != nil || len(rep.Residue) > 0 || !rep.Verified {
				b.Fatalf("modular run: err=%v report=%+v", err, rep)
			}
		}},
	} {
		b.Run(layer.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				layer.fn()
			}
		})
	}
}

// BenchmarkFabricScalePass is one whole pass of the fabric-scale workload
// at its real size (pods-24, 720 routers) through the query pipeline
// every surface shares: configuration text to protocol graph, then the
// seven Figure 8 goals, each answered by the graph tier or, failing that,
// by the modular pipeline (never the whole-network encoding).
// BENCH_fabric_pass.folded is a CPU profile of it; EXPERIMENTS.md has the
// command.
func BenchmarkFabricScalePass(b *testing.B) {
	ft, err := topogen.Generate(24)
	if err != nil {
		b.Fatal(err)
	}
	configs := make(map[string]string, len(ft.Routers))
	for _, r := range ft.Routers {
		configs[r.Name] = config.Print(r)
	}
	f := &harness.Fabric{FT: ft}
	var goals []tiered.Goal
	for _, prop := range harness.AllFig8Props() {
		if goal, ok := harness.Fig8ModularGoal(f, prop); ok {
			goals = append(goals, goal)
		}
	}
	opts := pipeline.Options{Modular: true}
	opts.Workers = 2
	opts.NoFallback = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := pipeline.Load(configs)
		if err != nil {
			b.Fatal(err)
		}
		for _, goal := range goals {
			v, err := pipeline.Run(context.Background(), net, goal, opts)
			if err != nil || v.Result == nil || !v.Result.Verified {
				b.Fatalf("%s: err=%v verdict=%+v, want verified on a clean fat-tree", goal.Check, err, v)
			}
		}
	}
}

// BenchmarkGraphPath times the fabric-scale path from configuration text
// to a graph-tier verdict layer by layer, on the workload's own pods-24
// fabric (720 routers), each sub-benchmark named after the BENCHMARK.json
// per-layer metric it mirrors: parse is config.parse_s, topology
// config.topology_s, protograph protograph.build_s, analysis
// tiered.analysis_s, simulate one simulator run toward the Figure 8
// destination (most of tiered.decide_s), and decide-fig8 a fresh Analysis
// answering the seven goals (tiered.analysis_s + tiered.decide_s).
// allocs/op is each layer's gate: they index routers, links and sessions
// by position (DESIGN §21), and a layer that starts allocating per name
// lookup again shows here first.
func BenchmarkGraphPath(b *testing.B) {
	ft, err := topogen.Generate(24)
	if err != nil {
		b.Fatal(err)
	}
	texts := make([]string, len(ft.Routers))
	for i, r := range ft.Routers {
		texts[i] = config.Print(r)
	}
	parse := func() ([]*config.Router, map[string]*config.Router) {
		routers := make([]*config.Router, len(texts))
		byName := make(map[string]*config.Router, len(texts))
		for i, text := range texts {
			r, err := config.Parse(text)
			if err != nil {
				b.Fatal(err)
			}
			routers[i], byName[r.Name] = r, r
		}
		return routers, byName
	}
	routers, byName := parse()
	topology := func() *network.Topology {
		topo, err := config.BuildTopology(routers)
		if err != nil {
			b.Fatal(err)
		}
		return topo
	}
	topo := topology()
	build := func() *protograph.Graph {
		g, err := protograph.Build(topo, byName)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	g := build()
	f := &harness.Fabric{FT: ft}
	var goals []tiered.Goal
	for _, prop := range harness.AllFig8Props() {
		if goal, ok := harness.Fig8ModularGoal(f, prop); ok {
			goals = append(goals, goal)
		}
	}
	sim := simulator.New(g)
	dst := topogen.ToRSubnet(0, 0).First()
	for _, layer := range []struct {
		name string
		fn   func()
	}{
		{"parse", func() { parse() }},
		{"topology", func() { topology() }},
		{"protograph", func() { build() }},
		{"analysis", func() { tiered.NewAnalysis(g) }},
		{"simulate", func() {
			if _, err := sim.Run(dst, simulator.NewEnvironment()); err != nil {
				b.Fatal(err)
			}
		}},
		{"decide-fig8", func() {
			a := tiered.NewAnalysis(g)
			for _, goal := range goals {
				if out := a.Decide(goal); !out.Decided || !out.Verified {
					b.Fatalf("%s: %+v, want a verified graph-tier verdict", goal.Check, out)
				}
			}
		}},
	} {
		b.Run(layer.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				layer.fn()
			}
		})
	}
}

// BenchmarkFabricMonoPass is one pass of the repo benchmark's fabric-mono
// workload through the query pipeline: the pods-4 fabric from text, then
// its three queries (all-ToR reachability, one ToR's isolation, equal
// path lengths from a pod), each on a fresh whole-network model with the
// graph tier off and every verified verdict certified by a checked
// proof. The solver is nearly all of it. BENCH_mono_pass.folded is a CPU
// profile of it; EXPERIMENTS.md has the command.
func BenchmarkFabricMonoPass(b *testing.B) {
	ft, err := topogen.Generate(4)
	if err != nil {
		b.Fatal(err)
	}
	configs := make(map[string]string, len(ft.Routers))
	for _, r := range ft.Routers {
		configs[r.Name] = config.Print(r)
	}
	f := &harness.Fabric{FT: ft}
	reachAll, _ := harness.Fig8Goal(f, harness.Fig8ReachAll)
	equalLengths, _ := harness.Fig8Goal(f, harness.Fig8EqualLengthPod)
	isolation := tiered.Goal{Check: "isolation", Src: topogen.ToRName(ft.K-1, 0),
		Subnet: topogen.ToRSubnet(0, 0), HasSubnet: true}
	queries := []struct {
		goal tiered.Goal
		want bool
	}{{reachAll, true}, {isolation, false}, {equalLengths, true}}
	var opts pipeline.Options
	opts.Core = core.DefaultOptions()
	opts.Core.Tiers, opts.Core.Certify = "sat", true
	var conflicts, propagations int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := pipeline.Load(configs)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range queries {
			v, err := pipeline.Run(context.Background(), net, q.goal, opts)
			if err != nil || v.Result.Verified != q.want {
				b.Fatalf("%s: err=%v verdict=%+v, known answer %v", q.goal.Check, err, v, q.want)
			}
			if q.want && (v.Result.Certificate == nil || !v.Result.Certificate.Checked) {
				b.Fatalf("%s: verified without a checked proof", q.goal.Check)
			}
			conflicts += v.Result.Stats.Conflicts
			propagations += v.Result.Stats.Propagations
		}
	}
	// The workload's sat.conflicts (30 165 a pass: the witness probe
	// answers the falsified query) and what the pass as a whole, proof
	// checking included, makes of sat.propagations_per_s.
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
	b.ReportMetric(float64(propagations)/b.Elapsed().Seconds(), "propagations/s")
}

// BenchmarkAuditPass is one pass of the repo benchmark's enterprise-audit
// workload: the 24 operational-style networks of 2 to 25 routers, each
// loaded from text, encoded, compiled and checked on a fresh solver for
// "traffic is dropped only at the edge", then its access routers checked
// pairwise for local equivalence. The front end (encode, term passes,
// bit-blasting) is most of it. BENCH_audit_pass.folded is a CPU profile
// of it; EXPERIMENTS.md has the command.
func BenchmarkAuditPass(b *testing.B) {
	type auditNet struct {
		configs map[string]string
		edge    map[string]bool
		access  []string
	}
	var nets []auditNet
	for size := 2; size <= 25; size++ {
		n, err := netgen.Audit(size)
		if err != nil {
			b.Fatal(err)
		}
		an := auditNet{configs: map[string]string{}, edge: map[string]bool{}, access: n.Roles["access"]}
		for _, r := range n.Routers {
			an.configs[r.Name] = config.Print(r)
		}
		for _, r := range append(append([]string(nil), n.Access...), n.Borders...) {
			an.edge[r] = true
		}
		nets = append(nets, an)
	}
	var terms, clauses, conflicts, answered int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			net, err := pipeline.Load(n.configs)
			if err != nil {
				b.Fatal(err)
			}
			m, err := core.Encode(net.Graph, core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			terms += int64(m.Ctx.NumTerms())
			cn := m.Compile()
			prop := properties.DropsAtEdgeOnly(m, func(r string) bool { return n.edge[r] })
			res, err := m.CheckGoal(context.Background(), cn, prop, m.NoFailures())
			if err != nil {
				b.Fatal(err)
			}
			clauses += int64(res.SATClauses)
			conflicts += res.Stats.Conflicts
			if res.Probe == core.ProbeAnswered {
				answered++
			}
			for j := 0; j+1 < len(n.access); j++ {
				if _, err := core.CheckLocalEquivalence(net.Graph, n.access[j], n.access[j+1], core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// The workload's core.terms, smt.sat_clauses and sat.conflicts a pass
	// (131 755, 56 186 and 163; 19 of the 24 blackhole checks are refuted
	// by their goals alone, and the witness probe answers the other five,
	// each under a peer announcing the deep-drop ACL's destination), and
	// answered/op, the checks the probe answered (5): a change that moves
	// one changed the formula, the search or the probe. CI holds
	// clauses/op, conflicts/op and answered/op exactly.
	b.ReportMetric(float64(terms)/float64(b.N), "terms/op")
	b.ReportMetric(float64(clauses)/float64(b.N), "clauses/op")
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
	b.ReportMetric(float64(answered)/float64(b.N), "answered/op")
}

// BenchmarkFrontEnd times the front end's layers one by one on a mid-size
// audit network and on the pods-2 fabric, each named after the
// BENCHMARK.json per-layer metric it mirrors: encode is core.encode_s
// (terms: core.terms), compile passes.compile_s, coi passes.coi_s (terms:
// passes.terms_after), blast smt.blast_s on a solver sized as a check
// sizes it (clauses: smt.sat_clauses). allocs/op is each layer's gate: the
// containers are id-indexed slices, and a layer that starts allocating per
// node again shows here first.
func BenchmarkFrontEnd(b *testing.B) {
	ft, err := topogen.Generate(2)
	if err != nil {
		b.Fatal(err)
	}
	fabric, err := pipeline.Build(ft.Routers)
	if err != nil {
		b.Fatal(err)
	}
	n17, err := netgen.Audit(17)
	if err != nil {
		b.Fatal(err)
	}
	audit, err := pipeline.Build(n17.Routers)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []struct {
		name string
		g    *protograph.Graph
	}{{"netgen-17", audit.Graph}, {"pods-2", fabric.Graph}} {
		encode := func() *core.Model {
			m, err := core.Encode(n.g, core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			return m
		}
		// The query the audit asks, on one model: its system before the
		// cone-of-influence pass and after.
		m := encode()
		cn := m.Compile()
		prop := properties.DropsAtEdgeOnly(m, func(string) bool { return false })
		goals := []*smt.Term{m.NoFailures(), m.Ctx.Not(prop)}
		prune := func() (*passes.System, int) {
			sys := &passes.System{Ctx: m.Ctx, Asserts: append([]*smt.Term(nil), cn.Asserts...), Goals: goals}
			return sys, passes.COI(sys, nil).TermsAfter
		}
		pruned, terms := prune()

		b.Run("encode/"+n.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encode()
			}
			b.ReportMetric(float64(m.Ctx.NumTerms()), "terms")
		})
		b.Run("compile/"+n.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := encode()
				b.StartTimer()
				fresh.Compile()
			}
			b.ReportMetric(float64(cn.PassStats[0].TermsAfter), "terms")
		})
		b.Run("coi/"+n.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prune()
			}
			b.ReportMetric(float64(terms), "terms")
		})
		b.Run("blast/"+n.name, func(b *testing.B) {
			b.ReportAllocs()
			clauses := 0
			for i := 0; i < b.N; i++ {
				sol := smt.NewSolver(m.Ctx)
				sol.Reserve(terms)
				for _, a := range pruned.Asserts {
					sol.Assert(a)
				}
				for _, g := range pruned.Goals {
					sol.Assert(g)
				}
				clauses = sol.SAT().NumClauses()
			}
			b.ReportMetric(float64(clauses), "clauses")
		})
	}
}
