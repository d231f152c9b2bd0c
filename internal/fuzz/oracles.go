package fuzz

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/smt"
	"repro/internal/tiered"
)

// pinned is the option set every oracle starts from: the given pass
// pipeline with certification on — so any UNSAT verdict an oracle reaches
// is DRAT-checked as a side effect (the third oracle family) — and every
// engine but the monolithic solver off: the graph tier and the modular
// composition. Each oracle compares variants of one verdict, and an
// engine left on by default would blur which variant was exercised; an
// oracle switches on exactly the engine it is about.
func pinned(passes string) pipeline.Options {
	var o pipeline.Options
	o.Core.Passes = passes
	o.Core.Certify = true
	o.Core.Tiers = "none"
	return o
}

// engineOptions configures a service engine the way o configures a
// pipeline run.
func engineOptions(o pipeline.Options) service.Options {
	return service.Options{Workers: 1, Core: o.Core, Modular: o.Modular}
}

// Encode builds the scenario's model under the given pass pipeline, with
// certification on.
func (s *Scenario) Encode(passes string) (*core.Model, error) {
	m, err := core.Encode(s.Net.Graph, pinned(passes).Core)
	if err != nil {
		return nil, fmt.Errorf("fuzz: %s: encode (passes=%q): %w", s.Name, passes, err)
	}
	return m, nil
}

// DiffVsSim is the differential oracle: for iters random (dst, env)
// scenarios, the pinned symbolic model and the concrete simulator must
// produce identical stable states. Only valid on SimSafe scenarios.
func (s *Scenario) DiffVsSim(rng *rand.Rand, iters int) error {
	if !s.SimSafe {
		return fmt.Errorf("fuzz: %s: DiffVsSim on a multi-stable scenario", s.Name)
	}
	m, err := s.Encode("")
	if err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		dst := s.Dsts[rng.Intn(len(s.Dsts))]
		env := RandEnv(rng, s.Net.Topo, dst, 2, s.Comms)
		diffs, err := m.DiffAgainstSimulator(dst, env)
		if err != nil {
			return fmt.Errorf("fuzz: %s: iter %d: %w", s.Name, i, err)
		}
		if len(diffs) > 0 {
			return fmt.Errorf("fuzz: %s: iter %d: symbolic/concrete disagreement:\n%s",
				s.Name, i, strings.Join(diffs, "\n"))
		}
	}
	return nil
}

// query is one randomly drawn property instance, shared by the
// metamorphic oracles so every variant answers the same question.
type query struct {
	src     string
	sub     network.Prefix
	maxFail int
}

func (s *Scenario) pickQuery(rng *rand.Rand) query {
	nodes := s.Net.Topo.Nodes
	return query{
		src:     nodes[rng.Intn(len(nodes))].Name,
		sub:     network.Prefix{Addr: s.Dsts[rng.Intn(len(s.Dsts))], Len: 32},
		maxFail: rng.Intn(2),
	}
}

// spec states the query as a request: reachability from src to sub.
func (q query) spec() pipeline.Spec {
	return pipeline.Spec{Check: "reachability", Src: q.src, Subnet: q.sub.String(), MaxFailures: q.maxFail}
}

// checkFn is one of core's two doors: a fresh Model.CheckGoal or a
// Session.CheckContext.
type checkFn func(context.Context, *smt.Term, ...*smt.Term) (*core.Result, error)

// freshCheck is m's fresh door, on the model's cached artifact.
func freshCheck(m *core.Model) checkFn {
	return func(ctx context.Context, prop *smt.Term, assumptions ...*smt.Term) (*core.Result, error) {
		return m.CheckGoal(ctx, nil, prop, assumptions...)
	}
}

// answer builds a goal's property on m, answers it through check (a door
// on m) and validates the certification invariant (verified ⇒ checked
// certificate).
func answer(m *core.Model, goal tiered.Goal, check checkFn) (bool, error) {
	prop, assumptions, err := pipeline.Property(m, goal)
	if err != nil {
		return false, err
	}
	res, err := check(context.Background(), prop, assumptions...)
	if err != nil {
		return false, err
	}
	if res.Verified && (res.Certificate == nil || !res.Certificate.Checked) {
		return false, fmt.Errorf("verified verdict without checked certificate")
	}
	return res.Verified, nil
}

// checkOn answers q with a fresh Model.CheckGoal on m.
func checkOn(m *core.Model, q query) (bool, error) {
	goal, err := q.spec().Goal()
	if err != nil {
		return false, err
	}
	return answer(m, goal, freshCheck(m))
}

// PassesParity is the metamorphic pass oracle: the verdict of one
// reachability query must be invariant under the optimization pipeline
// (all passes, none, encoding passes only, term passes only) and under a
// permutation of the model's assert list.
func (s *Scenario) PassesParity(rng *rand.Rand) error {
	q := s.pickQuery(rng)
	pipelines := []string{"all", "none", "hoist,slice", "propagate,coi"}
	verdicts := make([]bool, 0, len(pipelines)+1)
	for _, p := range pipelines {
		m, err := s.Encode(p)
		if err != nil {
			return err
		}
		v, err := checkOn(m, q)
		if err != nil {
			return fmt.Errorf("fuzz: %s: passes=%q src=%s dst=%v: %w", s.Name, p, q.src, q.sub, err)
		}
		verdicts = append(verdicts, v)
	}
	// Assert-order permutation: conjunction is commutative, so a shuffled
	// assert list must not change the verdict (or trip the compiler).
	m, err := s.Encode("all")
	if err != nil {
		return err
	}
	rng.Shuffle(len(m.Asserts), func(i, j int) {
		m.Asserts[i], m.Asserts[j] = m.Asserts[j], m.Asserts[i]
		m.AssertOrigins[i], m.AssertOrigins[j] = m.AssertOrigins[j], m.AssertOrigins[i]
	})
	v, err := checkOn(m, q)
	if err != nil {
		return fmt.Errorf("fuzz: %s: shuffled asserts: %w", s.Name, err)
	}
	verdicts = append(verdicts, v)
	for i := 1; i < len(verdicts); i++ {
		if verdicts[i] != verdicts[0] {
			variant := "shuffled asserts"
			if i < len(pipelines) {
				variant = "passes=" + pipelines[i]
			}
			return fmt.Errorf("fuzz: %s: verdict differs under %s: src=%s dst=%v got %v want %v",
				s.Name, variant, q.src, q.sub, verdicts[i], verdicts[0])
		}
	}
	return nil
}

// PathParity is the execution-path oracle: the same query answered via a
// fresh Model.CheckGoal, an incremental Session.CheckContext (twice, so
// the warm path is covered) and the batch service engine must agree.
func (s *Scenario) PathParity(rng *rand.Rand) error {
	q := s.pickQuery(rng)
	m, err := s.Encode("")
	if err != nil {
		return err
	}
	fresh, err := checkOn(m, q)
	if err != nil {
		return fmt.Errorf("fuzz: %s: fresh check: %w", s.Name, err)
	}

	ms, err := s.Encode("")
	if err != nil {
		return err
	}
	goal, err := q.spec().Goal()
	if err != nil {
		return err
	}
	sess := ms.NewSession()
	for i := 0; i < 2; i++ {
		got, err := answer(ms, goal, sess.CheckContext)
		if err != nil {
			return fmt.Errorf("fuzz: %s: session check %d: %w", s.Name, i, err)
		}
		if got != fresh {
			return fmt.Errorf("fuzz: %s: session check %d disagrees with fresh check: src=%s dst=%v session=%v fresh=%v",
				s.Name, i, q.src, q.sub, got, fresh)
		}
	}

	// The engine is pinned like the models: this oracle compares the three
	// SAT execution paths, so the engine must actually run the solver on
	// the whole network (the graph fast path is covered by TierParity,
	// the assume/guarantee pipeline by ModularParity).
	eng := service.NewEngine(engineOptions(pinned("")))
	defer eng.Close()
	v, err := eng.Verify(context.Background(), &service.Request{Configs: s.configs(), Spec: q.spec()})
	if err != nil {
		return fmt.Errorf("fuzz: %s: service check: %w", s.Name, err)
	}
	if v.Verified && (v.Proof == nil || !v.Proof.Checked) {
		return fmt.Errorf("fuzz: %s: service verdict verified without checked proof", s.Name)
	}
	if v.Verified != fresh {
		return fmt.Errorf("fuzz: %s: service disagrees with fresh check: src=%s dst=%v service=%v fresh=%v",
			s.Name, q.src, q.sub, v.Verified, fresh)
	}
	return nil
}

func (s *Scenario) configs() map[string]string {
	cfgs := make(map[string]string, len(s.Texts))
	for i, t := range s.Texts {
		cfgs[fmt.Sprintf("r%02d.cfg", i)] = t
	}
	return cfgs
}

// RenamingParity is the renaming oracle: consistently renaming routers
// (hostname lines; everything else references routers by address) and
// community values must not change the verdict.
func (s *Scenario) RenamingParity(rng *rand.Rand) error {
	q := s.pickQuery(rng)
	m, err := s.Encode("")
	if err != nil {
		return err
	}
	orig, err := checkOn(m, q)
	if err != nil {
		return fmt.Errorf("fuzz: %s: original: %w", s.Name, err)
	}

	renamed, srcRenamed, err := s.rename(q.src)
	if err != nil {
		return err
	}
	rq := q
	rq.src = srcRenamed
	rm, err := renamed.Encode("")
	if err != nil {
		return err
	}
	got, err := checkOn(rm, rq)
	if err != nil {
		return fmt.Errorf("fuzz: %s: renamed: %w", s.Name, err)
	}
	if got != orig {
		return fmt.Errorf("fuzz: %s: verdict changed under renaming: src=%s dst=%v renamed=%v original=%v",
			s.Name, q.src, q.sub, got, orig)
	}
	return nil
}

// rename rewrites every hostname to a fresh name and every community
// value to a fresh value, rebuilding the scenario from the transformed
// texts. It returns the renamed scenario and the new name of src.
func (s *Scenario) rename(src string) (*Scenario, string, error) {
	names := map[string]string{}
	for i, n := range s.Net.Topo.Nodes {
		names[n.Name] = fmt.Sprintf("ZZ%02d", i)
	}
	texts := make([]string, len(s.Texts))
	for i, t := range s.Texts {
		lines := strings.Split(t, "\n")
		for j, line := range lines {
			rest, ok := strings.CutPrefix(strings.TrimSpace(line), "hostname ")
			if !ok {
				continue
			}
			if nn, ok := names[strings.TrimSpace(rest)]; ok {
				lines[j] = "hostname " + nn
			}
		}
		texts[i] = strings.Join(lines, "\n")
	}
	// Communities: longest-first so no value is clobbered by a prefix of
	// another; fresh values are drawn from a reserved private-ASN range
	// that no fixture uses.
	comms := append([]string(nil), s.Comms...)
	for i := range comms {
		for j := i + 1; j < len(comms); j++ {
			if len(comms[j]) > len(comms[i]) {
				comms[i], comms[j] = comms[j], comms[i]
			}
		}
	}
	for i, cm := range comms {
		fresh := fmt.Sprintf("64900:%d", 1000+i)
		for j := range texts {
			texts[j] = strings.ReplaceAll(texts[j], cm, fresh)
		}
	}
	renamed, err := NewScenario(s.Name+"-renamed", s.SimSafe, texts)
	if err != nil {
		return nil, "", fmt.Errorf("fuzz: %s: rebuild after renaming: %w", s.Name, err)
	}
	nn, ok := names[src]
	if !ok {
		return nil, "", fmt.Errorf("fuzz: %s: src %q not in rename map", s.Name, src)
	}
	return renamed, nn, nil
}

// TierParity is the tiered-verification oracle: the sound graph fast
// path (internal/tiered) and the SAT pipeline answer the same checks
// independently. The fast path may always return residue, but any check
// it claims to decide must carry the solver's verdict — a definitive
// disagreement is a soundness bug in the graph tier. The per-source
// checks are reachability, isolation, waypoint (through the router after
// the source in topology order) and bounded-length (one hop); each
// whole-network check is asked twice: of every destination, and of the
// query's subnet only (on the SAT side, pipeline.Property's DstIn
// assumption).
func (s *Scenario) TierParity(rng *rand.Rand) error {
	_, err := s.tierParity(rng, nil)
	return err
}

// tierCounts counts the goals TierParity held to the solver by the graph
// tier's rule that decided them: the walk's stable-state verdicts inside
// the deterministic fragment and its simulated falsifications outside it.
type tierCounts struct {
	stable, simulated int
}

// tierParity is TierParity, also counting the decided goals that the
// deterministic path and the simulated-falsification rule answered. A
// goal whose key (scenario name and goal) is in seen was held to the
// solver before and is skipped; seen
// records the rest, so a sweep over many seeds of one fixture asks the
// solver each question once. A nil seen skips nothing. The decided goals
// are answered through one solver session on the scenario's model, opened
// by the first of them: the network is blasted once, not once a goal.
func (s *Scenario) tierParity(rng *rand.Rand, seen map[string]bool) (n tierCounts, err error) {
	a := tiered.NewAnalysis(s.Net.Graph)
	m, err := s.Encode("")
	if err != nil {
		return n, err
	}
	var sess *core.Session
	goals := s.TierGoals(rng)
	q := goals[0] // the per-source goals carry the drawn query
	for _, goal := range goals {
		out := a.Decide(goal)
		if !out.Decided {
			continue
		}
		if seen != nil {
			key := fmt.Sprintf("%s %+v", s.Name, goal)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		if sess == nil {
			sess = m.NewSession()
		}
		want, err := answer(m, goal, sess.CheckContext)
		if err != nil {
			return n, fmt.Errorf("fuzz: %s: %s: sat check: %w", s.Name, goal.Check, err)
		}
		if out.Verified != want {
			return n, fmt.Errorf("fuzz: %s: tier disagreement on %s (src=%s via=%s dst=%v scoped=%v maxFail=%d): graph=%v (reason %s) sat=%v",
				s.Name, goal.Check, q.Src, goal.Via, q.Subnet, goal.HasSubnet, q.MaxFailures, out.Verified, out.Reason, want)
		}
		switch out.Rule() {
		case "simulated":
			n.simulated++
		case "stable-state":
			n.stable++
		}
	}
	return n, nil
}

// TierGoals are the goals TierParity asks of the scenario for the query
// it draws from rng: the per-source checks, then each whole-network check
// unscoped and scoped to the query's subnet.
func (s *Scenario) TierGoals(rng *rand.Rand) []tiered.Goal {
	q := s.pickQuery(rng)
	nodes := s.Net.Topo.Nodes
	via := nodes[(s.Net.Topo.Node(q.src).Index+1)%len(nodes)].Name
	goals := []tiered.Goal{
		{Check: "reachability", Src: q.src, Subnet: q.sub, HasSubnet: true, MaxFailures: q.maxFail},
		{Check: "isolation", Src: q.src, Subnet: q.sub, HasSubnet: true, MaxFailures: q.maxFail},
		{Check: "waypoint", Src: q.src, Via: via, Subnet: q.sub, HasSubnet: true, MaxFailures: q.maxFail},
		{Check: "bounded-length", Src: q.src, Hops: 1, Subnet: q.sub, HasSubnet: true, MaxFailures: q.maxFail},
	}
	for _, check := range []string{"loops", "blackholes", "multipath-consistency", "mgmt-reachability"} {
		goals = append(goals, tiered.Goal{Check: check}, tiered.Goal{Check: check, Subnet: q.sub, HasSubnet: true})
	}
	return goals
}

// ModularParity is the assume/guarantee oracle: the pipeline with the
// modular step on answers the same subnet-scoped goals the monolithic
// step answers alone, and the verdicts must agree. Single-component
// scenarios pin the trivial monolithic route; multi-component ones
// (all-eBGP fabrics and triangles) exercise partitioning, contract
// derivation, stratified discharge and composition end to end. When the
// composed verdict stands it is cross-checked against a monolithic run —
// any disagreement is a soundness bug in the composition (the pipeline is
// designed to fall back on residue, never to guess) — and, the options
// being pinned (certified), a composed verified verdict whose components
// ran checks must carry their checked certificate.
func (s *Scenario) ModularParity(rng *rand.Rand) error {
	q := s.pickQuery(rng)
	goals := []tiered.Goal{
		{Check: "reachability", Src: q.src, Subnet: q.sub, HasSubnet: true},
		{Check: "blackholes", Subnet: q.sub, HasSubnet: true},
		{Check: "multipath-consistency", Subnet: q.sub, HasSubnet: true},
	}
	net := &pipeline.Network{Graph: s.Net.Graph}
	mono := pinned("")
	opts := mono
	opts.Modular, opts.Workers = true, 2
	for _, goal := range goals {
		v, err := pipeline.Run(context.Background(), net, goal, opts)
		if err != nil {
			return fmt.Errorf("fuzz: %s: modular %s: %w", s.Name, goal.Check, err)
		}
		if v.Mode != pipeline.ModeModular {
			// Residue or a single component: the verdict IS the monolithic
			// step's, nothing independent to compare.
			continue
		}
		// answer's certification invariant, for a composed verdict: each
		// component check is certified, and the composed verdict carries
		// their summed certificate.
		if c := v.Result.Certificate; v.Result.Verified && v.Modular.Checks > 0 && (c == nil || !c.Checked || c.Fallbacks != 0) {
			return fmt.Errorf("fuzz: %s: composed verified %s without a checked certificate: %+v", s.Name, goal.Check, c)
		}
		mv, err := pipeline.Run(context.Background(), net, goal, mono)
		if err != nil {
			return fmt.Errorf("fuzz: %s: monolithic %s: %w", s.Name, goal.Check, err)
		}
		if v.Result.Verified != mv.Result.Verified {
			return fmt.Errorf("fuzz: %s: modular disagreement on %s (src=%s dst=%v): composed=%v monolithic=%v",
				s.Name, goal.Check, q.src, q.sub, v.Result.Verified, mv.Result.Verified)
		}
	}
	return nil
}

// An edit is one step of ServiceSequenceParity's menu: it rewrites the
// parsed network in place (the texts are printed from it afterwards).
var edits = []struct {
	name  string
	apply func(rng *rand.Rand, routers []*config.Router, q query)
}{
	{"comment-only", func(*rand.Rand, []*config.Router, query) {}},
	{"deny-acl-on-source", func(_ *rand.Rand, routers []*config.Router, q query) {
		// Deny the destination on every interface of the source. ACLs enter
		// the model with the property's instrumentation, not with the
		// compiled control plane: an engine that reuses sessions on a key
		// that misses them answers this step on the un-edited network.
		for _, r := range routers {
			if r.Name != q.src {
				continue
			}
			deny := config.AnyACLEntry(config.Deny)
			deny.DstPrefix = q.sub
			r.ACLs["FUZZDENY"] = &config.ACL{Name: "FUZZDENY",
				Entries: []config.ACLEntry{deny, config.AnyACLEntry(config.Permit)}}
			for _, ifc := range r.Interfaces {
				ifc.OutACL = "FUZZDENY"
			}
		}
	}},
	{"link-cost", func(rng *rand.Rand, routers []*config.Router, _ query) {
		r := routers[rng.Intn(len(routers))]
		if len(r.Interfaces) > 0 {
			r.Interfaces[rng.Intn(len(r.Interfaces))].OSPFCost = 2 + rng.Intn(20)
		}
	}},
	{"null-static", func(rng *rand.Rand, routers []*config.Router, q query) {
		r := routers[rng.Intn(len(routers))]
		r.Statics = append(r.Statics, &config.StaticRoute{Prefix: q.sub, Drop: true})
	}},
	{"local-pref", func(rng *rand.Rand, routers []*config.Router, _ query) {
		// An import policy preferring one BGP session; nothing to edit on a
		// network without one.
		var speakers []*config.Router
		for _, r := range routers {
			if r.BGP != nil && len(r.BGP.Neighbors) > 0 {
				speakers = append(speakers, r)
			}
		}
		if len(speakers) == 0 {
			return
		}
		r := speakers[rng.Intn(len(speakers))]
		r.RouteMaps["FUZZLP"] = &config.RouteMap{Name: "FUZZLP", Clauses: []*config.RouteMapClause{
			{Seq: 10, Action: config.Permit, SetLocalPref: uint32(50 + rng.Intn(400))}}}
		r.BGP.Neighbors[rng.Intn(len(r.BGP.Neighbors))].InMap = "FUZZLP"
	}},
}

// ServiceSequenceParity is the stateful-reuse oracle (the sixth
// family): every other oracle starts from one network and one query,
// while a daemon lives through a sequence of edited networks and reuses
// what it holds — verdict cache, sessions, compiled systems. A seeded
// sequence of edits (the menu above, in a drawn order, after the
// unedited network) goes through one long-lived engine pinned to the
// solver; after each edit reachability, a bounded-length query whose
// hop bound is drawn well past routers+2 (the counter's width) and
// isolation of the same source and subnet are asked (and fault-invariance
// under one failure, a pair goal, after the first and the last step), and
// every verdict must equal a single-shot pipeline.Run on the same texts.
// A step whose edit changed the parse is an edited copy to the engine, so
// its three questions take the three solver paths in turn: a fresh
// solver, the session the second opens, the open session.
func (s *Scenario) ServiceSequenceParity(rng *rand.Rand) error {
	q := s.pickQuery(rng)
	routers := make([]*config.Router, len(s.Texts))
	for i, t := range s.Texts {
		r, err := config.Parse(t)
		if err != nil {
			return fmt.Errorf("fuzz: %s: %w", s.Name, err)
		}
		routers[i] = r
	}
	opts := pinned("")
	eng := service.NewEngine(engineOptions(opts))
	defer eng.Close()
	steps := append([]int{-1}, rng.Perm(len(edits))...)
	for n, ei := range steps {
		name := "unedited"
		if ei >= 0 {
			name = edits[ei].name
			edits[ei].apply(rng, routers, q)
		}
		configs := make(map[string]string, len(routers))
		for i, r := range routers {
			// The step number rides along as a comment, so every step is a
			// new text even where the edit changed nothing a parser keeps.
			configs[fmt.Sprintf("r%02d.cfg", i)] = fmt.Sprintf("! step %d\n%s", n, config.Print(r))
		}
		bounded := q.spec()
		bounded.Check, bounded.Hops = "bounded-length", 1+rng.Intn(4*(len(routers)+2))
		isolation := q.spec()
		isolation.Check = "isolation"
		net, err := pipeline.Load(configs)
		if err != nil {
			return fmt.Errorf("fuzz: %s: step %d (%s): %w", s.Name, n, name, err)
		}
		specs := []pipeline.Spec{q.spec(), bounded, isolation}
		if n == 0 || n == len(steps)-1 {
			specs = append(specs, pipeline.Spec{Check: "fault-invariance", MaxFailures: 1})
		}
		for _, spec := range specs {
			goal, err := spec.Goal()
			if err != nil {
				return err
			}
			want, err := pipeline.Run(context.Background(), net, goal, opts)
			if err != nil {
				return fmt.Errorf("fuzz: %s: step %d (%s) %s: single-shot: %w", s.Name, n, name, spec.Check, err)
			}
			got, err := eng.Verify(context.Background(), &service.Request{Configs: configs, Spec: spec})
			if err != nil {
				return fmt.Errorf("fuzz: %s: step %d (%s) %s: engine: %w", s.Name, n, name, spec.Check, err)
			}
			if got.Verified != want.Result.Verified {
				return fmt.Errorf("fuzz: %s: step %d (%s): long-lived engine disagrees with a single-shot run on %s src=%s dst=%v hops=%d maxFail=%d: engine=%v single-shot=%v",
					s.Name, n, name, spec.Check, q.src, q.sub, spec.Hops, q.maxFail, got.Verified, want.Result.Verified)
			}
		}
	}
	return nil
}

// oracle is one parity check over a scenario; applies is nil for the
// oracles valid on every scenario.
type oracle struct {
	name    string
	applies func(s *Scenario) bool
	run     func(s *Scenario, rng *rand.Rand) error
}

// oracles is the table CheckAll walks: the differential oracle (SimSafe
// scenarios only), the three metamorphic oracles, tiered parity, modular
// parity and the service sequence oracle. Certification runs implicitly
// in the SAT-based ones. A new oracle is one more row.
func oracles(simIters int) []oracle {
	return []oracle{
		{"diff-vs-sim", func(s *Scenario) bool { return s.SimSafe },
			func(s *Scenario, rng *rand.Rand) error { return s.DiffVsSim(rng, simIters) }},
		{"passes-parity", nil, (*Scenario).PassesParity},
		{"path-parity", nil, (*Scenario).PathParity},
		{"renaming-parity", nil, (*Scenario).RenamingParity},
		{"tier-parity", nil, (*Scenario).TierParity},
		{"modular-parity", nil, (*Scenario).ModularParity},
		{"service-sequence-parity", nil, (*Scenario).ServiceSequenceParity},
	}
}

// CheckAll runs every oracle valid for the scenario, in table order.
func (s *Scenario) CheckAll(rng *rand.Rand, simIters int) error {
	for _, o := range oracles(simIters) {
		if o.applies != nil && !o.applies(s) {
			continue
		}
		if err := o.run(s, rng); err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
	}
	return nil
}
