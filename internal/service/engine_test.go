package service

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/obs/stream"
	"repro/internal/pipeline"
	"repro/internal/testnets"
	"repro/internal/topogen"
)

func chainConfigs(n int) map[string]string {
	texts := testnets.OSPFChainTexts(n)
	cfgs := make(map[string]string, len(texts))
	for i, t := range texts {
		cfgs[fmt.Sprintf("r%d.cfg", i+1)] = t
	}
	return cfgs
}

func figure2Configs() map[string]string {
	texts := testnets.Figure2Texts()
	cfgs := make(map[string]string, len(texts))
	for i, t := range texts {
		cfgs[fmt.Sprintf("r%d.cfg", i+1)] = t
	}
	return cfgs
}

func newTestEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	e := NewEngine(Options{Workers: workers, Timeout: 60 * time.Second})
	t.Cleanup(e.Close)
	return e
}

// newSATTestEngine disables the graph fast path, for tests that pin the
// solver pipeline's own behavior (session reuse, decoded counterexamples,
// proof plumbing).
func newSATTestEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	e := NewEngine(Options{Workers: workers, Timeout: 60 * time.Second, Core: core.Options{Tiers: "none"}})
	t.Cleanup(e.Close)
	return e
}

func TestEngineVerifiesAndCaches(t *testing.T) {
	e := newTestEngine(t, 2)
	req := &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	}
	v, err := e.Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Verified || v.Cached {
		t.Fatalf("first query: verified=%v cached=%v, want true/false", v.Verified, v.Cached)
	}
	if sum := v.FastPathMs + v.EncodeMs + v.SimplifyMs + v.SolveMs + v.CertifyMs; v.ElapsedMs != sum {
		t.Fatalf("elapsed %v != phase sum %v", v.ElapsedMs, sum)
	}
	if v.Tier != "graph" {
		t.Fatalf("chain reachability should hit the graph fast path, got tier %q", v.Tier)
	}

	// The identical query must come from the cache without solving.
	checksBefore := e.Trace().Counter("service.session_checks")
	v2, err := e.Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached || !v2.Verified {
		t.Fatalf("repeat query: cached=%v verified=%v, want true/true", v2.Cached, v2.Verified)
	}
	if v2.JobID == v.JobID {
		t.Fatal("cached verdict must carry the new job id")
	}
	if got := e.Trace().Counter("service.session_checks"); got != checksBefore {
		t.Fatalf("cache hit ran the solver: checks %d → %d", checksBefore, got)
	}
	if hits := e.Trace().Counter("service.cache_hits"); hits != 1 {
		t.Fatalf("cache_hits=%d, want 1", hits)
	}
}

func TestEngineSessionReuseAcrossProperties(t *testing.T) {
	e := newSATTestEngine(t, 1)
	cfgs := chainConfigs(3)
	specs := []Spec{
		{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
		{Check: "reachability", Src: "R3", Subnet: "10.100.1.0/24"},
		{Check: "bounded-length", Src: "R1", Subnet: "10.100.3.0/24", Hops: 4},
		{Check: "loops"},
		{Check: "blackholes"},
	}
	for _, s := range specs {
		if _, err := e.Verify(context.Background(), &Request{Configs: cfgs, Spec: s}); err != nil {
			t.Fatalf("%s: %v", s.Check, err)
		}
	}
	tr := e.Trace()
	if builds := tr.Counter("service.session_builds"); builds != 1 {
		t.Fatalf("session_builds=%d, want 1 (one network)", builds)
	}
	if reuse := tr.Counter("service.session_reuse"); reuse != int64(len(specs)-1) {
		t.Fatalf("session_reuse=%d, want %d", reuse, len(specs)-1)
	}
	if checks := tr.Counter("service.session_checks"); checks != int64(len(specs)) {
		t.Fatalf("session_checks=%d, want %d", checks, len(specs))
	}
}

func TestEngineCompileAliasing(t *testing.T) {
	e := newSATTestEngine(t, 1)
	spec := Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"}
	cfgs := chainConfigs(3)
	v1, err := e.Verify(context.Background(), &Request{Configs: cfgs, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}

	// A comment-only edit changes the config hash but parses and compiles
	// to an identical constraint system: the engine must recognize the
	// compiled hash and reuse the first network's session.
	edited := make(map[string]string, len(cfgs))
	for n, text := range cfgs {
		edited[n] = "! cosmetic comment\n" + text
	}
	v2, err := e.Verify(context.Background(), &Request{Configs: edited, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Cached {
		t.Fatal("distinct config hash must miss the verdict cache")
	}
	if v1.Verified != v2.Verified {
		t.Fatalf("aliased session changed the verdict: %v vs %v", v1.Verified, v2.Verified)
	}
	tr := e.Trace()
	if compiles := tr.Counter("service.compiles"); compiles != 2 {
		t.Fatalf("service.compiles=%d, want 2 (each config set compiles once)", compiles)
	}
	if reuse := tr.Counter("service.compile_reuse"); reuse != 1 {
		t.Fatalf("service.compile_reuse=%d, want 1", reuse)
	}
	if builds := tr.Counter("service.session_builds"); builds != 1 {
		t.Fatalf("session_builds=%d, want 1 (aliased network shares the session)", builds)
	}
}

func TestEngineCounterexample(t *testing.T) {
	e := newSATTestEngine(t, 1)
	// One hop is not enough to cross a 3-router chain: expect a violated
	// property with a decoded counterexample.
	v, err := e.Verify(context.Background(), &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "bounded-length", Src: "R1", Subnet: "10.100.3.0/24", Hops: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Verified {
		t.Fatal("hop bound 1 across a 3-chain must be violated")
	}
	cex := v.Counterexample
	if cex == nil {
		t.Fatal("violated verdict without counterexample")
	}
	if !strings.HasPrefix(cex.Packet.DstIP, "10.100.3.") {
		t.Fatalf("counterexample packet %q should target the 10.100.3.0/24 subnet", cex.Packet.DstIP)
	}
	if len(cex.Forwarding) == 0 {
		t.Fatal("counterexample is missing the forwarding state")
	}
}

// TestEngineParallelNetworks: three distinct networks asked at once on
// four workers each build, encode and open a session of their own. The
// graph tier is off, so every question reaches the solver and encodes its
// network.
func TestEngineParallelNetworks(t *testing.T) {
	e := newSATTestEngine(t, 4)
	nets := []map[string]string{chainConfigs(3), chainConfigs(4), figure2Configs()}
	specs := []Spec{
		{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
		{Check: "reachability", Src: "R1", Subnet: "10.100.4.0/24"},
		{Check: "reachability", Src: "R1", Subnet: "10.3.3.0/24"},
	}
	jobs := make([]*Job, 0, len(nets))
	for i := range nets {
		j, err := e.Submit(&Request{Configs: nets[i], Spec: specs[i]})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		<-j.Done()
		if err := j.Err(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		v := j.Verdict()
		if v == nil {
			t.Fatalf("job %d: no verdict", i)
		}
		// The chains are verified; Figure2's reachability is hijackable
		// under a free environment, so only demand a decoded answer.
		if i < 2 && !v.Verified {
			t.Fatalf("job %d: %+v", i, v)
		}
		if !v.Verified && v.Counterexample == nil {
			t.Fatalf("job %d: violated without counterexample", i)
		}
	}
	tr := e.Trace()
	if builds := tr.Counter("service.session_builds"); builds != 3 {
		t.Fatalf("session_builds=%d, want 3 (three distinct networks)", builds)
	}
	if c, s := tr.Counter("service.compiles"), tr.Counter("service.session_checks"); c != 3 || s != 3 {
		t.Fatalf("compiles=%d session_checks=%d, want 3 and 3", c, s)
	}
}

// TestGraphTierNetworkIsNeverEncoded: a network whose every question the
// graph tier answers is graphed and never encoded — no compile, no
// session. Its first question the tier leaves encodes it and opens its
// session.
func TestGraphTierNetworkIsNeverEncoded(t *testing.T) {
	e := newTestEngine(t, 1)
	cfgs := chainConfigs(3)
	for _, s := range []Spec{
		{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
		{Check: "bounded-length", Src: "R3", Subnet: "10.100.1.0/24", Hops: 4},
		{Check: "isolation", Src: "R1", Subnet: "10.100.2.0/24"},
		{Check: "loops"},
		{Check: "blackholes"},
	} {
		v, err := e.Verify(context.Background(), &Request{Configs: cfgs, Spec: s})
		if err != nil {
			t.Fatalf("%s: %v", s.Check, err)
		}
		if v.Tier != "graph" {
			t.Fatalf("%s: tier %q, want a graph-tier answer", s.Check, v.Tier)
		}
	}
	counters := func() [3]int64 {
		tr := e.Trace()
		return [3]int64{tr.Counter("service.compiles"), tr.Counter("service.session_builds"),
			tr.Counter("service.session_checks") + tr.Counter("service.fresh_checks")}
	}
	if got := counters(); got != [3]int64{} {
		t.Fatalf("compiles, session builds, solver checks = %v, want none", got)
	}

	spec := Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24", MaxFailures: 1}
	v, err := e.Verify(context.Background(), &Request{Configs: cfgs, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if v.Tier != "sat" || v.Verified != singleShot(t, cfgs, spec, "none") {
		t.Fatalf("tier %q verified %v, want the solver's answer", v.Tier, v.Verified)
	}
	if got := counters(); got != [3]int64{1, 1, 1} {
		t.Fatalf("compiles, session builds, solver checks = %v, want 1, 1, 1", got)
	}
}

func TestEngineValidation(t *testing.T) {
	e := newTestEngine(t, 1)
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"no-configs", Request{Spec: Spec{Check: "loops"}}, "configs"},
		{"no-check", Request{Configs: chainConfigs(2)}, "check is required"},
		{"unknown-check", Request{Configs: chainConfigs(2), Spec: Spec{Check: "nope"}}, "unknown check"},
		{"missing-src", Request{Configs: chainConfigs(2), Spec: Spec{Check: "reachability", Subnet: "10.0.0.0/8"}}, "requires src"},
		{"bad-subnet", Request{Configs: chainConfigs(2), Spec: Spec{Check: "reachability", Src: "R1", Subnet: "not-a-cidr"}}, "subnet"},
	}
	for _, c := range cases {
		_, err := e.Submit(&c.req)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err=%v, want substring %q", c.name, err, c.want)
		}
	}
	// A src that is not in the network fails at run time, not submit time.
	v, err := e.Verify(context.Background(), &Request{
		Configs: chainConfigs(2),
		Spec:    Spec{Check: "reachability", Src: "R9", Subnet: "10.100.2.0/24"},
	})
	if err == nil || !strings.Contains(err.Error(), "not a router") {
		t.Fatalf("unknown src: verdict=%v err=%v", v, err)
	}
}

func TestEngineJobTimeout(t *testing.T) {
	e := newTestEngine(t, 1)
	// Warm the network, then submit a job with a 1ms budget: it should
	// fail with the deadline error (unless the machine is fast enough to
	// finish anyway), and later jobs on the same session must still work.
	_, err := e.Verify(context.Background(), &Request{
		Configs:   chainConfigs(3),
		Spec:      Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
		TimeoutMs: 0, // engine default
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := e.Submit(&Request{
		Configs:   chainConfigs(3),
		Spec:      Spec{Check: "reachability", Src: "R3", Subnet: "10.100.1.0/24"},
		TimeoutMs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if jerr := j.Err(); jerr != context.DeadlineExceeded {
		// Timing-dependent: on a fast machine the 1ms budget may
		// suffice for a session check. Accept success, reject other
		// errors.
		if jerr != nil {
			t.Fatalf("timeout job: %v", jerr)
		}
	}
	v, err := e.Verify(context.Background(), &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "loops"},
	})
	if err != nil || !v.Verified {
		t.Fatalf("session unusable after timeout: %v %v", v, err)
	}
}

func TestEngineCacheKeySensitivity(t *testing.T) {
	cfgs := chainConfigs(3)
	base := Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"}
	net := configHash(cfgs)
	if cacheKey(net, base) != cacheKey(net, base) {
		t.Fatal("cache key is not deterministic")
	}
	diff := base
	diff.MaxFailures = 1
	if cacheKey(net, base) == cacheKey(net, diff) {
		t.Fatal("environment bound must be part of the cache key")
	}
	other := chainConfigs(4)
	if configHash(cfgs) == configHash(other) {
		t.Fatal("different networks must hash differently")
	}
	// Defaults normalize: hops 0 and hops 4 are the same query.
	a := Spec{Check: "bounded-length", Src: "R1", Subnet: "10.100.3.0/24"}
	b := a
	b.Hops = pipeline.DefaultHops
	if cacheKey(net, a) != cacheKey(net, b) {
		t.Fatal("default hops must normalize into the cache key")
	}
}

// fabricConfigs renders the k-pod all-eBGP fat-tree as a service config
// set; every router is its own AS, so the modular pipeline cuts it into
// singleton components.
func fabricConfigs(t *testing.T, k int) map[string]string {
	t.Helper()
	ft, err := topogen.Generate(k)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make(map[string]string, len(ft.Routers))
	for _, r := range ft.Routers {
		cfgs[r.Name+".cfg"] = config.Print(r)
	}
	return cfgs
}

// auditConfigs prints the §8.1 audit network of the given size.
func auditConfigs(t *testing.T, size int) map[string]string {
	t.Helper()
	g, err := netgen.Audit(size)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make(map[string]string, len(g.Routers))
	for _, r := range g.Routers {
		cfgs[r.Name+".cfg"] = config.Print(r)
	}
	return cfgs
}

func newModularTestEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	e := NewEngine(Options{
		Workers: workers, Timeout: 60 * time.Second,
		Modular: true, Core: core.Options{Tiers: "none", Blame: true},
	})
	t.Cleanup(e.Close)
	return e
}

// TestEngineModularVerdict pins the full fan-out path: a multi-component
// fabric verified by assume/guarantee composition on the engine's own
// worker pool, with isomorphic pods answered by the alias cache rather
// than fresh solver runs.
func TestEngineModularVerdict(t *testing.T) {
	e := newModularTestEngine(t, 4)
	req := &Request{
		Configs: fabricConfigs(t, 4),
		Spec:    Spec{Check: "reachability", Src: "tor-1-0", Subnet: "10.0.0.0/24"},
	}
	v, err := e.Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Verified {
		t.Fatalf("fabric reachability should verify, got %+v", v)
	}
	if v.Mode != pipeline.ModeModular {
		t.Fatalf("mode = %q, want %q (residue %v)", v.Mode, pipeline.ModeModular, v.ModularResidue)
	}
	if v.Components != 20 {
		t.Fatalf("components = %d, want 20 (k=4 fat-tree)", v.Components)
	}
	if v.ComponentClasses == 0 || v.ComponentClasses >= v.Components {
		t.Fatalf("component classes = %d, want isomorphism collapse below %d", v.ComponentClasses, v.Components)
	}
	if v.AliasHits != v.Components-v.ComponentClasses {
		t.Fatalf("alias hits = %d, want components-classes = %d", v.AliasHits, v.Components-v.ComponentClasses)
	}
	if len(v.Blame) == 0 {
		t.Fatal("composed verdict must carry stanza-level blame")
	}
	if got := e.Trace().Counter("service.modular_verdicts"); got != 1 {
		t.Fatalf("modular_verdicts = %d, want 1", got)
	}
	if got := e.Trace().Counter("service.component_alias_hits"); got != int64(v.AliasHits) {
		t.Fatalf("component_alias_hits counter = %d, want %d", got, v.AliasHits)
	}
	if got := e.Trace().Counter("service.component_checks"); got == 0 {
		t.Fatal("component_checks counter not incremented")
	}

	// The composed verdict is cached like any other: the repeat query
	// must not re-run any component check.
	checks := e.Trace().Counter("service.component_checks")
	v2, err := e.Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached || v2.Mode != pipeline.ModeModular {
		t.Fatalf("repeat query: cached=%v mode=%q", v2.Cached, v2.Mode)
	}
	if got := e.Trace().Counter("service.component_checks"); got != checks {
		t.Fatalf("cache hit re-ran component checks: %d → %d", checks, got)
	}
}

// TestEngineModularTimeout pins that a budget expiring mid-composition
// times the job out — it never degrades into a partial or wrong verdict
// — and that the worker pool stays healthy afterwards.
func TestEngineModularTimeout(t *testing.T) {
	e := newModularTestEngine(t, 2)
	j, err := e.Submit(&Request{
		Configs:   fabricConfigs(t, 4),
		Spec:      Spec{Check: "blackholes", Subnet: "10.0.0.0/24"},
		TimeoutMs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if jerr := j.Err(); jerr != nil {
		if jerr != context.DeadlineExceeded {
			t.Fatalf("timed-out modular job: %v, want DeadlineExceeded", jerr)
		}
		if j.Verdict() != nil {
			t.Fatalf("timed-out job must carry no verdict, got %+v", j.Verdict())
		}
		// The flight recorder names the cancellation, and no verdict event
		// was ever emitted for the job.
		var cancelled bool
		for _, ev := range j.Recorder().Events() {
			switch ev.Type {
			case stream.EventJobCancelled:
				cancelled = true
			case stream.EventJobDone:
				t.Fatal("cancelled job emitted a done event")
			}
		}
		if !cancelled {
			t.Fatal("timed-out job never emitted job.cancelled")
		}
	} else if v := j.Verdict(); v == nil || !v.Verified {
		// Timing-dependent: a fast machine may finish inside 1ms, but
		// then the verdict must be the correct one.
		t.Fatalf("fast finish must still be the true verdict, got %+v", v)
	}

	// The pool and the cached partition survive the timeout.
	v, err := e.Verify(context.Background(), &Request{
		Configs: fabricConfigs(t, 4),
		Spec:    Spec{Check: "blackholes", Subnet: "10.0.0.0/24"},
	})
	if err != nil {
		t.Fatalf("engine unusable after modular timeout: %v", err)
	}
	if !v.Verified || v.Mode != pipeline.ModeModular {
		t.Fatalf("post-timeout verdict: verified=%v mode=%q (residue %v)", v.Verified, v.Mode, v.ModularResidue)
	}
}

// TestModularWorkBudget: the work budget bounds each component check of a
// modular job, as it does the monolithic check — the composed verdict's
// component checks take conflicts, so a 1-unit budget trips, the job
// finishes done with a budget_exceeded verdict, and the verdict is not
// cached.
func TestModularWorkBudget(t *testing.T) {
	e := NewEngine(Options{
		Workers: 2, Timeout: 60 * time.Second, Core: core.Options{Tiers: "none"},
		Modular: true, WorkBudget: 1, ProgressEvery: 1,
	})
	t.Cleanup(e.Close)
	req := &Request{
		Configs: fabricConfigs(t, 2),
		Spec:    Spec{Check: "reachability", Src: "tor-1-0", Subnet: "10.0.0.0/24"},
	}
	net, err := pipeline.Load(req.Configs)
	if err != nil {
		t.Fatal(err)
	}
	goal, err := req.Spec.Goal()
	if err != nil {
		t.Fatal(err)
	}
	var opts pipeline.Options
	opts.Core.Tiers, opts.Modular = "none", true
	if pv, err := pipeline.Run(context.Background(), net, goal, opts); err != nil || pv.Mode != pipeline.ModeModular || pv.Result.Stats.Conflicts == 0 {
		t.Fatalf("unbudgeted run: %v, %+v: want a composed verdict whose checks take conflicts", err, pv)
	}
	for i := 0; i < 2; i++ {
		j, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		v := j.Verdict()
		if j.Err() != nil || v == nil || v.Cached || v.Verified || v.Budget == nil || v.Budget.Exceeded != "work" {
			t.Fatalf("request %d: err %v, verdict %+v: want an uncached work breach", i, j.Err(), v)
		}
	}
	if got := e.Trace().Counter("service.budget_exceeded"); got != 2 {
		t.Fatalf("budget_exceeded counter = %d, want 2", got)
	}
}

// TestEngineModularFallback pins the two ways the monolithic pipeline
// answers under Options.Modular: a single-component network is plain
// monolithic (no residue recorded), and an in-vocabulary goal the plan
// cannot compose falls back with the residue named on the verdict.
func TestEngineModularFallback(t *testing.T) {
	e := newModularTestEngine(t, 2)

	// The OSPF chain is one IGP component: no cut, no residue, plain
	// monolithic verdict.
	v, err := e.Verify(context.Background(), &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Verified || v.Mode != pipeline.ModeMonolithic {
		t.Fatalf("chain: verified=%v mode=%q residue=%v, want monolithic with no residue",
			v.Verified, v.Mode, v.ModularResidue)
	}
	if len(v.ModularResidue) != 0 {
		t.Fatalf("single-component residue must not surface, got %v", v.ModularResidue)
	}

	// Failure bounds are outside the compositional fragment: the fabric
	// falls back to the monolithic pipeline and the verdict names why.
	v, err = e.Verify(context.Background(), &Request{
		Configs: fabricConfigs(t, 2),
		Spec:    Spec{Check: "reachability", Src: "tor-1-0", Subnet: "10.0.0.0/24", MaxFailures: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != pipeline.ModeFallback {
		t.Fatalf("maxfail fabric: mode=%q, want %q", v.Mode, pipeline.ModeFallback)
	}
	found := false
	for _, r := range v.ModularResidue {
		if r == "goal-max-failures" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallback residue = %v, want goal-max-failures", v.ModularResidue)
	}
	if got := e.Trace().Counter("service.modular_residue"); got == 0 {
		t.Fatal("modular_residue counter not incremented")
	}
}

// TestEngineDenyACLEditIsNotAliased is the first repro of
// benchmarks/README.md "Found while building": a configuration with an
// added deny ACL compiles to the same constraint system as the one
// without it (ACLs enter with the property's instrumentation), so an
// engine that shares sessions by compiled hash answers the edited
// network on the un-edited model. Sessions are shared by parse instead:
// the edit is a different parse, so it gets its own network.
func TestEngineDenyACLEditIsNotAliased(t *testing.T) {
	e := newSATTestEngine(t, 1)
	spec := Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"}
	cfgs := chainConfigs(3)
	v, err := e.Verify(context.Background(), &Request{Configs: cfgs, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Verified {
		t.Fatal("clean chain: R1 must reach R3's subnet")
	}

	// Deny the destination on every interface of the source.
	r1, err := config.Parse(cfgs["r1.cfg"])
	if err != nil {
		t.Fatal(err)
	}
	deny := config.AnyACLEntry(config.Deny)
	deny.DstPrefix = network.MustParsePrefix(spec.Subnet)
	r1.ACLs["BLOCK"] = &config.ACL{Name: "BLOCK", Entries: []config.ACLEntry{deny, config.AnyACLEntry(config.Permit)}}
	for _, ifc := range r1.Interfaces {
		ifc.OutACL = "BLOCK"
	}
	edited := make(map[string]string, len(cfgs))
	for n, text := range cfgs {
		edited[n] = text
	}
	edited["r1.cfg"] = config.Print(r1)

	v, err = e.Verify(context.Background(), &Request{Configs: edited, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if v.Verified {
		t.Fatal("destination denied on every interface of the source, yet reachability verified: the edited network was answered on the clean one's model")
	}
	if reuse := e.Trace().Counter("service.compile_reuse"); reuse != 0 {
		t.Fatalf("service.compile_reuse=%d, want 0: a semantic edit must not share a network", reuse)
	}
}
