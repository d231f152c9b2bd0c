package harness

import (
	"context"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/obs/cost"
	"repro/internal/pipeline"
	"repro/internal/properties"
	"repro/internal/smt"
)

// untiered is the options of a run the solver answers: the graph tier off.
func untiered() pipeline.Options {
	var opts pipeline.Options
	opts.Core.Tiers = "none"
	return opts
}

func TestSection81DetectsInjectedBugs(t *testing.T) {
	// A small population with high bug rates: the verifier's findings
	// must match the generator's ground truth per network.
	p := netgen.DefaultParams()
	p.MinRouters, p.MaxRouters = 5, 10
	p.PHijack, p.PACLException, p.PDeepDrop = 0.5, 0.5, 0.5
	pop, err := netgen.Population(10, 42, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range pop {
		vs, err := CheckNetwork(n, []string{PropMgmtReach, PropLocalEquiv, PropBlackholes})
		if err != nil {
			t.Fatal(err)
		}
		if got := !vs[0].Result.Verified; got != n.Bugs.HijackableMgmt {
			t.Errorf("%s: hijack found=%v injected=%v", n.Name, got, n.Bugs.HijackableMgmt)
		}
		wantEquiv := n.Bugs.ACLException && len(n.Roles["access"]) >= 2
		if got := !vs[1].Result.Verified; got != wantEquiv {
			t.Errorf("%s: equiv violated=%v injected=%v", n.Name, got, wantEquiv)
		}
		wantDeep := n.Bugs.DeepDrop && len(n.Cores) > 0 && len(n.Access) > 0
		if got := !vs[2].Result.Verified; got != wantDeep {
			t.Errorf("%s: deep drop found=%v injected=%v", n.Name, got, wantDeep)
		}
	}
}

// TestLocalEquivalenceRowTotalsItsGoals: the §8.1 local-equivalence row
// folds its goals' results as well as their ledgers, so the row's solver
// counts are its ledger's work, counter for counter, and its SAT size the
// largest goal's. On these audit networks the sweeps reach the solver.
func TestLocalEquivalenceRowTotalsItsGoals(t *testing.T) {
	for _, size := range []int{7, 12, 17, 22} {
		n, err := netgen.Audit(size)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := CheckNetwork(n, []string{PropLocalEquiv})
		if err != nil {
			t.Fatal(err)
		}
		res := vs[0].Result
		work := res.Cost.Total()
		work.ClauseDBBytes, work.ProofBytes = 0, 0
		if stats := cost.FromStats(res.Stats); work != stats || work.Units() == 0 {
			t.Errorf("%s: ledger work %+v, row stats %+v", n.Name, work, stats)
		}
		if res.SATVars == 0 {
			t.Errorf("%s: the row's goals solved, yet it reports no SAT variables", n.Name)
		}
	}
}

func TestFig8SmallFabric(t *testing.T) {
	f, err := BuildFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, prop := range AllFig8Props() {
		v, err := RunFig8Property(f, prop, untiered())
		if err != nil {
			t.Fatalf("%s: %v", prop, err)
		}
		row := v.Result
		if !row.Verified {
			t.Errorf("%s violated on a clean fabric", prop)
		}
		// pods-2 has one core router: local consistency asks its n−1 = 0
		// equivalence goals and takes no time.
		asked := prop != Fig8LocalConsist || len(f.FT.Cores) > 1
		if asked != (row.Elapsed > 0) {
			t.Errorf("%s: elapsed %v, want time exactly when a goal was asked", prop, row.Elapsed)
		}
	}
}

// TestFig8LocalConsistencyAsksGoals: on pods-4 local consistency is the
// n−1 = 3 equivalence goals over the core routers, and its row totals
// their ledgers — a solve phase each, with time and no solver counts.
func TestFig8LocalConsistencyAsksGoals(t *testing.T) {
	f, err := BuildFabric(4)
	if err != nil {
		t.Fatal(err)
	}
	v, err := RunFig8Property(f, Fig8LocalConsist, untiered())
	if err != nil {
		t.Fatal(err)
	}
	row := v.Result
	solve := row.Cost.Find("solve")
	if !row.Verified || solve == nil || solve.Wall <= 0 || row.Elapsed != solve.Wall {
		t.Fatalf("want a verified row timed by its solve phases: %+v", row)
	}
	if row.Stats.Conflicts != 0 || row.SATVars != 0 || !row.Cost.Total().IsZero() {
		t.Errorf("the structural sweep keeps no solver counts: %+v, work %+v", row.Stats, row.Cost.Total())
	}
	for i := 0; i+1 < len(f.FT.Cores); i++ {
		eq, err := core.CheckLocalEquivalence(f.Net.Graph, f.FT.Cores[i], f.FT.Cores[i+1], core.DefaultOptions())
		if err != nil || !eq.Equivalent {
			t.Fatalf("direct sweep %s vs %s: %+v %v", f.FT.Cores[i], f.FT.Cores[i+1], eq, err)
		}
	}
}

func TestFig8TieredParity(t *testing.T) {
	// Every row answered twice: untiered (pure SAT) and with the graph
	// fast path on. Every row the fast path decides must carry the SAT
	// verdict, and on this fabric it must decide at least the
	// reachability and bounded-length families (5 of 8 rows) — a hit-rate
	// floor so the fast path cannot silently regress to all-residue.
	f, err := BuildFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	var fast pipeline.Options
	fast.Core.Tiers = "graph,sat"
	hits := 0
	for _, prop := range AllFig8Props() {
		satV, err := RunFig8Property(f, prop, untiered())
		if err != nil {
			t.Fatalf("%s: %v", prop, err)
		}
		fastV, err := RunFig8Property(f, prop, fast)
		if err != nil {
			t.Fatalf("%s tiered: %v", prop, err)
		}
		satRow, fastRow := satV.Result, fastV.Result
		if fastRow.Verified != satRow.Verified {
			t.Errorf("%s: tiered verdict %v, sat verdict %v (tier %s)",
				prop, fastRow.Verified, satRow.Verified, fastRow.Tier)
		}
		if fastRow.Tier == "graph" {
			hits++
			if fastRow.Elapsed != fastRow.FastPathElapsed {
				t.Errorf("%s: graph-tier row elapsed %v != fast-path %v", prop, fastRow.Elapsed, fastRow.FastPathElapsed)
			}
		}
	}
	if hits < 5 {
		t.Errorf("fast path decided %d of %d fig8 rows, want >= 5", hits, len(AllFig8Props()))
	}
}

func TestAblationMonotone(t *testing.T) {
	f, err := BuildFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	var none, both *pipeline.Verdict
	for _, passes := range AblationPasses() {
		var opts pipeline.Options
		opts.Core.Passes = passes
		v, err := RunAblation(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Result.Verified {
			t.Fatalf("%s: reachability must verify", passes)
		}
		switch passes {
		case "none":
			none = v
		case "all":
			both = v
		}
	}
	if none.Model.NumRecordVars <= both.Model.NumRecordVars {
		t.Fatalf("optimizations should shrink the formula: %d vs %d", none.Model.NumRecordVars, both.Model.NumRecordVars)
	}
	if none.Result.SATClauses <= both.Result.SATClauses {
		t.Fatalf("optimizations should shrink the CNF: %d vs %d", none.Result.SATClauses, both.Result.SATClauses)
	}
}

// TestCertifiedFabricNeverFallsBack holds hint coverage to a count: on
// the pods-2 fabric every lemma of every certified verdict — fresh
// solver and one long-lived session — is verified from the antecedents
// the solver recorded. A clause that reaches the database without a step
// id shows up here as a fallback, not months later as a slow benchmark.
func TestCertifiedFabricNeverFallsBack(t *testing.T) {
	f, err := BuildFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := untiered()
	opts.Core.Certify = true
	hinted := 0
	for _, prop := range AllFig8Props() {
		if prop == Fig8LocalConsist {
			continue // structural: no proof
		}
		v, err := RunFig8Property(f, prop, opts)
		if err != nil {
			t.Fatalf("%s: %v", prop, err)
		}
		row := v.Result
		cert := row.Certificate
		if !row.Verified || cert == nil || cert.Lemmas == 0 {
			t.Fatalf("%s: verified=%v with certificate %+v, want a checked proof", prop, row.Verified, cert)
		}
		if cert.Fallbacks != 0 {
			t.Errorf("%s: %d of %d lemmas fell back to search", prop, cert.Fallbacks, cert.Lemmas)
		}
		hinted += cert.Hinted
	}
	if hinted == 0 {
		t.Error("no lemma was verified from hints")
	}

	m, err := core.Encode(f.Net.Graph, opts.Core)
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession()
	hinted = 0
	for _, prop := range AllFig8Props() {
		goal, ok := Fig8Goal(f, prop)
		if !ok {
			continue // structural: no goal, no proof
		}
		p, assumptions, err := pipeline.Property(m, goal)
		if err != nil {
			t.Fatalf("session %s: %v", prop, err)
		}
		res, err := sess.CheckContext(context.Background(), p, assumptions...)
		if err != nil {
			t.Fatalf("session %s: %v", prop, err)
		}
		if !res.Verified {
			continue
		}
		if res.Certificate == nil || !res.Certificate.Checked {
			t.Fatalf("session %s: verified without a checked proof", prop)
		}
		if res.Certificate.Fallbacks != 0 {
			t.Errorf("session %s: %d of %d lemmas fell back to search", prop, res.Certificate.Fallbacks, res.Certificate.Lemmas)
		}
		hinted += res.Certificate.Hinted
	}
	if hinted == 0 {
		t.Error("session: no lemma was verified from hints")
	}
}

// TestAuditRowsCarrySolverCounts holds the four §8.1 rows, all asked
// through the pipeline, to direct core checks of the same questions on
// one audit network (one with an ACL exception, so local equivalence
// fails): mgmt-reachability, drops-at-edge and fault-invariance carry the
// verdict, conflicts and formula size of the direct check; local
// equivalence the verdict and difference of the direct sweep.
func TestAuditRowsCarrySolverCounts(t *testing.T) {
	n, err := netgen.Audit(7)
	if err != nil {
		t.Fatal(err)
	}
	props := AllSection81Props()
	vs, err := CheckNetwork(n, props)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]*pipeline.Verdict{}
	for i, prop := range props {
		verdicts[prop] = vs[i]
	}
	net, err := pipeline.Build(n.Routers)
	if err != nil {
		t.Fatal(err)
	}
	edge := map[string]bool{}
	for _, r := range append(append([]string(nil), n.Access...), n.Borders...) {
		edge[r] = true
	}
	single := func(build func(*core.Model) *smt.Term) func() (*core.Result, error) {
		return func() (*core.Result, error) {
			m, err := core.Encode(net.Graph, core.DefaultOptions())
			if err != nil {
				return nil, err
			}
			return m.CheckGoal(context.Background(), nil, build(m), m.NoFailures())
		}
	}
	for prop, check := range map[string]func() (*core.Result, error){
		PropMgmtReach: single(properties.ManagementReachable),
		PropBlackholes: single(func(m *core.Model) *smt.Term {
			return properties.DropsAtEdgeOnly(m, func(r string) bool { return edge[r] })
		}),
		PropFaultInvar: func() (*core.Result, error) {
			pair, prop, err := core.FaultInvariance(net.Graph, core.DefaultOptions(), 1)
			if err != nil {
				return nil, err
			}
			silent := pair.Ctx.True()
			for _, e := range net.Graph.Topo.Externals {
				silent = pair.Ctx.And(silent, pair.Ctx.Not(pair.A.Main.Env[e.Name].Valid))
			}
			return pair.Check(context.Background(), prop, silent)
		},
	} {
		want, err := check()
		if err != nil {
			t.Fatal(err)
		}
		got := verdicts[prop].Result
		if got == nil {
			t.Fatalf("%s: no solver Result on the row", prop)
		}
		if got.Verified != want.Verified || got.Stats.Conflicts != want.Stats.Conflicts ||
			got.SATVars != want.SATVars || got.SATClauses != want.SATClauses {
			t.Errorf("%s: row verified=%v conflicts=%d vars=%d clauses=%d, direct check %v/%d/%d/%d",
				prop, got.Verified, got.Stats.Conflicts, got.SATVars, got.SATClauses,
				want.Verified, want.Stats.Conflicts, want.SATVars, want.SATClauses)
		}
		if got.SATVars == 0 {
			t.Errorf("%s: empty formula", prop)
		}
	}

	// The direct sweep, in the row's order: roles by name, adjacent pairs.
	roles := make([]string, 0, len(n.Roles))
	for role := range n.Roles {
		roles = append(roles, role)
	}
	sort.Strings(roles)
	equivalent, difference := true, ""
	for _, role := range roles {
		members := n.Roles[role]
		for i := 0; i+1 < len(members); i++ {
			eq, err := core.CheckLocalEquivalence(net.Graph, members[i], members[i+1], core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !eq.Equivalent && equivalent {
				equivalent, difference = false, members[i]+" vs "+members[i+1]+": "+eq.Difference
			}
		}
	}
	v := verdicts[PropLocalEquiv]
	if equivalent {
		t.Fatalf("%s has an ACL exception; the direct sweep must find a difference", n.Name)
	}
	if v.Result == nil || v.Result.Verified || v.Difference != difference {
		t.Errorf("local-equivalence verdict %+v difference %q, direct sweep difference %q",
			v.Result, v.Difference, difference)
	}
}
