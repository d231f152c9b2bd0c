package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/pipeline"
)

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
	sum, err := RunSection81(pop, []string{PropMgmtReach, PropLocalEquiv, PropBlackholes})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 10 || len(sum.PerNet) != 10 {
		t.Fatalf("summary %+v", sum)
	}
	for i, n := range pop {
		nc := sum.PerNet[i]
		if got := nc.Results[PropMgmtReach].Violated; got != n.Bugs.HijackableMgmt {
			t.Errorf("%s: hijack found=%v injected=%v", n.Name, got, n.Bugs.HijackableMgmt)
		}
		wantEquiv := n.Bugs.ACLException && len(n.Roles["access"]) >= 2
		if got := nc.Results[PropLocalEquiv].Violated; got != wantEquiv {
			t.Errorf("%s: equiv violated=%v injected=%v", n.Name, got, wantEquiv)
		}
		wantDeep := n.Bugs.DeepDrop && len(n.Cores) > 0 && len(n.Access) > 0
		if got := nc.Results[PropBlackholes].Violated; got != wantDeep {
			t.Errorf("%s: deep drop found=%v injected=%v", n.Name, got, wantDeep)
		}
	}
}

func TestFig8SmallFabric(t *testing.T) {
	f, err := BuildFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, prop := range AllFig8Props() {
		row, err := RunFig8Property(f, prop)
		if err != nil {
			t.Fatalf("%s: %v", prop, err)
		}
		if !row.Verified {
			t.Errorf("%s violated on a clean fabric", prop)
		}
		if row.Elapsed <= 0 {
			t.Errorf("%s: no time recorded", prop)
		}
	}
}

func TestFig8TieredParity(t *testing.T) {
	// Two fabrics over the same pod count: one untiered (pure SAT), one
	// with the graph fast path on. Every row the fast path decides must
	// carry the SAT verdict, and on this fabric it must decide at least
	// the reachability and bounded-length families (5 of 8 rows) — a
	// hit-rate floor so the fast path cannot silently regress to
	// all-residue.
	sat, err := BuildFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := BuildFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	fast.Tiers = "graph,sat"
	hits := 0
	for _, prop := range AllFig8Props() {
		satRow, err := RunFig8Property(sat, prop)
		if err != nil {
			t.Fatalf("%s: %v", prop, err)
		}
		fastRow, err := RunFig8Property(fast, prop)
		if err != nil {
			t.Fatalf("%s tiered: %v", prop, err)
		}
		if fastRow.Verified != satRow.Verified {
			t.Errorf("%s: tiered verdict %v, sat verdict %v (tier %s)",
				prop, fastRow.Verified, satRow.Verified, fastRow.Tier)
		}
		if fastRow.Tier == "graph" {
			hits++
			if fastRow.Elapsed != fastRow.FastPath {
				t.Errorf("%s: graph-tier row elapsed %v != fast-path %v", prop, fastRow.Elapsed, fastRow.FastPath)
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
	var none, both *AblationRow
	for _, cfg := range AblationConfigs() {
		row, err := RunAblation(f, cfg.Name, cfg.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if !row.Verified {
			t.Fatalf("%s: reachability must verify", cfg.Name)
		}
		switch cfg.Name {
		case "none":
			none = row
		case "all":
			both = row
		}
	}
	if none.RecordVars <= both.RecordVars {
		t.Fatalf("optimizations should shrink the formula: %d vs %d", none.RecordVars, both.RecordVars)
	}
	if none.SATClauses <= both.SATClauses {
		t.Fatalf("optimizations should shrink the CNF: %d vs %d", none.SATClauses, both.SATClauses)
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
	f.Certify = true
	hinted := 0
	for _, prop := range AllFig8Props() {
		if prop == Fig8LocalConsist {
			continue // structural: no proof
		}
		row, err := RunFig8Property(f, prop)
		if err != nil {
			t.Fatalf("%s: %v", prop, err)
		}
		if !row.Verified || row.ProofLemmas == 0 {
			t.Fatalf("%s: verified=%v with %d lemmas, want a checked proof", prop, row.Verified, row.ProofLemmas)
		}
		if row.ProofFallbacks != 0 {
			t.Errorf("%s: %d of %d lemmas fell back to search", prop, row.ProofFallbacks, row.ProofLemmas)
		}
		hinted += row.ProofHinted
	}
	if hinted == 0 {
		t.Error("no lemma was verified from hints")
	}

	m, err := f.encode(core.DefaultOptions())
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
		res, err := sess.Check(p, assumptions...)
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
