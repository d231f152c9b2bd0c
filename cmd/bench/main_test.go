package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/netgen"
	"repro/internal/pipeline"
)

// requirePaths marshals r as its artifact does and fails for each jq-style
// key path (".a.b") that is absent or null in it. It returns the object.
func requirePaths(t *testing.T, name string, r row, paths ...string) map[string]any {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(b, &obj); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if lookup(obj, p) == nil {
			t.Errorf("%s row: %s is absent or null", name, p)
		}
	}
	return obj
}

// lookup reads a jq-style key path of a decoded row: nil when absent.
func lookup(obj map[string]any, path string) any {
	var cur any = obj
	for _, key := range strings.Split(strings.TrimPrefix(path, "."), ".") {
		m, _ := cur.(map[string]any)
		cur = m[key]
	}
	return cur
}

// TestRowShape holds the rows of BENCH_fig8.json, BENCH_modular.json,
// BENCH_fig7.json and BENCH_ablation.json to every key path CI's jq
// projections read (cost-gate, certify, modular-parity, the Figure 7 and
// ablation gates), so that a renamed column fails here and not only in
// CI. The modular row is a pods-4 one: at pods-2 every component is its
// own class, and a Report omits a zero alias count. The fig7 rows are
// those of an audit network with an ACL exception, so its local
// equivalence is falsified and names the difference.
func TestRowShape(t *testing.T) {
	f2, err := harness.BuildFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	var opts pipeline.Options
	opts.Core = core.Options{Tiers: "none", Certify: true}
	fig8, err := fig8Row(f2, harness.Fig8NoBlackholes, opts)
	if err != nil {
		t.Fatal(err)
	}
	requirePaths(t, "fig8", fig8, ".pods", ".check", ".verified", ".sat_vars", ".sat_clauses",
		".solve_ms", ".solver.conflicts", ".solver.decisions", ".solver.propagations",
		".cost.work.clause_db_bytes", ".cost.work.proof_bytes",
		".proof.fallbacks", ".proof.lemmas", ".proof.hinted", ".proof.check_ms")

	f4, err := harness.BuildFabric(4)
	if err != nil {
		t.Fatal(err)
	}
	mod, ok, err := modularRow(f4, harness.Fig8EqualLengthPod, "", 2, 4)
	if err != nil || !ok {
		t.Fatalf("modular row: ok=%v, %v", ok, err)
	}
	obj := requirePaths(t, "modular", mod, ".pods", ".check", ".mode", ".verified",
		".component_classes", ".component_checks", ".alias_hits", ".peak_terms",
		".sat_vars", ".mono_sat_vars", ".agree")
	if _, isCount := obj["blame"].(float64); !isCount {
		t.Errorf("modular row: blame is %T, want the count", obj["blame"])
	}

	n, err := netgen.Audit(7)
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := fig7Rows(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig7) != len(harness.AllSection81Props()) {
		t.Fatalf("%d fig7 rows, want one per §8.1 check", len(fig7))
	}
	// A Report omits a zero count (drops-at-edge goals that refute
	// themselves blast no clauses), so each count path must be on one of
	// the network's rows; the key, the verdict and the ledger are on all.
	counts := []string{".sat_vars", ".sat_clauses", ".solver.conflicts", ".solver.decisions",
		".solver.propagations", ".solver.learned", ".solver.restarts"}
	seen := map[string]bool{}
	for _, r := range fig7 {
		obj := requirePaths(t, "fig7 "+r.Check, r, ".network", ".routers", ".lines", ".check",
			".verified", ".cost.work")
		for _, p := range counts {
			seen[p] = seen[p] || lookup(obj, p) != nil
		}
		if r.Check == harness.PropLocalEquiv {
			if r.Verified {
				t.Errorf("%s: local equivalence verified, want the ACL exception found", n.Name)
			}
			requirePaths(t, "fig7 "+r.Check, r, ".difference")
		}
	}
	for _, p := range counts {
		if !seen[p] {
			t.Errorf("fig7 rows: no row of %s carries %s", n.Name, p)
		}
	}

	opts = pipeline.Options{}
	opts.Core.Passes = "all"
	abl, err := ablationRow(f2, opts)
	if err != nil {
		t.Fatal(err)
	}
	requirePaths(t, "ablation", abl, ".pods", ".routers", ".check", ".passes", ".record_vars",
		".sat_vars", ".sat_clauses", ".solver.conflicts")
}
