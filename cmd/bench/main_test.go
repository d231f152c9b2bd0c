package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
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
		var cur any = obj
		for _, key := range strings.Split(strings.TrimPrefix(p, "."), ".") {
			m, _ := cur.(map[string]any)
			cur = m[key]
		}
		if cur == nil {
			t.Errorf("%s row: %s is absent or null", name, p)
		}
	}
	return obj
}

// TestRowShape holds the rows of BENCH_fig8.json and BENCH_modular.json
// to every key path CI's jq projections read (cost-gate, certify,
// modular-parity), so that a renamed column fails here and not only in
// CI. The modular row is a pods-4 one: at pods-2 every component is its
// own class, and a Report omits a zero alias count.
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
}
