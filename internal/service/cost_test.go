package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/cost"
)

// TestJobCostLedger pins the job-level cost tree: the session-building
// job carries the one-time setup plus its goal ledger, a session-reusing
// job carries only its goal, and a cache hit carries nothing.
func TestJobCostLedger(t *testing.T) {
	e := newSATTestEngine(t, 1)
	req := &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	}
	v, err := e.Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cost == nil {
		t.Fatal("first job has no cost ledger")
	}
	if v.Cost.Name != "job" {
		t.Fatalf("ledger root %q, want \"job\"", v.Cost.Name)
	}
	if v.Cost.Find("session-setup") == nil {
		t.Fatalf("session-building job's ledger lacks session-setup:\n%+v", v.Cost)
	}
	if v.Cost.Find("goal", "solve") == nil {
		t.Fatal("job ledger lacks goal → solve")
	}
	if db := v.Cost.Total().ClauseDBBytes; db <= 0 {
		t.Fatalf("job ledger has no clause-db bytes (%d)", db)
	}
	if v.Cost.TotalWall() <= 0 {
		t.Fatal("job ledger recorded no wall time")
	}

	// Cache hit: no ledger, like origin profiles.
	v2, err := e.Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Fatal("repeat query not cached")
	}
	if v2.Cost != nil {
		t.Fatal("cached verdict carries a cost ledger")
	}

	// A second property on the same network reuses the session: its
	// ledger prices only its own check, no setup subtree.
	v3, err := e.Verify(context.Background(), &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "loops"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v3.Cost == nil {
		t.Fatal("second job has no cost ledger")
	}
	if v3.Cost.Find("session-setup") != nil {
		t.Fatal("session-reusing job repaid session setup")
	}

	// The engine counters saw the deterministic work (the one fold of a
	// finished result, core.RecordSolverMetrics, names them solver.*).
	if u := e.Trace().Counter("solver.work_units"); u <= 0 {
		t.Fatalf("solver.work_units = %d, want > 0", u)
	}
	if b := e.Trace().Counter("solver.clause_db_bytes"); b <= 0 {
		t.Fatalf("solver.clause_db_bytes = %d, want > 0", b)
	}
}

// TestCostEndpoint serves the ledger over HTTP, both JSON (round-
// trippable into a cost.Node) and the text tree.
func TestCostEndpoint(t *testing.T) {
	e := newSATTestEngine(t, 1)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	v, err := e.Verify(context.Background(), &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + v.JobID + "/cost")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET cost: %d", resp.StatusCode)
	}
	var n cost.Node
	if err := json.NewDecoder(resp.Body).Decode(&n); err != nil {
		t.Fatalf("decode cost tree: %v", err)
	}
	if n.Name != "job" || n.Total().Units() != v.Cost.Total().Units() {
		t.Fatalf("served tree mismatches verdict: %q / %d vs %d",
			n.Name, n.Total().Units(), v.Cost.Total().Units())
	}

	resp2, err := http.Get(srv.URL + "/v1/jobs/" + v.JobID + "/cost?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	buf := make([]byte, 4096)
	k, _ := resp2.Body.Read(buf)
	if text := string(buf[:k]); !strings.Contains(text, "units") || !strings.Contains(text, "job") {
		t.Fatalf("text tree missing expected columns:\n%s", text)
	}

	resp3, err := http.Get(srv.URL + "/v1/jobs/job-999999/cost")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d, want 404", resp3.StatusCode)
	}
}

// TestWorkBudgetExceeded: a 1-unit work budget trips at the first
// progress tick; the job finishes done (not failed) with a
// budget_exceeded verdict naming the costliest subtree, the verdict is
// not cached, and the session keeps answering.
func TestWorkBudgetExceeded(t *testing.T) {
	e := NewEngine(Options{
		Workers: 1, Timeout: 60 * time.Second, Core: core.Options{Tiers: "none"},
		WorkBudget: 1, ProgressEvery: 1,
	})
	t.Cleanup(e.Close)
	req := &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	}
	v, err := e.Verify(context.Background(), req)
	if err != nil {
		t.Fatalf("budget breach must not fail the job: %v", err)
	}
	if v.Budget == nil {
		t.Fatal("no budget_exceeded block on the verdict")
	}
	if v.Budget.Exceeded != "work" {
		t.Fatalf("exceeded %q, want \"work\"", v.Budget.Exceeded)
	}
	if v.Budget.Observed <= v.Budget.Limit {
		t.Fatalf("observed %d <= limit %d", v.Budget.Observed, v.Budget.Limit)
	}
	if v.Verified {
		t.Fatal("budget-cancelled job reported verified")
	}
	if v.Budget.Costliest == "" {
		t.Fatal("budget block names no costliest subtree")
	}
	if v.Cost == nil || v.Cost.Find("goal", "solve") == nil {
		t.Fatalf("budget verdict lacks the partial ledger: %+v", v.Cost)
	}
	if got := e.Trace().Counter("service.budget_exceeded"); got != 1 {
		t.Fatalf("budget_exceeded counter = %d, want 1", got)
	}
	j, ok := e.Job(v.JobID)
	if !ok || j.Status() != StatusDone {
		t.Fatalf("budget-cancelled job status %v, want done", j.Status())
	}

	// Not cached: the identical query must trip again, proving both the
	// cache skip and that the session survived the interrupt.
	v2, err := e.Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Cached || v2.Budget == nil {
		t.Fatalf("repeat query: cached=%v budget=%v, want fresh budget trip",
			v2.Cached, v2.Budget)
	}

	// A pair goal's check is bounded too: fault-invariance on an audit
	// network takes thousands of conflicts on a model of its own.
	v3, err := e.Verify(context.Background(), &Request{Configs: auditConfigs(t, 7), Spec: Spec{Check: "fault-invariance"}})
	if err != nil || v3.Budget == nil || v3.Budget.Exceeded != "work" || v3.Verified {
		t.Fatalf("fault-invariance: %+v, %v; want an unverified work breach", v3, err)
	}

	// And so is the local-equivalence sweep, as one check from its start:
	// A and B of examples/equivalence are equivalent, which its queries
	// show in 76 conflicts. Neither answer is cached.
	eq := &Request{Configs: exampleConfigs(t, "equivalence"), Spec: Spec{Check: "equivalence", Pair: "A,B"}}
	for i := 0; i < 2; i++ {
		v4, err := e.Verify(context.Background(), eq)
		if err != nil || v4.Budget == nil || v4.Budget.Exceeded != "work" || v4.Verified || v4.Cached {
			t.Fatalf("equivalence, ask %d: %+v, %v; want an unverified, uncached work breach", i+1, v4, err)
		}
	}
}

// exampleConfigs reads the configurations of one examples/ directory.
func exampleConfigs(t *testing.T, name string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", name, "*.cfg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("examples/%s: %v", name, err)
	}
	cfgs := make(map[string]string, len(paths))
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[filepath.Base(p)] = string(text)
	}
	return cfgs
}

// TestMemBudgetExceeded: an absurdly small memory budget trips on the
// live-heap check, and the reserved-bytes gauge returns to zero once the
// engine is idle.
func TestMemBudgetExceeded(t *testing.T) {
	e := NewEngine(Options{
		Workers: 1, Timeout: 60 * time.Second, Core: core.Options{Tiers: "none"},
		MemBudgetBytes: 1, ProgressEvery: 1,
	})
	t.Cleanup(e.Close)
	v, err := e.Verify(context.Background(), &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Budget == nil || v.Budget.Exceeded != "mem" {
		t.Fatalf("budget block %+v, want mem breach", v.Budget)
	}
	if g, ok := e.Trace().GaugeValue("service.reserved_bytes"); !ok || g != 0 {
		t.Fatalf("reserved_bytes gauge %v after idle, want 0", g)
	}
}
