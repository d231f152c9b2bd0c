package core

import (
	"repro/internal/obs"
	"repro/internal/obs/cost"
	"repro/internal/sat"
)

// Histogram bounds for the cost metrics: work units span request scales
// from trivial incremental checks to multi-minute monoliths; byte bounds
// cover clause databases from toy to saturated.
var (
	workUnitBounds = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	costByteBounds = []float64{1 << 10, 1 << 14, 1 << 17, 1 << 20, 1 << 24, 1 << 27, 1 << 30}
)

// RecordSolverMetrics folds a finished query into a trace: the solver's
// counters, the formula gauges and the LBD histogram from the result, the
// latency distributions from its times, and the deterministic cost —
// monotonic counters for Prometheus rate() arithmetic plus per-query
// histograms — from ledger, the tree that prices the query (the result's
// own, or the job tree the service roots it in with the session set-up).
// It is the single implementation behind every Prometheus surface —
// cmd/minesweeper's -prom file and the daemon's /metrics endpoint — so
// the exposition stays identical across them.
func RecordSolverMetrics(tr *obs.Trace, res *Result, ledger *cost.Node) {
	w := ledger.Total()
	tr.Add("solver.work_units", w.Units())
	tr.Add("solver.clause_db_bytes", w.ClauseDBBytes)
	tr.Add("solver.proof_bytes", w.ProofBytes)
	tr.ObserveBounds("solver.query_units", float64(w.Units()), workUnitBounds)
	tr.ObserveBounds("solver.query_db_bytes", float64(w.ClauseDBBytes), costByteBounds)
	// Per-phase latency distributions, so the Prometheus surface carries
	// p50/p90/p99 of solve and end-to-end check time (the quantile gauges
	// the exporter derives from these buckets).
	tr.ObserveBounds("latency.check_ms", durMs(res.Elapsed), obs.LatencyMsBounds)
	if res.SATVars == 0 {
		// The graph tier answered: no formula, no search, nothing below.
		return
	}
	tr.ObserveBounds("latency.solve_ms", durMs(res.SolveElapsed), obs.LatencyMsBounds)
	st := res.Stats
	tr.Add("solver.conflicts", st.Conflicts)
	tr.Add("solver.decisions", st.Decisions)
	tr.Add("solver.propagations", st.Propagations)
	tr.Add("solver.learned", st.Learned)
	tr.Add("solver.deleted", st.Deleted)
	tr.Add("solver.restarts", st.Restarts)
	tr.Add("solver.simplified_clauses", st.Simplified)
	tr.Add("solver.strengthened_literals", st.Strengthened)
	tr.Gauge("formula.sat_vars", float64(res.SATVars))
	tr.Gauge("formula.sat_clauses", float64(res.SATClauses))
	// Bucket i of the solver histogram counts learned clauses with
	// LBD == i+1; the last bucket absorbs everything above.
	bounds := make([]float64, sat.LBDBuckets)
	counts := make([]int64, sat.LBDBuckets)
	var sum float64
	var n int64
	for i, c := range st.LBDHist {
		bounds[i] = float64(i + 1)
		counts[i] = c
		sum += float64(i+1) * float64(c)
		n += c
	}
	if n > 0 {
		tr.SetHist("solver.lbd", bounds, counts, sum, n)
	}
	tr.SampleMem()
}
