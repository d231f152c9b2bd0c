package service

import (
	"context"
	"sync"

	"repro/internal/obs/cost"
	"repro/internal/sat"
)

// budgetState enforces one job's resource budgets while its solver runs.
// The solver progress hook calls observe every ProgressEvery conflicts;
// the first breach records what was exceeded and cancels the check's
// context, so the solver unwinds through the ordinary interruption path
// instead of running the daemon out of memory or CPU. The engine then
// turns the recorded breach into a budget_exceeded verdict rather than a
// job failure.
//
// observe runs on the goroutine that drives the search (the checking
// worker); the breach record is mutex-protected, so nothing depends on
// which goroutine that is.
type budgetState struct {
	cancel     context.CancelFunc
	workBudget int64 // solver work units (decisions+propagations+conflicts); 0 = unlimited
	memBudget  int64 // live-heap bytes; 0 = unlimited
	base       sat.Stats

	mu       sync.Mutex
	breached string // "" until breach; then "work" or "mem"
	observed int64
	limit    int64
	spent    cost.Work // per-check work delta at breach time
}

// newBudgetState baselines the budgets against the solver's cumulative
// counters at check start — a session's running total, zero for a fresh
// solver — so only this check's spend counts against the limit. A fresh
// check's spend includes loading the network into its solver
// (Options.WorkBudget).
func newBudgetState(cancel context.CancelFunc, work, mem int64, base sat.Stats) *budgetState {
	return &budgetState{cancel: cancel, workBudget: work, memBudget: mem, base: base}
}

// observe checks the budgets against one progress snapshot. p carries the
// solver's cumulative counters; the baseline captured at check start
// converts them into this check's spend.
func (b *budgetState) observe(p sat.Progress) {
	if b == nil {
		return
	}
	spent := cost.Work{
		Conflicts:    p.Conflicts - b.base.Conflicts,
		Decisions:    p.Decisions - b.base.Decisions,
		Propagations: p.Propagations - b.base.Propagations,
		Restarts:     p.Restarts - b.base.Restarts,
	}
	if b.workBudget > 0 {
		if units := spent.Units(); units > b.workBudget {
			b.trip("work", units, b.workBudget, spent)
			return
		}
	}
	if b.memBudget > 0 {
		if heap := int64(cost.HeapLiveBytes()); heap > b.memBudget {
			b.trip("mem", heap, b.memBudget, spent)
		}
	}
}

// trip records the first breach and cancels the check. Later calls (the
// hook may fire again before the solver notices the interrupt) keep the
// first record.
func (b *budgetState) trip(kind string, observed, limit int64, spent cost.Work) {
	b.mu.Lock()
	first := b.breached == ""
	if first {
		b.breached, b.observed, b.limit, b.spent = kind, observed, limit, spent
	}
	b.mu.Unlock()
	if first {
		b.cancel()
	}
}

// breach returns the recorded breach, or nil when the budgets held.
func (b *budgetState) breach() *BudgetInfo {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.breached == "" {
		return nil
	}
	return &BudgetInfo{
		Exceeded: b.breached,
		Observed: b.observed,
		Limit:    b.limit,
		spent:    b.spent,
	}
}

// BudgetInfo is the budget_exceeded block of a cancelled job's verdict:
// which budget tripped, by how much, and the costliest subtree of the
// job's (partial) cost ledger — the place to start trimming.
type BudgetInfo struct {
	// Exceeded names the budget that tripped: "work"
	// (Options.WorkBudget, solver work units) or "mem"
	// (Options.MemBudgetBytes, live-heap bytes).
	Exceeded string `json:"exceeded"`
	// Observed is the measurement that tripped the budget; Limit the
	// configured bound, in the same unit.
	Observed int64 `json:"observed"`
	Limit    int64 `json:"limit"`
	// Costliest names the most expensive subtree of the job's cost
	// ledger at cancellation time, with its work units.
	Costliest      string `json:"costliest,omitempty"`
	CostliestUnits int64  `json:"costliest_units,omitempty"`

	spent cost.Work
}
