package service

import (
	"time"

	"repro/internal/pipeline"
)

// Verdict is the JSON answer to one verification job: the pipeline's
// report — the same object the minesweeper CLI prints with -json — plus
// the job's identity and its cache and budget state.
type Verdict struct {
	JobID string `json:"job_id"`
	pipeline.Report
	// Cached is true when the verdict was answered from the result
	// cache without touching the solver. Cached verdicts carry no cost
	// ledger: the work was paid by the original job.
	Cached bool `json:"cached"`
	// Budget is present exactly when the job was cancelled for exceeding
	// a service budget (Options.WorkBudget / Options.MemBudgetBytes); the
	// verdict is then neither verified nor falsified — the search was cut
	// short — and Verified is false.
	Budget *BudgetInfo `json:"budget_exceeded,omitempty"`
}

func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// cachedCopy stamps a cached verdict for a new job: same answer, new job
// id, Cached set.
func (v *Verdict) cachedCopy(jobID string) *Verdict {
	out := *v
	out.JobID = jobID
	out.Cached = true
	// Like origin profiles, the cost ledger stays with the job that paid
	// it; a cache hit never touched the solver.
	out.Cost = nil
	return &out
}
