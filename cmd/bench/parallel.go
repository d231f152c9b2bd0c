package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/psolve"
)

// parallelJSON is one row of the BENCH_parallel.json artifact: the same
// Figure 8 query answered under each parallel solve strategy, so the
// speedup (and the certified-proof overhead) can be compared across
// revisions.
type parallelJSON struct {
	Pods      int     `json:"pods"`
	Routers   int     `json:"routers"`
	Property  string  `json:"property"`
	Mode      string  `json:"mode"`
	Workers   int     `json:"workers"`
	Ms        float64 `json:"ms"`
	SolveMs   float64 `json:"solve_ms"`
	Verified  bool    `json:"verified"`
	Conflicts int64   `json:"conflicts"`
	// Units is the adopted search's work (decisions+propagations+
	// conflicts); SpentUnits totals every task in the cost ledger, so
	// SpentUnits−Units is the work the losing racers/cubes burned.
	Units        int64   `json:"work_units,omitempty"`
	SpentUnits   int64   `json:"spent_units,omitempty"`
	ProofSteps   int     `json:"proof_steps,omitempty"`
	ProofCheckMs float64 `json:"proof_check_ms,omitempty"`
	// CertifyOverhead is proof-check time over solve time; CI holds the
	// aggregate below 0.25 on rows with real search (parallel-parity job).
	CertifyOverhead float64 `json:"certify_overhead,omitempty"`
}

// runParallel measures the parallel solve engine: every (non-structural)
// Figure 8 row is answered sequentially, by a portfolio race, and by
// cube-and-conquer, with identical verdicts required. The summary lines
// give the aggregate solve-time speedup per strategy and — with -certify
// — the aggregate proof-check overhead relative to solve time.
func runParallel(pods []int, props []string, jsonOut, passes string, workers int, certify bool) error {
	modes := []string{psolve.ModeOff, psolve.ModePortfolio, psolve.ModeCubes}
	fmt.Printf("# parallel solve: Figure 8 rows per strategy (workers=%d)\n", workers)
	fmt.Println("pods\trouters\tproperty\tmode\tms\tsolve_ms\tverified\tconflicts\tunits\tspent_units\tproof_steps\tproof_check_ms")
	var art []parallelJSON
	totalSolve := map[string]time.Duration{}
	totalCheck := map[string]time.Duration{}
	verdicts := map[string]bool{}
	for _, k := range pods {
		f, err := harness.BuildFabric(k)
		if err != nil {
			return err
		}
		f.Passes = passes
		f.Certify = certify
		f.ParallelWorkers = workers
		for _, prop := range props {
			if prop == harness.Fig8LocalConsist {
				continue // structural: no CDCL search to parallelize
			}
			for _, mode := range modes {
				if mode == psolve.ModeOff {
					f.Parallel = ""
				} else {
					f.Parallel = mode
				}
				row, err := harness.RunFig8Property(f, prop)
				if err != nil {
					return fmt.Errorf("pods=%d prop=%s mode=%s: %w", k, prop, mode, err)
				}
				key := fmt.Sprintf("%d/%s", k, prop)
				if mode == psolve.ModeOff {
					verdicts[key] = row.Verified
				} else if row.Verified != verdicts[key] {
					return fmt.Errorf("pods=%d prop=%s: mode %s answered verified=%v, sequential answered %v",
						k, prop, mode, row.Verified, verdicts[key])
				}
				toMs := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
				units := row.Decisions + row.Propagations + row.Conflicts
				fmt.Printf("%d\t%d\t%s\t%s\t%.1f\t%.1f\t%v\t%d\t%d\t%d\t%d\t%.1f\n",
					row.Pods, row.Routers, row.Property, mode,
					toMs(row.Elapsed), toMs(row.Solve), row.Verified, row.Conflicts,
					units, row.SpentUnits,
					row.ProofSteps, toMs(row.ProofCheck))
				jr := parallelJSON{
					Pods: row.Pods, Routers: row.Routers, Property: row.Property,
					Mode: mode, Workers: workers,
					Ms: toMs(row.Elapsed), SolveMs: toMs(row.Solve),
					Verified: row.Verified, Conflicts: row.Conflicts,
					Units: units, SpentUnits: row.SpentUnits,
					ProofSteps: row.ProofSteps, ProofCheckMs: toMs(row.ProofCheck),
				}
				if row.Solve > 0 && row.ProofCheck > 0 {
					jr.CertifyOverhead = float64(row.ProofCheck) / float64(row.Solve)
				}
				art = append(art, jr)
				totalSolve[mode] += row.Solve
				totalCheck[mode] += row.ProofCheck
			}
		}
	}
	for _, mode := range modes[1:] {
		if totalSolve[mode] > 0 {
			fmt.Printf("# aggregate solve speedup %s: %.2fx (%.1fms -> %.1fms, workers=%d)\n",
				mode, float64(totalSolve[psolve.ModeOff])/float64(totalSolve[mode]),
				float64(totalSolve[psolve.ModeOff].Microseconds())/1000,
				float64(totalSolve[mode].Microseconds())/1000, workers)
		}
	}
	if certify {
		for _, mode := range modes {
			if totalSolve[mode] > 0 {
				fmt.Printf("# certify overhead %s: %.2fx solve (%.1fms check / %.1fms solve)\n",
					mode, float64(totalCheck[mode])/float64(totalSolve[mode]),
					float64(totalCheck[mode].Microseconds())/1000,
					float64(totalSolve[mode].Microseconds())/1000)
			}
		}
	}
	if jsonOut == "" {
		return nil
	}
	f, err := os.Create(jsonOut)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d rows)\n", jsonOut, len(art))
	return nil
}
