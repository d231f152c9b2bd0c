package psolve

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/sat"
	"repro/internal/sat/drat"
)

// randomCNF loads a random 3-SAT instance near the phase transition into
// a fresh solver with proof logging on.
func randomCNF(rng *rand.Rand, nv int, ratio float64) *sat.Solver {
	s := sat.New()
	s.EnableProof()
	vars := make([]sat.Var, nv)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	n := int(ratio * float64(nv))
	for i := 0; i < n; i++ {
		lits := make([]sat.Lit, 0, 3)
		for len(lits) < 3 {
			lits = append(lits, sat.MkLit(vars[rng.Intn(nv)], rng.Intn(2) == 0))
		}
		s.AddClause(lits...)
	}
	return s
}

// pigeonhole loads PHP(n) — n+1 pigeons, n holes — and returns its
// variables (the cube split candidates). Refuting it needs real search,
// so it keeps many racers busy at once.
func pigeonhole(s *sat.Solver, n int) []sat.Var {
	grid := make([][]sat.Var, n+1)
	var all []sat.Var
	for p := range grid {
		grid[p] = make([]sat.Var, n)
		for h := range grid[p] {
			grid[p][h] = s.NewVar()
			all = append(all, grid[p][h])
		}
	}
	for p := 0; p <= n; p++ {
		lits := make([]sat.Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = sat.MkLit(grid[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(sat.MkLit(grid[p1][h], true), sat.MkLit(grid[p2][h], true))
			}
		}
	}
	return all
}

// allVars returns every variable of the solver, for cube candidates.
func allVars(s *sat.Solver) []sat.Var {
	vars := make([]sat.Var, s.NumVars())
	for i := range vars {
		vars[i] = sat.Var(i)
	}
	return vars
}

// TestPortfolioParityRandom races random instances and requires the
// adopted verdict to match a sequential reference, with every UNSAT
// verdict carrying a checkable proof.
func TestPortfolioParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		template := randomCNF(rng, 10+rng.Intn(10), 4.8)
		ref := template.Clone()
		want, _ := ref.SolveLimited()
		out, err := Solve(context.Background(), template,
			Options{Mode: ModePortfolio, Workers: 4, Seed: int64(i)})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if out.Status != want {
			t.Fatalf("instance %d: portfolio says %v, sequential says %v", i, out.Status, want)
		}
		if out.Status == sat.Unsat {
			if out.Proof == nil {
				t.Fatalf("instance %d: UNSAT without proof", i)
			}
			st, err := drat.Check(out.Proof)
			if err != nil {
				t.Fatalf("instance %d: winner's proof rejected: %v", i, err)
			}
			if st.Fallbacks != 0 {
				t.Fatalf("instance %d: winner's proof lost hints across Clone: %d fallbacks", i, st.Fallbacks)
			}
		}
		if out.Portfolio == nil || out.Portfolio.Workers != 4 {
			t.Fatalf("instance %d: missing or wrong portfolio report: %+v", i, out.Portfolio)
		}
	}
}

// TestCubesParityAndStitchedProof runs cube-and-conquer on random
// instances: verdicts must match the sequential reference, and an
// all-UNSAT fan-out must yield a stitched proof the sequential DRAT
// checker accepts.
func TestCubesParityAndStitchedProof(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stitched := 0
	for i := 0; i < 30; i++ {
		template := randomCNF(rng, 12+rng.Intn(8), 4.8)
		ref := template.Clone()
		want, _ := ref.SolveLimited()
		out, err := Solve(context.Background(), template,
			Options{Mode: ModeCubes, Workers: 4, Candidates: allVars(template),
				ProbeConflicts: 5})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if out.Status != want {
			t.Fatalf("instance %d: cubes say %v, sequential says %v", i, out.Status, want)
		}
		if out.Status == sat.Unsat {
			if out.Proof == nil {
				t.Fatalf("instance %d: UNSAT without proof", i)
			}
			st, err := drat.Check(out.Proof)
			if err != nil {
				t.Fatalf("instance %d: stitched proof rejected: %v", i, err)
			}
			if out.Cube != nil && !out.Cube.ProbeDecided {
				stitched++
				// Only the ¬cube clauses and their merge tree come without
				// hints.
				if st.Fallbacks >= 2*out.Cube.Cubes {
					t.Fatalf("instance %d: %d fallbacks stitching %d cubes", i, st.Fallbacks, out.Cube.Cubes)
				}
			} else if st.Fallbacks != 0 {
				t.Fatalf("instance %d: probe's proof has %d fallbacks", i, st.Fallbacks)
			}
		}
	}
	if stitched == 0 {
		t.Fatal("no run exercised proof stitching (every UNSAT was probe-decided); lower ProbeConflicts")
	}
}

// TestStitchedProofKeepsHints stitches cubes that each need real search,
// so their lemmas resolve on lemmas of the same cube: hints that name
// step ids past the shared prefix and have to be renumbered. Every lemma
// a cube learned must still be verified from its hints; only the ¬cube
// clauses and their merge tree are left to search.
func TestStitchedProofKeepsHints(t *testing.T) {
	template := sat.New()
	template.EnableProof()
	cands := pigeonhole(template, 6)
	prefix := template.Proof().NumSteps()
	out, err := Solve(context.Background(), template,
		Options{Mode: ModeCubes, Workers: 4, Candidates: cands, ProbeConflicts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != sat.Unsat || out.Cube == nil || out.Cube.ProbeDecided {
		t.Fatalf("PHP(6): status %v, cube report %+v, want a stitched refutation", out.Status, out.Cube)
	}
	renumbered := 0
	for i := prefix; i < out.Proof.NumSteps(); i++ {
		for _, h := range out.Proof.Hints(i) {
			if int(h) >= i {
				t.Fatalf("step %d hints at step %d, which comes later", i, h)
			}
			if int(h) >= prefix {
				renumbered++
			}
		}
	}
	if renumbered == 0 {
		t.Fatal("no cube lemma resolved on another; pick a harder instance")
	}
	st, err := drat.Check(out.Proof)
	if err != nil {
		t.Fatalf("stitched proof rejected: %v", err)
	}
	if st.Hinted == 0 || st.Fallbacks >= 2*out.Cube.Cubes {
		t.Fatalf("%d hinted, %d fallbacks stitching %d cubes", st.Hinted, st.Fallbacks, out.Cube.Cubes)
	}
}

// TestWorkersOneDeterminism is the engine-level determinism pin: with one
// worker both strategies degenerate to a single vanilla clone whose
// stats and proof are bit-identical to a sequential solve of a clone.
func TestWorkersOneDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		template := randomCNF(rng, 14, 5.0)
		ref := template.Clone()
		want, _ := ref.SolveLimited()
		for _, mode := range []string{ModePortfolio, ModeCubes} {
			out, err := Solve(context.Background(), template,
				Options{Mode: mode, Workers: 1, Seed: 42, Candidates: allVars(template)})
			if err != nil {
				t.Fatalf("instance %d mode %s: %v", i, mode, err)
			}
			if out.Status != want {
				t.Fatalf("instance %d mode %s: got %v, want %v", i, mode, out.Status, want)
			}
			if out.Stats != ref.Stats {
				t.Fatalf("instance %d mode %s: stats diverge from sequential:\n got %+v\nwant %+v",
					i, mode, out.Stats, ref.Stats)
			}
			if want == sat.Unsat && !reflect.DeepEqual(out.Proof.Steps(), ref.Proof().Steps()) {
				t.Fatalf("instance %d mode %s: proof diverges from sequential", i, mode)
			}
		}
	}
}

// TestRepeatedRacesOneTemplate re-races the same template many times:
// the Interrupt/ResetInterrupt cycle of each round must leave every
// solver reusable, and the template must still answer sequentially at
// the end.
func TestRepeatedRacesOneTemplate(t *testing.T) {
	template := sat.New()
	template.EnableProof()
	pigeonhole(template, 4)
	for round := 0; round < 10; round++ {
		out, err := Solve(context.Background(), template,
			Options{Mode: ModePortfolio, Workers: 8, Seed: int64(round)})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if out.Status != sat.Unsat {
			t.Fatalf("round %d: PHP(4) = %v, want unsat", round, out.Status)
		}
		if _, err := drat.Check(out.Proof); err != nil {
			t.Fatalf("round %d: proof rejected: %v", round, err)
		}
	}
	if st := template.Solve(); st != sat.Unsat {
		t.Fatalf("template no longer usable after races: %v", st)
	}
}

// TestCubesContextCancellation cancels a cube fan-out on a hard instance
// mid-search (mirroring a service job timeout) and requires the context
// error back, with the template left reusable.
func TestCubesContextCancellation(t *testing.T) {
	template := sat.New()
	template.EnableProof()
	cands := pigeonhole(template, 9)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	out, err := Solve(ctx, template,
		Options{Mode: ModeCubes, Workers: 4, Candidates: cands})
	if err == nil {
		t.Fatalf("PHP(9) decided under a 50ms deadline: %v", out.Status)
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	// The template was never interrupted and must still search.
	template.MaxConflicts = template.Stats.Conflicts + 10
	if st, err := template.SolveLimited(); err != sat.ErrBudget {
		t.Fatalf("template unusable after cancelled fan-out: %v / %v", st, err)
	}
}

// TestSerialScheduleTerminates runs both strategies on a degenerate
// one-at-a-time scheduler — the worst case of the service pool's inline
// fallback. Losers must notice the winner's interrupt even though they
// start after it finished, so the run terminates with the right verdict.
func TestSerialScheduleTerminates(t *testing.T) {
	serial := func(tasks []func()) {
		for _, task := range tasks {
			task()
		}
	}
	template := sat.New()
	template.EnableProof()
	cands := pigeonhole(template, 4)
	for _, mode := range []string{ModePortfolio, ModeCubes} {
		out, err := Solve(context.Background(), template,
			Options{Mode: mode, Workers: 4, Candidates: cands, ProbeConflicts: 5,
				Schedule: serial})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if out.Status != sat.Unsat {
			t.Fatalf("mode %s: PHP(4) = %v, want unsat", mode, out.Status)
		}
		if _, err := drat.Check(out.Proof); err != nil {
			t.Fatalf("mode %s: proof rejected: %v", mode, err)
		}
	}
}

// TestNoGoroutineLeak runs decided, cancelled and raced solves and then
// requires the goroutine count to settle back to the baseline: every
// racer and cancellation watcher must be joined by the time Solve
// returns.
func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 5; i++ {
		template := randomCNF(rng, 14, 5.0)
		if _, err := Solve(context.Background(), template,
			Options{Mode: ModePortfolio, Workers: 8, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := Solve(context.Background(), template,
			Options{Mode: ModeCubes, Workers: 4, Candidates: allVars(template),
				ProbeConflicts: 5}); err != nil {
			t.Fatal(err)
		}
	}
	hard := sat.New()
	cands := pigeonhole(hard, 9)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err := Solve(ctx, hard, Options{Mode: ModeCubes, Workers: 8, Candidates: cands})
	cancel()
	if err == nil {
		t.Fatal("PHP(9) decided under a 20ms deadline")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestModeValidation pins the mode vocabulary.
func TestModeValidation(t *testing.T) {
	for _, m := range []string{"", ModeOff, ModePortfolio, ModeCubes, ModeAuto} {
		if !ValidMode(m) {
			t.Errorf("ValidMode(%q) = false", m)
		}
	}
	if ValidMode("racing") {
		t.Error(`ValidMode("racing") = true`)
	}
	if Enabled(ModeOff) || Enabled("") || !Enabled(ModeAuto) {
		t.Error("Enabled misclassifies modes")
	}
	if _, err := Solve(context.Background(), sat.New(), Options{Mode: ModeOff}); err == nil {
		t.Error("Solve accepted a non-parallel mode")
	}
}
