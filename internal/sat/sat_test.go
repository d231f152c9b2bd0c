package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// mk builds a literal from a signed integer in DIMACS convention:
// 1 → v0, -1 → ¬v0, 2 → v1, ...
func mk(i int) Lit {
	if i > 0 {
		return MkLit(Var(i-1), false)
	}
	return MkLit(Var(-i-1), true)
}

// newSolverWithVars allocates n variables.
func newSolverWithVars(n int) *Solver {
	s := New()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return s
}

// addDimacs adds clauses given in DIMACS signed-int convention.
func addDimacs(s *Solver, clauses [][]int) bool {
	for _, c := range clauses {
		ls := make([]Lit, len(c))
		for i, x := range c {
			ls[i] = mk(x)
		}
		if !s.AddClause(ls...) {
			return false
		}
	}
	return true
}

func TestLitEncoding(t *testing.T) {
	l := MkLit(5, false)
	if l.Var() != 5 || l.Neg() {
		t.Fatalf("positive literal mis-encoded: %v", l)
	}
	n := l.Not()
	if n.Var() != 5 || !n.Neg() {
		t.Fatalf("negation mis-encoded: %v", n)
	}
	if n.Not() != l {
		t.Fatalf("double negation is not identity")
	}
	if l.String() != "v5" || n.String() != "~v5" {
		t.Fatalf("unexpected strings %q %q", l, n)
	}
}

// TestTriboolNot: assignments are indexed by literal, so negation is a
// matter of position. A literal and its complement are set together and
// cleared together.
func TestTriboolNot(t *testing.T) {
	s := newSolverWithVars(2)
	for _, l := range []Lit{mk(1), mk(-2)} {
		if s.value(l) != Unknown || s.value(l.Not()) != Unknown {
			t.Fatalf("%v assigned before anything was enqueued", l)
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(l, 0)
		if s.value(l) != True || s.value(l.Not()) != False || s.Value(l.Var()) == Unknown {
			t.Fatalf("%v enqueued: value %v, complement %v", l, s.value(l), s.value(l.Not()))
		}
	}
	if m := s.Model(); !m[0] || m[1] {
		t.Fatalf("model %v, want [true false]", m)
	}
	s.cancelUntil(0)
	for l := Lit(0); l < 4; l++ {
		if s.value(l) != Unknown {
			t.Fatalf("%v still assigned after backtracking", l)
		}
	}
	if True.String() != "true" || False.String() != "false" || Unknown.String() != "unknown" {
		t.Fatal("tribool strings broken")
	}
}

func TestEmptyFormulaSat(t *testing.T) {
	s := New()
	if st := s.Solve(); st != Sat {
		t.Fatalf("empty formula: got %v, want sat", st)
	}
}

func TestSingleUnit(t *testing.T) {
	s := newSolverWithVars(1)
	s.AddClause(mk(1))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if s.Value(0) != True {
		t.Fatalf("v0 = %v, want true", s.Value(0))
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := newSolverWithVars(1)
	s.AddClause(mk(1))
	if ok := s.AddClause(mk(-1)); ok {
		t.Fatal("expected AddClause to report top-level conflict")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := newSolverWithVars(2)
	if !s.AddClause(mk(1), mk(-1)) {
		t.Fatal("tautology rejected")
	}
	if s.NumClauses() != 0 {
		t.Fatalf("tautology stored: %d clauses", s.NumClauses())
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := newSolverWithVars(1)
	s.AddClause(mk(1), mk(1), mk(1))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if s.Value(0) != True {
		t.Fatal("duplicate-literal unit not propagated")
	}
}

func TestSimpleUnsat(t *testing.T) {
	// (x∨y) ∧ (x∨¬y) ∧ (¬x∨y) ∧ (¬x∨¬y)
	s := newSolverWithVars(2)
	addDimacs(s, [][]int{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}})
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons into n holes — classically hard UNSAT.
	for _, n := range []int{3, 4, 5} {
		s := New()
		// var p[i][j]: pigeon i in hole j
		p := make([][]Lit, n+1)
		for i := range p {
			p[i] = make([]Lit, n)
			for j := range p[i] {
				p[i][j] = MkLit(s.NewVar(), false)
			}
		}
		for i := 0; i <= n; i++ {
			s.AddClause(p[i]...)
		}
		for j := 0; j < n; j++ {
			for i1 := 0; i1 <= n; i1++ {
				for i2 := i1 + 1; i2 <= n; i2++ {
					s.AddClause(p[i1][j].Not(), p[i2][j].Not())
				}
			}
		}
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(%d+1,%d): got %v, want unsat", n, n, st)
		}
	}
}

func TestGraphColoringSat(t *testing.T) {
	// 3-color a 5-cycle (chromatic number 3) — satisfiable.
	const n, k = 5, 3
	s := New()
	color := make([][]Lit, n)
	for i := range color {
		color[i] = make([]Lit, k)
		for j := range color[i] {
			color[i][j] = MkLit(s.NewVar(), false)
		}
	}
	for i := 0; i < n; i++ {
		s.AddClause(color[i]...)
		for c1 := 0; c1 < k; c1++ {
			for c2 := c1 + 1; c2 < k; c2++ {
				s.AddClause(color[i][c1].Not(), color[i][c2].Not())
			}
		}
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		for c := 0; c < k; c++ {
			s.AddClause(color[i][c].Not(), color[j][c].Not())
		}
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want sat", st)
	}
	// Verify the model is a proper coloring.
	for i := 0; i < n; i++ {
		ci := -1
		for c := 0; c < k; c++ {
			if s.ValueLit(color[i][c]) == True {
				ci = c
				break
			}
		}
		if ci < 0 {
			t.Fatalf("node %d has no color", i)
		}
		j := (i + 1) % n
		if s.ValueLit(color[j][ci]) == True {
			t.Fatalf("edge %d-%d monochromatic", i, j)
		}
	}
}

func Test2ColoringOddCycleUnsat(t *testing.T) {
	// 2-coloring an odd cycle is unsatisfiable.
	const n = 7
	s := New()
	x := make([]Lit, n) // x[i] true = color A
	for i := range x {
		x[i] = MkLit(s.NewVar(), false)
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s.AddClause(x[i], x[j])
		s.AddClause(x[i].Not(), x[j].Not())
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
}

func TestAssumptions(t *testing.T) {
	// (a ∨ b) with assumption ¬a forces b.
	s := newSolverWithVars(2)
	s.AddClause(mk(1), mk(2))
	if st := s.Solve(mk(-1)); st != Sat {
		t.Fatalf("got %v", st)
	}
	if s.Value(0) != False || s.Value(1) != True {
		t.Fatalf("model a=%v b=%v", s.Value(0), s.Value(1))
	}
	// Assumptions contradicting a unit make it unsat, but the solver
	// stays usable.
	s2 := newSolverWithVars(1)
	s2.AddClause(mk(1))
	if st := s2.Solve(mk(-1)); st != Unsat {
		t.Fatalf("got %v, want unsat under assumption", st)
	}
	if st := s2.Solve(); st != Sat {
		t.Fatalf("solver unusable after assumption conflict: %v", st)
	}
}

func TestIncrementalUse(t *testing.T) {
	s := newSolverWithVars(3)
	addDimacs(s, [][]int{{1, 2}, {-1, 3}})
	if st := s.Solve(); st != Sat {
		t.Fatalf("phase 1: %v", st)
	}
	// Add more constraints after solving.
	addDimacs(s, [][]int{{-2}, {-3}})
	if st := s.Solve(); st != Unsat {
		t.Fatalf("phase 2: got %v, want unsat", st)
	}
}

func TestModelLength(t *testing.T) {
	s := newSolverWithVars(4)
	s.AddClause(mk(1))
	s.Solve()
	if m := s.Model(); len(m) != 4 || !m[0] {
		t.Fatalf("model %v", m)
	}
}

func TestLuby(t *testing.T) {
	want := []float64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if g := luby(1, i); g != w {
			t.Fatalf("luby(1,%d) = %v, want %v", i, g, w)
		}
	}
}

func TestConflictBudget(t *testing.T) {
	// A hard pigeonhole instance with a tiny budget must return Unsolved.
	n := 8
	s := New()
	p := make([][]Lit, n+1)
	for i := range p {
		p[i] = make([]Lit, n)
		for j := range p[i] {
			p[i][j] = MkLit(s.NewVar(), false)
		}
	}
	for i := 0; i <= n; i++ {
		s.AddClause(p[i]...)
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 <= n; i1++ {
			for i2 := i1 + 1; i2 <= n; i2++ {
				s.AddClause(p[i1][j].Not(), p[i2][j].Not())
			}
		}
	}
	s.MaxConflicts = 50
	st, err := s.SolveLimited()
	if st != Unsolved || err != ErrBudget {
		t.Fatalf("got %v/%v, want unsolved/budget", st, err)
	}
}

// dpllSolve is a tiny reference solver used to cross-check the CDCL engine
// on random instances.
func dpllSolve(nVars int, clauses [][]int, assign []int8) bool {
	// Unit propagation.
	for {
		change := false
		for _, c := range clauses {
			unassigned, sat, lastLit := 0, false, 0
			for _, l := range c {
				v := abs(l) - 1
				switch {
				case assign[v] == 0:
					unassigned++
					lastLit = l
				case (l > 0) == (assign[v] > 0):
					sat = true
				}
			}
			if sat {
				continue
			}
			if unassigned == 0 {
				return false
			}
			if unassigned == 1 {
				v := abs(lastLit) - 1
				if lastLit > 0 {
					assign[v] = 1
				} else {
					assign[v] = -1
				}
				change = true
			}
		}
		if !change {
			break
		}
	}
	// Pick an unassigned variable.
	pick := -1
	for v := 0; v < nVars; v++ {
		if assign[v] == 0 {
			pick = v
			break
		}
	}
	if pick == -1 {
		return true
	}
	for _, val := range []int8{1, -1} {
		cp := append([]int8(nil), assign...)
		cp[pick] = val
		if dpllSolve(nVars, clauses, cp) {
			return true
		}
	}
	return false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// random3SAT draws nClauses clauses of three literals over nVars
// variables, in DIMACS convention. distinct keeps a variable from
// repeating within a clause; without it duplicate literals and
// tautologies occur.
func random3SAT(rng *rand.Rand, nVars, nClauses int, distinct bool) [][]int {
	clauses := make([][]int, nClauses)
	for i := range clauses {
		c := make([]int, 0, 3)
		for len(c) < 3 {
			v := 1 + rng.Intn(nVars)
			if distinct && slices.ContainsFunc(c, func(x int) bool { return abs(x) == v }) {
				continue
			}
			if rng.Intn(2) == 0 {
				v = -v
			}
			c = append(c, v)
		}
		clauses[i] = c
	}
	return clauses
}

func TestRandom3SATAgainstDPLL(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		nVars := 4 + rng.Intn(10)
		// Clause/variable ratios straddling the phase transition (~4.26).
		clauses := random3SAT(rng, nVars, int(float64(nVars)*(3.0+rng.Float64()*3.0)), true)

		want := dpllSolve(nVars, clauses, make([]int8, nVars))

		s := newSolverWithVars(nVars)
		okAdd := addDimacs(s, clauses)
		got := okAdd && s.Solve() == Sat
		if got != want {
			t.Fatalf("iter %d: cdcl=%v dpll=%v clauses=%v", iter, got, want, clauses)
		}
		if got {
			// Check the model actually satisfies every clause.
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					v := Var(abs(l) - 1)
					if (l > 0) == (s.Value(v) == True) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, c)
				}
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := newSolverWithVars(6)
	addDimacs(s, [][]int{{1, 2, 3}, {-1, 4}, {-2, 5}, {-3, 6}, {-4, -5}, {-5, -6}, {-4, -6}})
	s.Solve()
	if s.Stats.Propagations == 0 {
		t.Fatal("expected some propagations")
	}
}

// TestStatsSince: the work after a snapshot, added to the snapshot, is
// the total; a zero snapshot changes nothing; the high-water mark is the
// later one's.
func TestStatsSince(t *testing.T) {
	s := newSolverWithVars(6)
	addDimacs(s, [][]int{{1, 2, 3}, {-1, 4}, {-2, 5}, {-3, 6}, {-4, -5}, {-5, -6}, {-4, -6}})
	s.Solve()
	before := s.Stats
	s.AddClause(MkLit(0, true))
	s.Solve()
	if s.Stats.Since(Stats{}) != s.Stats {
		t.Fatalf("Since(zero) = %+v, want %+v", s.Stats.Since(Stats{}), s.Stats)
	}
	d := s.Stats.Since(before)
	if d.Propagations <= 0 || before.Propagations+d.Propagations != s.Stats.Propagations ||
		before.Decisions+d.Decisions != s.Stats.Decisions || before.Conflicts+d.Conflicts != s.Stats.Conflicts {
		t.Fatalf("%+v since %+v is %+v", s.Stats, before, d)
	}
	if d.MaxLevel != s.Stats.MaxLevel {
		t.Fatalf("MaxLevel %d, want the later snapshot's %d", d.MaxLevel, s.Stats.MaxLevel)
	}
}

func BenchmarkSolverPigeonhole7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 7
		s := New()
		p := make([][]Lit, n+1)
		for i := range p {
			p[i] = make([]Lit, n)
			for j := range p[i] {
				p[i][j] = MkLit(s.NewVar(), false)
			}
		}
		for i := 0; i <= n; i++ {
			s.AddClause(p[i]...)
		}
		for j := 0; j < n; j++ {
			for i1 := 0; i1 <= n; i1++ {
				for i2 := i1 + 1; i2 <= n; i2++ {
					s.AddClause(p[i1][j].Not(), p[i2][j].Not())
				}
			}
		}
		if st := s.Solve(); st != Unsat {
			b.Fatalf("got %v", st)
		}
	}
}

// pigeonhole loads PHP(n+1, n) — hard UNSAT, guaranteed to conflict.
func pigeonhole(n int) *Solver {
	s := New()
	loadPigeonhole(s, n)
	return s
}

func loadPigeonhole(s *Solver, n int) {
	p := make([][]Lit, n+1)
	for i := range p {
		p[i] = make([]Lit, n)
		for j := range p[i] {
			p[i][j] = MkLit(s.NewVar(), false)
		}
	}
	for i := 0; i <= n; i++ {
		s.AddClause(p[i]...)
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 <= n; i1++ {
			for i2 := i1 + 1; i2 <= n; i2++ {
				s.AddClause(p[i1][j].Not(), p[i2][j].Not())
			}
		}
	}
}

func TestProgressHookInterval(t *testing.T) {
	const every = 10
	s := pigeonhole(6)
	var snaps []Progress
	s.ProgressEvery = every
	s.OnProgress = func(p Progress) { snaps = append(snaps, p) }
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	if len(snaps) == 0 {
		t.Fatal("progress hook never fired")
	}
	for i, p := range snaps {
		if p.Conflicts%every != 0 {
			t.Fatalf("snapshot %d at %d conflicts, want a multiple of %d", i, p.Conflicts, every)
		}
		if i > 0 && p.Conflicts <= snaps[i-1].Conflicts {
			t.Fatalf("snapshots not monotone: %d then %d", snaps[i-1].Conflicts, p.Conflicts)
		}
		if p.Learned > p.Conflicts || p.Deleted > p.Learned {
			t.Fatalf("snapshot %d inconsistent: %+v", i, p)
		}
		if p.Vars != s.NumVars() {
			t.Fatalf("snapshot %d reports %d vars, want %d", i, p.Vars, s.NumVars())
		}
	}
	want := s.Stats.Conflicts / every
	if int64(len(snaps)) != want {
		t.Fatalf("hook fired %d times over %d conflicts, want %d", len(snaps), s.Stats.Conflicts, want)
	}
}

// TestProgressHookConcurrent consumes snapshots on another goroutine while
// the solver runs — the pattern CLIs use to report liveness. Meaningful
// under -race.
func TestProgressHookConcurrent(t *testing.T) {
	s := pigeonhole(7)
	ch := make(chan Progress, 64)
	s.ProgressEvery = 25
	s.OnProgress = func(p Progress) { ch <- p }
	var consumed int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range ch {
			consumed += p.Conflicts - p.Conflicts + 1 // touch the snapshot
		}
	}()
	st := s.Solve()
	close(ch)
	<-done
	if st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	if consumed == 0 {
		t.Fatal("no snapshots consumed")
	}
}

func TestStatsMonotonicity(t *testing.T) {
	s := pigeonhole(6)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	st := s.Stats
	if st.Conflicts == 0 {
		t.Fatal("expected conflicts on a pigeonhole instance")
	}
	if st.Learned > st.Conflicts {
		t.Fatalf("learned %d > conflicts %d", st.Learned, st.Conflicts)
	}
	if st.Deleted > st.Learned {
		t.Fatalf("deleted %d > learned %d", st.Deleted, st.Learned)
	}
	var hist int64
	for _, n := range st.LBDHist {
		if n < 0 {
			t.Fatalf("negative LBD bucket: %v", st.LBDHist)
		}
		hist += n
	}
	if hist != st.Learned {
		t.Fatalf("LBD histogram sums to %d, learned %d", hist, st.Learned)
	}
}

func TestSimplifyPreservesSatisfiability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		nVars := 4 + rng.Intn(10)
		nClauses := int(float64(nVars) * (3.0 + rng.Float64()*3.0))
		clauses := make([][]int, 0, nClauses)
		for i := 0; i < nClauses; i++ {
			c := make([]int, 0, 3)
			used := map[int]bool{}
			for len(c) < 3 {
				v := 1 + rng.Intn(nVars)
				if used[v] {
					continue
				}
				used[v] = true
				if rng.Intn(2) == 0 {
					v = -v
				}
				c = append(c, v)
			}
			clauses = append(clauses, c)
		}
		// Seed some units so Simplify has facts to work with.
		for u := 1; u <= nVars/3; u++ {
			clauses = append(clauses, []int{u})
		}

		plain := newSolverWithVars(nVars)
		okPlain := addDimacs(plain, clauses)
		want := okPlain && plain.Solve() == Sat

		simp := newSolverWithVars(nVars)
		okSimp := addDimacs(simp, clauses)
		if okSimp {
			okSimp = simp.Simplify()
		}
		got := okSimp && simp.Solve() == Sat
		if got != want {
			t.Fatalf("iter %d: simplified=%v plain=%v clauses=%v", iter, got, want, clauses)
		}
		if got {
			for _, c := range clauses {
				satisfied := false
				for _, l := range c {
					if (l > 0) == (simp.Value(Var(abs(l)-1)) == True) {
						satisfied = true
						break
					}
				}
				if !satisfied {
					t.Fatalf("iter %d: post-simplify model misses clause %v", iter, c)
				}
			}
		}
	}
}

func TestSimplifyShrinksDatabase(t *testing.T) {
	s := newSolverWithVars(4)
	// The unit arrives after the clauses (AddClause would fold it away
	// otherwise): 1 satisfies {1,2} and strengthens {-1,3,4} to {3,4}.
	addDimacs(s, [][]int{{1, 2}, {-1, 3, 4}, {2, 3, -4}, {1}})
	before := s.NumClauses()
	if !s.Simplify() {
		t.Fatal("simplify reported unsat")
	}
	if s.NumClauses() >= before {
		t.Fatalf("clause count %d not reduced from %d", s.NumClauses(), before)
	}
	if s.Stats.Simplified == 0 || s.Stats.Strengthened == 0 {
		t.Fatalf("stats not recorded: %+v", s.Stats)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want sat", st)
	}
}

func TestClausesExportsRootUnits(t *testing.T) {
	s := newSolverWithVars(3)
	addDimacs(s, [][]int{{1}, {-1, 2}, {2, 3}})
	// v0 and the implied v1 must both appear as exported units.
	units := map[Lit]bool{}
	for _, c := range s.Clauses() {
		if len(c) == 1 {
			units[c[0]] = true
		}
	}
	if !units[mk(1)] || !units[mk(2)] {
		t.Fatalf("missing implied units in export: %v", units)
	}
}

// TestAssumptionReentrancy is the property the incremental SMT session is
// built on: one solver instance answers a sequence of Solve(assumptions...)
// queries, and an UNSAT verdict under one assumption set must not poison a
// later query under a different set. It also exercises the activation-
// literal pattern the session uses: guarded clauses (¬a ∨ C) activated by
// assuming a, then retired by the permanent unit ¬a.
func TestAssumptionReentrancy(t *testing.T) {
	// Shared formula: x1 ∨ x2, ¬x1 ∨ x3.
	s := newSolverWithVars(3)
	addDimacs(s, [][]int{{1, 2}, {-1, 3}})

	// Query 1: UNSAT under assumptions forcing both x2 and x3 false
	// (x1 must be true by clause 1 and false by clause 2).
	if st := s.Solve(mk(-2), mk(-3)); st != Unsat {
		t.Fatalf("query 1: got %v, want unsat", st)
	}
	// Query 2: the same instance answers SAT under a different set.
	if st := s.Solve(mk(-2)); st != Sat {
		t.Fatalf("query 2: got %v, want sat after unsat", st)
	}
	if s.Value(0) != True || s.Value(2) != True {
		t.Fatalf("query 2 model: x1=%v x3=%v, want both true", s.Value(0), s.Value(2))
	}
	// Query 3: back to the first set, still UNSAT (verdicts are stable).
	if st := s.Solve(mk(-2), mk(-3)); st != Unsat {
		t.Fatalf("query 3: got %v, want unsat again", st)
	}

	// Activation-literal lifecycle: a1 guards x2, a2 guards ¬x2.
	a1 := MkLit(s.NewVar(), false)
	a2 := MkLit(s.NewVar(), false)
	s.AddClause(a1.Not(), mk(2))
	s.AddClause(a2.Not(), mk(-2))
	if st := s.Solve(a1); st != Sat {
		t.Fatalf("guard a1: got %v, want sat", st)
	}
	if s.Value(1) != True {
		t.Fatalf("guard a1: x2=%v, want true", s.Value(1))
	}
	if st := s.Solve(a1, a2); st != Unsat {
		t.Fatalf("guards a1∧a2: got %v, want unsat", st)
	}
	// Retire a1 permanently; a2's guarded clause now decides x2 alone.
	s.AddClause(a1.Not())
	if st := s.Solve(a2); st != Sat {
		t.Fatalf("after retiring a1: got %v, want sat", st)
	}
	if s.Value(1) != False {
		t.Fatalf("after retiring a1: x2=%v, want false", s.Value(1))
	}
}

// TestInterrupt aborts a hard search from another goroutine and checks the
// solver is reusable after ResetInterrupt.
func TestInterrupt(t *testing.T) {
	// Hard pigeonhole instance (10 pigeons, 9 holes).
	n := 9
	s := New()
	p := make([][]Lit, n+1)
	for i := range p {
		p[i] = make([]Lit, n)
		for j := range p[i] {
			p[i][j] = MkLit(s.NewVar(), false)
		}
	}
	for i := 0; i <= n; i++ {
		s.AddClause(p[i]...)
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 <= n; i1++ {
			for i2 := i1 + 1; i2 <= n; i2++ {
				s.AddClause(p[i1][j].Not(), p[i2][j].Not())
			}
		}
	}
	go s.Interrupt() // may land before or during the search: both abort it
	st, err := s.SolveLimited()
	if st != Unsolved || err != ErrInterrupted {
		t.Fatalf("got %v/%v, want unsolved/interrupted", st, err)
	}
	if !s.Interrupted() {
		t.Fatal("interrupt flag should be sticky until reset")
	}
	s.ResetInterrupt()
	// The search runs again after the reset (no immediate interrupt): a
	// budget-limited call does real work and exhausts the budget rather
	// than returning ErrInterrupted.
	s.MaxConflicts = 50
	if st, err := s.SolveLimited(); st != Unsolved || err != ErrBudget {
		t.Fatalf("after reset: got %v/%v, want unsolved/budget", st, err)
	}
}
