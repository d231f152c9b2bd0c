package drat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sat"
)

// hinted is one proof step with the hints it carried: the unit the
// mutation tests edit. Dropping or rewriting steps leaves the survivors'
// hints naming ids that have moved, which is exactly the stale case the
// checker has to shrug off.
type hinted struct {
	sat.ProofStep
	hints []int32
}

func hintedSteps(p *sat.Proof) []hinted {
	hs := make([]hinted, p.NumSteps())
	for i, st := range p.Steps() {
		hs[i] = hinted{st, p.Hints(i)}
	}
	return hs
}

func assemble(hs []hinted) *sat.Proof {
	p := sat.NewProof()
	for _, h := range hs {
		p.AppendShared(h.ProofStep, h.hints...)
	}
	return p
}

// hintCorruptions are the ways a trace's hints can be wrong. Each
// rewrites the hints of step i of n given the step's own hints; steps
// without hints stay without (a Delete step's id is a hint like any
// other, so deletions by id are corrupted too).
var hintCorruptions = []struct {
	name    string
	corrupt func(rng *rand.Rand, hs []hinted, i int) []int32
}{
	{"present", func(_ *rand.Rand, hs []hinted, i int) []int32 { return hs[i].hints }},
	{"stripped", func(*rand.Rand, []hinted, int) []int32 { return nil }},
	{"shuffled", func(rng *rand.Rand, hs []hinted, i int) []int32 {
		out := append([]int32(nil), hs[i].hints...)
		rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
		return out
	}},
	{"truncated", func(rng *rand.Rand, hs []hinted, i int) []int32 {
		return hs[i].hints[:rng.Intn(len(hs[i].hints))]
	}},
	{"deleted", func(rng *rand.Rand, hs []hinted, i int) []int32 {
		// Ids that name no clause any more: earlier Delete steps and
		// their victims.
		var dead []int32
		for j := 0; j < i; j++ {
			if hs[j].Kind == sat.ProofDelete {
				dead = append(dead, int32(j))
				dead = append(dead, hs[j].hints...)
			}
		}
		if len(dead) == 0 {
			return hs[i].hints
		}
		out := make([]int32, len(hs[i].hints))
		for k := range out {
			out[k] = dead[rng.Intn(len(dead))]
		}
		return out
	}},
	{"future", func(rng *rand.Rand, hs []hinted, i int) []int32 {
		out := make([]int32, len(hs[i].hints))
		for k := range out {
			out[k] = int32(i + rng.Intn(len(hs)-i))
		}
		return out
	}},
	{"out-of-range", func(rng *rand.Rand, hs []hinted, i int) []int32 {
		out := make([]int32, len(hs[i].hints))
		for k := range out {
			out[k] = []int32{int32(len(hs)), int32(len(hs) + 7), math.MaxInt32}[rng.Intn(3)]
		}
		return out
	}},
	{"negative", func(rng *rand.Rand, hs []hinted, i int) []int32 {
		out := make([]int32, len(hs[i].hints))
		for k := range out {
			out[k] = []int32{-1, -int32(i) - 2, math.MinInt32}[rng.Intn(3)]
		}
		return out
	}},
	{"swapped", func(_ *rand.Rand, hs []hinted, i int) []int32 {
		// The next hinted step of the same kind lends its hints (the last
		// one borrows from the first).
		for d := 1; d <= len(hs); d++ {
			if o := hs[(i+d)%len(hs)]; o.Kind == hs[i].Kind && len(o.hints) > 0 {
				return o.hints
			}
		}
		return hs[i].hints
	}},
	{"anything", func(rng *rand.Rand, hs []hinted, i int) []int32 {
		out := make([]int32, rng.Intn(2*len(hs[i].hints)+1))
		for k := range out {
			out[k] = int32(rng.Intn(len(hs)+2)) - 1
		}
		return out
	}},
}

// checkEveryHinting is Check for tests: it checks the trace as given,
// with its hints stripped — the checker as it was before hints existed —
// and under every other corruption of them, through Check and a
// core-extracting checker, and fails the test unless all verdicts are the
// same: a hint must never turn a reject into an accept, lose a valid
// proof, or panic. It returns the stats and error of the trace as given.
func checkEveryHinting(t *testing.T, hs []hinted, assumptions ...sat.Lit) (*Stats, error) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(hs))))
	var given *Stats
	var want error
	for ci, c := range hintCorruptions {
		mut := make([]hinted, len(hs))
		for i, h := range hs {
			mut[i] = h
			if len(h.hints) > 0 || c.name == "anything" {
				mut[i].hints = c.corrupt(rng, hs, i)
			}
		}
		p := assemble(mut)
		st, err := Check(p, assumptions...)
		if ci == 0 {
			given, want = st, err
		} else if (err == nil) != (want == nil) {
			t.Fatalf("hints %s: Check err=%v, with hints as given err=%v", c.name, err, want)
		}
		cst, core, cerr := NewChecker(p, true).Check(assumptions...)
		if (cerr == nil) != (want == nil) {
			t.Fatalf("hints %s: core-extracting Check err=%v, Check err=%v", c.name, cerr, want)
		}
		if cerr != nil {
			continue
		}
		if cst.Lemmas != st.Lemmas || cst.Hinted != st.Hinted || cst.Fallbacks != st.Fallbacks {
			t.Fatalf("hints %s: core-extracting Check stats %+v, Check stats %+v", c.name, cst, st)
		}
		for k, si := range core {
			if mut[si].Kind != sat.ProofInput {
				t.Fatalf("hints %s: core[%d] = step %d of kind %v", c.name, k, si, mut[si].Kind)
			}
			if k > 0 && core[k-1] >= si {
				t.Fatalf("hints %s: core not sorted ascending: %v", c.name, core)
			}
		}
	}
	return given, want
}

// TestSolverTracesAreFullyHinted: what the solver records is enough — a
// trace straight from the solver, through restarts, Simplify
// strengthening and clause deletion, is verified without one fallback;
// the same trace stripped is verified entirely by fallback.
func TestSolverTracesAreFullyHinted(t *testing.T) {
	s := sat.New()
	p := s.EnableProof()
	pigeonhole(s, 5)
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(sat.MkLit(a, true), sat.MkLit(b, false), sat.MkLit(c, false)) // strengthened once a holds
	s.AddClause(sat.MkLit(b, true), sat.MkLit(c, true))
	s.AddClause(sat.MkLit(a, false))
	s.AddClause(sat.MkLit(a, true), sat.MkLit(b, false), sat.MkLit(b, false), sat.MkLit(c, true)) // strengthened on entry, duplicate literal
	if !s.Simplify() {
		t.Fatal("Simplify refuted a satisfiable prefix")
	}
	if s.Stats.Strengthened == 0 {
		t.Fatal("instance did not exercise strengthening")
	}
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("PHP(5) = %v, want unsat", st)
	}
	st, err := checkEveryHinting(t, hintedSteps(p))
	if err != nil {
		t.Fatal(err)
	}
	if st.Fallbacks != 0 || st.Hinted == 0 {
		t.Fatalf("solver trace: %d hinted, %d fallbacks, want all hinted", st.Hinted, st.Fallbacks)
	}
	if p.NumHints() == 0 || p.Bytes() != int64(16*p.NumSteps()+4*p.NumLits()+4*p.NumHints()) {
		t.Fatalf("proof bytes %d do not count %d hints", p.Bytes(), p.NumHints())
	}
	bare, err := Check(sat.RebuildProof(p.Steps()))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Hinted != 0 || bare.Fallbacks != st.Hinted {
		t.Fatalf("stripped trace: %d hinted, %d fallbacks, want 0 and %d", bare.Hinted, bare.Fallbacks, st.Hinted)
	}
}

// TestHintsCannotVouchForALemma hands a lemma that does not follow the
// best hints there are — every clause in the database — and requires the
// rejection it gets without them.
func TestHintsCannotVouchForALemma(t *testing.T) {
	s := sat.New()
	p := s.EnableProof()
	pigeonhole(s, 3)
	hs := hintedSteps(p)
	all := make([]int32, len(hs))
	for i := range all {
		all[i] = int32(i)
	}
	// Unit propagation over PHP(3) does not refute "pigeon 0 is in hole
	// 0", let alone the formula.
	hs = append(hs,
		hinted{sat.ProofStep{Kind: sat.ProofDerive, Lits: []sat.Lit{sat.MkLit(0, true)}}, all},
		hinted{sat.ProofStep{Kind: sat.ProofDerive}, all})
	if _, err := checkEveryHinting(t, hs); err == nil {
		t.Fatal("a lemma that is not RUP was accepted on the strength of its hints")
	}
}

// TestDeletionById covers what a Delete step's id may and may not do: it
// finds the clause without a search, including one recorded with
// duplicate literals, but an id naming a clause with other literals
// deletes nothing, and the trace is rejected as it is without the id.
func TestDeletionById(t *testing.T) {
	x, y, z := sat.MkLit(0, false), sat.MkLit(1, false), sat.MkLit(2, false)
	in := func(lits ...sat.Lit) hinted {
		return hinted{ProofStep: sat.ProofStep{Kind: sat.ProofInput, Lits: lits}}
	}
	del := func(id int32, lits ...sat.Lit) hinted {
		return hinted{sat.ProofStep{Kind: sat.ProofDelete, Lits: lits}, []int32{id}}
	}
	refute := []hinted{in(z), in(z.Not())}

	ok := append([]hinted{in(x, y, y), in(x, z), del(0, y, x)}, refute...)
	if _, err := checkEveryHinting(t, ok); err != nil {
		t.Fatalf("deletion by id of a clause recorded with a duplicate literal: %v", err)
	}
	twice := append([]hinted{in(x, y), del(0, x, y), del(0, x, y)}, refute...)
	if _, err := checkEveryHinting(t, twice); err == nil {
		t.Fatal("second deletion of the same clause was accepted")
	}
	other := append([]hinted{in(x, y), in(x, z), del(1, x, y.Not())}, refute...)
	if _, err := checkEveryHinting(t, other); err == nil {
		t.Fatal("deletion of a clause never added was accepted because its id names a live clause")
	}
}
