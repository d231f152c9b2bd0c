package smt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

func TestConstFolding(t *testing.T) {
	c := NewContext()
	if c.And(c.True(), c.True()) != c.True() {
		t.Fatal("and of trues")
	}
	if c.And(c.True(), c.False()) != c.False() {
		t.Fatal("and with false")
	}
	if c.Or(c.False(), c.False()) != c.False() {
		t.Fatal("or of falses")
	}
	if c.Not(c.True()) != c.False() || c.Not(c.False()) != c.True() {
		t.Fatal("not on constants")
	}
	x := c.BoolVar("x")
	if c.Not(c.Not(x)) != x {
		t.Fatal("double negation")
	}
	if c.And(x, c.Not(x)) != c.False() {
		t.Fatal("x ∧ ¬x")
	}
	if c.Or(x, c.Not(x)) != c.True() {
		t.Fatal("x ∨ ¬x")
	}
	if c.And(x, x, x) != x {
		t.Fatal("idempotent and")
	}
	if c.Eq(x, x) != c.True() {
		t.Fatal("x = x")
	}
}

func TestBVConstFolding(t *testing.T) {
	c := NewContext()
	if got := c.Add(c.BV(3, 8), c.BV(4, 8)); got != c.BV(7, 8) {
		t.Fatalf("3+4 = %v", got)
	}
	// Overflow wraps.
	if got := c.Add(c.BV(255, 8), c.BV(1, 8)); got != c.BV(0, 8) {
		t.Fatalf("255+1 = %v", got)
	}
	if got := c.Sub(c.BV(0, 8), c.BV(1, 8)); got != c.BV(255, 8) {
		t.Fatalf("0-1 = %v", got)
	}
	if c.Ule(c.BV(3, 8), c.BV(4, 8)) != c.True() {
		t.Fatal("3<=4")
	}
	if c.Ult(c.BV(4, 8), c.BV(4, 8)) != c.False() {
		t.Fatal("4<4")
	}
	x := c.BVVar("x", 8)
	if c.Add(x, c.BV(0, 8)) != x {
		t.Fatal("x+0")
	}
	if c.Ule(c.BV(0, 8), x) != c.True() {
		t.Fatal("0<=x")
	}
	if c.Ule(x, c.BV(255, 8)) != c.True() {
		t.Fatal("x<=255")
	}
	if c.Ult(x, c.BV(0, 8)) != c.False() {
		t.Fatal("x<0")
	}
	if c.Eq(c.BV(9, 8), c.BV(9, 8)) != c.True() {
		t.Fatal("9=9")
	}
	if c.Eq(c.BV(9, 8), c.BV(8, 8)) != c.False() {
		t.Fatal("9=8")
	}
}

func TestHashConsing(t *testing.T) {
	c := NewContext()
	x, y := c.BoolVar("x"), c.BoolVar("y")
	a1 := c.And(x, y)
	a2 := c.And(y, x)
	if a1 != a2 {
		t.Fatal("commutative and not shared")
	}
	if c.BoolVar("x") != x {
		t.Fatal("variable not interned")
	}
	u, v := c.BVVar("u", 8), c.BVVar("v", 8)
	if c.Add(u, v) != c.Add(v, u) {
		t.Fatal("commutative add not shared")
	}
	if c.Eq(u, v) != c.Eq(v, u) {
		t.Fatal("symmetric eq not shared")
	}
}

func TestSortChecks(t *testing.T) {
	c := NewContext()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mixed-sort eq")
		}
	}()
	c.Eq(c.BoolVar("x"), c.BVVar("u", 8))
}

func TestVarRedeclarationPanics(t *testing.T) {
	c := NewContext()
	c.BVVar("u", 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width change")
		}
	}()
	c.BVVar("u", 16)
}

func TestSimpleSatUnsat(t *testing.T) {
	c := NewContext()
	x, y := c.BoolVar("x"), c.BoolVar("y")

	s := NewSolver(c)
	s.Assert(c.Or(x, y))
	s.Assert(c.Not(x))
	if st := s.Check(); st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	m := s.Model()
	if m["x"].Bool || !m["y"].Bool {
		t.Fatalf("model %v", m)
	}

	s2 := NewSolver(c)
	s2.Assert(x)
	s2.Assert(c.Not(x))
	if st := s2.Check(); st != sat.Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestBVArithmeticModels(t *testing.T) {
	c := NewContext()
	x := c.BVVar("bx", 8)
	y := c.BVVar("by", 8)

	s := NewSolver(c)
	s.Assert(c.Eq(c.Add(x, y), c.BV(10, 8)))
	s.Assert(c.Ult(x, y))
	s.Assert(c.Ugt(x, c.BV(2, 8)))
	if st := s.Check(); st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	m := s.Model()
	gx, gy := m["bx"].BV, m["by"].BV
	if (gx+gy)&0xff != 10 || gx >= gy || gx <= 2 {
		t.Fatalf("model violates constraints: x=%d y=%d", gx, gy)
	}
}

func TestUnsatArithmetic(t *testing.T) {
	c := NewContext()
	x := c.BVVar("ux", 8)
	s := NewSolver(c)
	// x < 5 ∧ x > 9 is unsat.
	s.Assert(c.Ult(x, c.BV(5, 8)))
	s.Assert(c.Ugt(x, c.BV(9, 8)))
	if st := s.Check(); st != sat.Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestSubIdentityValid(t *testing.T) {
	// (x - y) + y = x is valid: its negation must be unsat.
	c := NewContext()
	x := c.BVVar("sx", 16)
	y := c.BVVar("sy", 16)
	s := NewSolver(c)
	s.Assert(c.Distinct(c.Add(c.Sub(x, y), y), x))
	if st := s.Check(); st != sat.Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestUleTotalOrderValid(t *testing.T) {
	// x ≤ y ∨ y ≤ x is valid.
	c := NewContext()
	x := c.BVVar("tx", 12)
	y := c.BVVar("ty", 12)
	s := NewSolver(c)
	s.Assert(c.Not(c.Or(c.Ule(x, y), c.Ule(y, x))))
	if st := s.Check(); st != sat.Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestUltIrreflexiveAndTransitive(t *testing.T) {
	c := NewContext()
	x := c.BVVar("ix", 8)
	y := c.BVVar("iy", 8)
	z := c.BVVar("iz", 8)
	// x<y ∧ y<z ∧ ¬(x<z) unsat.
	s := NewSolver(c)
	s.Assert(c.Ult(x, y))
	s.Assert(c.Ult(y, z))
	s.Assert(c.Not(c.Ult(x, z)))
	if st := s.Check(); st != sat.Unsat {
		t.Fatalf("transitivity: got %v", st)
	}
}

func TestIteSemantics(t *testing.T) {
	c := NewContext()
	p := c.BoolVar("p")
	x := c.BVVar("mx", 8)
	s := NewSolver(c)
	s.Assert(c.Eq(c.Ite(p, c.BV(7, 8), c.BV(9, 8)), x))
	s.Assert(p)
	if st := s.Check(); st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if m := s.Model(); m["mx"].BV != 7 {
		t.Fatalf("ite model %v", m)
	}
}

func TestInRange(t *testing.T) {
	c := NewContext()
	x := c.BVVar("rx", 32)
	s := NewSolver(c)
	// The shape produced by prefix hoisting: 192.168.0.0/16 range.
	lo := uint64(0xC0A80000)
	hi := uint64(0xC0A8FFFF)
	s.Assert(c.InRange(x, lo, hi))
	if st := s.Check(); st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if v := s.Model()["rx"].BV; v < lo || v > hi {
		t.Fatalf("model %x out of range", v)
	}
	s.Assert(c.Ult(x, c.BV(lo, 32)))
	if st := s.Check(); st != sat.Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestIncrementalSolving(t *testing.T) {
	c := NewContext()
	x := c.BVVar("nx", 8)
	s := NewSolver(c)
	s.Assert(c.Ule(x, c.BV(100, 8)))
	if st := s.Check(); st != sat.Sat {
		t.Fatalf("phase1 %v", st)
	}
	s.Assert(c.Uge(x, c.BV(101, 8)))
	if st := s.Check(); st != sat.Unsat {
		t.Fatalf("phase2 %v", st)
	}
}

func TestEvalBasics(t *testing.T) {
	c := NewContext()
	x := c.BoolVar("x")
	u := c.BVVar("u", 8)
	f := c.And(x, c.Ule(u, c.BV(5, 8)))
	if !Eval(f, Assignment{"x": {Bool: true}, "u": {BV: 3}}).Bool {
		t.Fatal("want true")
	}
	if Eval(f, Assignment{"x": {Bool: true}, "u": {BV: 9}}).Bool {
		t.Fatal("want false")
	}
	if Eval(f, Assignment{"u": {BV: 3}}).Bool {
		t.Fatal("default x is false")
	}
	if got := Eval(c.Add(u, c.BV(250, 8)), Assignment{"u": {BV: 10}}); got.BV != 4 {
		t.Fatalf("wraparound eval: %d", got.BV)
	}
}

// randTerm builds a random boolean term over a fixed set of variables.
func randTerm(c *Context, rng *rand.Rand, depth int) *Term {
	bools := []*Term{c.BoolVar("p"), c.BoolVar("q"), c.BoolVar("r")}
	bvs := []*Term{c.BVVar("a", 4), c.BVVar("b", 4)}
	var bv func(d int) *Term
	bv = func(d int) *Term {
		if d <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return bvs[rng.Intn(len(bvs))]
			}
			return c.BV(uint64(rng.Intn(16)), 4)
		}
		switch rng.Intn(3) {
		case 0:
			return c.Add(bv(d-1), bv(d-1))
		case 1:
			return c.Sub(bv(d-1), bv(d-1))
		default:
			var cond *Term
			if d > 1 {
				cond = bools[rng.Intn(len(bools))]
			} else {
				cond = bools[0]
			}
			return c.Ite(cond, bv(d-1), bv(d-1))
		}
	}
	var bl func(d int) *Term
	bl = func(d int) *Term {
		if d <= 0 {
			return bools[rng.Intn(len(bools))]
		}
		switch rng.Intn(7) {
		case 0:
			return c.Not(bl(d - 1))
		case 1:
			return c.And(bl(d-1), bl(d-1))
		case 2:
			return c.Or(bl(d-1), bl(d-1), bl(d-1))
		case 3:
			return c.Eq(bl(d-1), bl(d-1))
		case 4:
			return c.Ule(bv(d-1), bv(d-1))
		case 5:
			return c.Eq(bv(d-1), bv(d-1))
		default:
			return c.Ult(bv(d-1), bv(d-1))
		}
	}
	return bl(depth)
}

// bruteForceSat exhaustively decides satisfiability over the fixed
// variable universe used by randTerm (3 bools × 2 4-bit bitvectors).
func bruteForceSat(t *Term) bool {
	for p := 0; p < 2; p++ {
		for q := 0; q < 2; q++ {
			for r := 0; r < 2; r++ {
				for a := uint64(0); a < 16; a++ {
					for b := uint64(0); b < 16; b++ {
						asg := Assignment{
							"p": {Bool: p == 1}, "q": {Bool: q == 1}, "r": {Bool: r == 1},
							"a": {BV: a}, "b": {BV: b},
						}
						if Eval(t, asg).Bool {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

func TestRandomFormulasAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		c := NewContext()
		f := randTerm(c, rng, 3)
		want := bruteForceSat(f)
		s := NewSolver(c)
		s.Assert(f)
		got := s.Check() == sat.Sat
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v formula=%v", iter, got, want, f)
		}
		if got {
			// The extracted model must actually satisfy the formula.
			if !Eval(f, s.Model()).Bool {
				t.Fatalf("iter %d: model does not satisfy %v", iter, f)
			}
		}
	}
}

func TestQuickAddCommutes(t *testing.T) {
	// Property: bit-blasted addition agrees with machine addition.
	c := NewContext()
	x := c.BVVar("qx", 16)
	y := c.BVVar("qy", 16)
	sum := c.Add(x, y)
	err := quick.Check(func(a, b uint16) bool {
		asg := Assignment{"qx": {BV: uint64(a)}, "qy": {BV: uint64(b)}}
		return Eval(sum, asg).BV == uint64(a+b)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareAgreesWithUint(t *testing.T) {
	c := NewContext()
	x := c.BVVar("cx", 16)
	y := c.BVVar("cy", 16)
	le := c.Ule(x, y)
	lt := c.Ult(x, y)
	err := quick.Check(func(a, b uint16) bool {
		asg := Assignment{"cx": {BV: uint64(a)}, "cy": {BV: uint64(b)}}
		return Eval(le, asg).Bool == (a <= b) && Eval(lt, asg).Bool == (a < b)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlastAgainstEvalConcrete pins the bit-blaster against the evaluator:
// for random formulas, force each variable to a random concrete value and
// check the solver verdict matches Eval.
func TestBlastAgainstEvalConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 150; iter++ {
		c := NewContext()
		f := randTerm(c, rng, 4)
		asg := Assignment{
			"p": {Bool: rng.Intn(2) == 1},
			"q": {Bool: rng.Intn(2) == 1},
			"r": {Bool: rng.Intn(2) == 1},
			"a": {BV: uint64(rng.Intn(16))},
			"b": {BV: uint64(rng.Intn(16))},
		}
		s := NewSolver(c)
		s.Assert(f)
		// Pin all variables.
		for name, v := range asg {
			tm, okBool := c.vars[name]
			if !okBool {
				continue
			}
			if tm.IsBool() {
				if v.Bool {
					s.Assert(tm)
				} else {
					s.Assert(c.Not(tm))
				}
			} else {
				s.Assert(c.Eq(tm, c.BV(v.BV, tm.Width())))
			}
		}
		want := Eval(f, asg).Bool
		got := s.Check() == sat.Sat
		if got != want {
			t.Fatalf("iter %d: solver=%v eval=%v asg=%v formula=%v", iter, got, want, asg, f)
		}
	}
}

func TestSolverStatsExposed(t *testing.T) {
	c := NewContext()
	x := c.BVVar("zx", 8)
	s := NewSolver(c)
	s.Assert(c.Eq(c.Add(x, x), c.BV(8, 8)))
	s.Check()
	if s.SAT().NumVars() == 0 || s.SAT().NumClauses() == 0 {
		t.Fatal("expected blasting to create vars/clauses")
	}
}

func TestConflictBudgetPropagates(t *testing.T) {
	c := NewContext()
	// A moderately hard instance: multiplication-free but wide.
	x := c.BVVar("hx", 24)
	y := c.BVVar("hy", 24)
	s := NewSolver(c)
	s.Assert(c.Eq(c.Add(x, y), c.BV(0xABCDEF, 24)))
	s.SAT().MaxConflicts = 1
	// Whatever the verdict, the limited search must not hang; most likely
	// it solves instantly by propagation, so just ensure no panic and a
	// definite answer or budget error.
	st, err := s.SAT().SolveLimited()
	if st == sat.Unsolved && err == nil {
		t.Fatal("unsolved without budget error")
	}
}

func TestTermString(t *testing.T) {
	c := NewContext()
	f := c.And(c.BoolVar("x"), c.Ule(c.BVVar("u", 8), c.BV(5, 8)))
	got := f.String()
	if got == "" {
		t.Fatal("empty render")
	}
}

func TestBVAnd(t *testing.T) {
	c := NewContext()
	if c.BVAnd(c.BV(0b1100, 4), c.BV(0b1010, 4)) != c.BV(0b1000, 4) {
		t.Fatal("const fold")
	}
	x := c.BVVar("ax", 8)
	if c.BVAnd(x, c.BV(0, 8)) != c.BV(0, 8) {
		t.Fatal("and zero")
	}
	if c.BVAnd(x, c.BV(255, 8)) != x {
		t.Fatal("and ones")
	}
	if c.BVAnd(x, x) != x {
		t.Fatal("idempotent")
	}
	// Blast agreement: masked equality behaves like prefix matching.
	y := c.BVVar("ay", 8)
	maskedEq := c.Eq(c.BVAnd(x, c.BV(0xF0, 8)), c.BVAnd(y, c.BV(0xF0, 8)))
	err := quick.Check(func(a, b uint8) bool {
		asg := Assignment{"ax": {BV: uint64(a)}, "ay": {BV: uint64(b)}}
		return Eval(maskedEq, asg).Bool == (a&0xF0 == b&0xF0)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(c)
	s.Assert(maskedEq)
	s.Assert(c.Distinct(x, y))
	if st := s.Check(); st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	m := s.Model()
	if m["ax"].BV&0xF0 != m["ay"].BV&0xF0 || m["ax"].BV == m["ay"].BV {
		t.Fatalf("model %v", m)
	}
}

func TestDIMACSExport(t *testing.T) {
	c := NewContext()
	x := c.BVVar("dx", 4)
	y := c.BoolVar("dy")
	b := NewCNFBuilder(c)
	b.Assert(c.Or(y, c.Ult(x, c.BV(5, 4))))
	b.Assert(c.Not(y))
	var buf strings.Builder
	if err := b.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "p cnf ") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "c bv dx ->") || !strings.Contains(out, "c var dy ->") {
		t.Fatalf("missing variable map:\n%s", out)
	}
	// Every clause line ends with 0 and the counts match the header.
	var nv, nc int
	if _, err := fmt.Sscanf(out[strings.Index(out, "p cnf"):], "p cnf %d %d", &nv, &nc); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, l := range strings.Split(out, "\n") {
		if l != "" && !strings.HasPrefix(l, "c") && !strings.HasPrefix(l, "p") {
			if !strings.HasSuffix(l, " 0") && l != "0" {
				t.Fatalf("clause line %q does not end with 0", l)
			}
			lines++
		}
	}
	if lines != nc {
		t.Fatalf("header says %d clauses, wrote %d", nc, lines)
	}
	if st := b.Check(); st.String() != "sat" {
		t.Fatalf("builder check: %v", st)
	}
}
