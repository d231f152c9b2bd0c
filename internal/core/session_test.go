package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/smt"
	"repro/internal/testnets"
)

// sessionQueries builds a mixed suite of properties over the Figure 2
// network: some verified, some violated, some with instrumentation-heavy
// builders (Tainted, PathLengths) that append model asserts.
func sessionQueries(t *testing.T, m *Model) []struct {
	name        string
	property    *smt.Term
	assumptions []*smt.Term
} {
	t.Helper()
	c := m.Ctx
	quiet := m.NoFailures()
	for _, n := range []string{"N1", "N2", "N3"} {
		quiet = c.And(quiet, c.Not(m.Main.Env[n].Valid))
	}
	// dst ∈ S3 = 10.3.3.0/24, the subnet attached to R3.
	dstS3 := c.Eq(c.BVAnd(m.DstIP, c.BV(uint64(0xffffff00), WidthIP)), c.BV(uint64(network.MustParseIP("10.3.3.0")), WidthIP))
	reach := m.Reach(m.Main, false)
	return []struct {
		name        string
		property    *smt.Term
		assumptions []*smt.Term
	}{
		{"reach-quiet", c.Implies(dstS3, reach["R1"]), []*smt.Term{quiet}},
		{"reach-any-env", c.Implies(dstS3, reach["R1"]), []*smt.Term{m.NoFailures()}},
		{"taint", c.True(), []*smt.Term{m.Tainted(m.Main, "R1")["R3"], m.NoFailures()}},
		{"lengths", func() *smt.Term {
			ln, w := m.PathLengths(m.Main)
			return c.Implies(c.And(dstS3, reach["R2"]), c.Ule(ln["R2"], c.BV(3, w)))
		}(), []*smt.Term{quiet}},
		{"trivial-false", c.False(), []*smt.Term{}},
	}
}

// TestSessionMatchesFreshSolver runs the same query suite through
// Model.CheckGoal (fresh solver each time) and Session.CheckContext, and
// demands identical verdicts with the shared formula blasted exactly once.
func TestSessionMatchesFreshSolver(t *testing.T) {
	net := testnets.Figure2()

	// Two models so the fresh flow's instrumentation asserts cannot
	// contaminate the session's model (builders mutate Model.Asserts).
	mFresh, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mSess, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess := mSess.NewSession()

	fresh := sessionQueries(t, mFresh)
	inc := sessionQueries(t, mSess)
	for i := range fresh {
		want, err := mFresh.CheckGoal(context.Background(), nil, fresh[i].property, fresh[i].assumptions...)
		if err != nil {
			t.Fatalf("%s fresh: %v", fresh[i].name, err)
		}
		got, err := sess.CheckContext(context.Background(), inc[i].property, inc[i].assumptions...)
		if err != nil {
			t.Fatalf("%s session: %v", inc[i].name, err)
		}
		if got.Verified != want.Verified {
			t.Fatalf("%s: session verified=%v, fresh verified=%v", inc[i].name, got.Verified, want.Verified)
		}
		if !got.Verified && got.Counterexample == nil {
			t.Fatalf("%s: violated without counterexample", inc[i].name)
		}
	}
	if sess.Checks() != len(inc) {
		t.Fatalf("checks=%d, want %d", sess.Checks(), len(inc))
	}
	// N is in the solver once: asking the first question again finds every
	// term blasted and adds one variable, its activation literal.
	vars := sess.sol.SAT().NumVars()
	again := sessionQueries(t, mSess)[0]
	if _, err := sess.CheckContext(context.Background(), again.property, again.assumptions...); err != nil {
		t.Fatal(err)
	}
	if grown := sess.sol.SAT().NumVars() - vars; grown != 1 {
		t.Fatalf("asking again added %d variables, want 1", grown)
	}
}

// TestSessionCounterexampleReplays decodes a session counterexample and
// confirms the concrete simulator reproduces it, i.e. session model
// extraction is as trustworthy as the fresh-solver path.
func TestSessionCounterexampleReplays(t *testing.T) {
	net := testnets.Hijackable(false)
	m, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession()
	cond := m.Ctx.And(
		m.Main.CtrlFwd["R2"][Hop{Ext: "N"}],
		m.NoFailures(),
		m.Ctx.Eq(m.DstIP, m.Ctx.BV(uint64(network.MustParseIP("192.168.50.1")), WidthIP)),
	)
	res, err := sess.CheckContext(context.Background(), m.Ctx.Not(cond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified || res.Counterexample == nil {
		t.Fatal("expected a witness for the hijack condition")
	}
	diffs, err := m.ReplayAgrees(res.Counterexample)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("replay disagrees with session counterexample: %v", diffs)
	}
}

// TestSessionCheckContextCanceled verifies an already-expired context is
// reported as its error without touching the solver, and that the session
// still answers afterwards.
func TestSessionCheckContextCanceled(t *testing.T) {
	net := testnets.Figure2()
	m, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.CheckContext(ctx, m.Ctx.False()); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// A live context still works, and the canceled attempt left no state.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	res, err := sess.CheckContext(ctx2, m.Ctx.True())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("true property must verify")
	}
}

// TestInstrumentationAssertedOnce repeats a query whose property needs
// every memoised instrumentation on a live session: the second build finds
// the first's terms, so the model grows no assert, the solver gains one
// variable (the activation literal) and at most one clause per top-level
// conjunct of the goals, and the verdict is the same.
func TestInstrumentationAssertedOnce(t *testing.T) {
	m, err := Encode(testnets.OSPFChain(4).Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession()
	c := m.Ctx
	var goals []*smt.Term
	query := func() (*Result, int, int) {
		lens, w := m.PathLengths(m.Main)
		avoiding := m.ReachAvoiding(m.Main, "R2", false)
		taint := m.Tainted(m.Main, "R1")
		prog := m.ChainProgress(m.Main, "R1", []string{"R2"})
		property := c.And(c.Ule(lens["R1"], c.BV(5, w)), c.Not(avoiding["R1"]),
			c.Implies(taint["R3"], prog["R3"][1]))
		goals = []*smt.Term{m.NoFailures(), c.Not(property)}
		res, err := sess.CheckContext(context.Background(), property, m.NoFailures())
		if err != nil {
			t.Fatal(err)
		}
		return res, sess.sol.SAT().NumVars(), sess.sol.SAT().NumClauses()
	}
	first, vars, clauses := query()
	asserts := len(m.Asserts)
	second, varsAfter, clausesAfter := query()
	if len(m.Asserts) != asserts {
		t.Errorf("the repeated query grew the model from %d to %d asserts", asserts, len(m.Asserts))
	}
	conjuncts := 0
	var count func(*smt.Term)
	count = func(g *smt.Term) {
		switch g.Op() {
		case smt.OpTrue:
		case smt.OpAnd:
			for _, k := range g.Kids() {
				count(k)
			}
		default:
			conjuncts++
		}
	}
	for _, g := range goals {
		count(g)
	}
	if varsAfter != vars+1 || clausesAfter <= clauses || clausesAfter > clauses+conjuncts {
		t.Errorf("the repeated query took the solver from %d vars, %d clauses to %d, %d; its goals have %d conjuncts",
			vars, clauses, varsAfter, clausesAfter, conjuncts)
	}
	if second.Verified != first.Verified {
		t.Errorf("verdict %v, then %v", first.Verified, second.Verified)
	}
	// Other arguments are another instrumentation.
	m.ReachAvoiding(m.Main, "R3", false)
	m.ChainProgress(m.Main, "R1", []string{"R3"})
	if len(m.Asserts) == asserts {
		t.Error("a new waypoint and a new chain asserted nothing")
	}
}
