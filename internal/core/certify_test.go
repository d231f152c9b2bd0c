package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/smt"
	"repro/internal/testnets"
)

func certifyOptions() Options {
	o := DefaultOptions()
	o.Certify = true
	return o
}

// TestCertifyFreshCheck: with Options.Certify on, every UNSAT verdict of
// Model.CheckGoal carries a checked certificate; SAT verdicts carry none.
func TestCertifyFreshCheck(t *testing.T) {
	net := testnets.OSPFChain(3)
	m, err := Encode(net.Graph, certifyOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := m.Ctx

	res, err := m.CheckGoal(context.Background(), nil, c.True()) // ¬True is unsatisfiable outright
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("trivially true property not verified")
	}
	if res.Certificate == nil || !res.Certificate.Checked {
		t.Fatalf("verified verdict without checked certificate: %+v", res.Certificate)
	}
	if res.Certificate.Steps == 0 || res.Certificate.Inputs == 0 {
		t.Fatalf("degenerate certificate: %+v", res.Certificate)
	}

	res, err = m.CheckGoal(context.Background(), nil, c.False()) // any stable state violates False
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified {
		t.Fatal("False verified")
	}
	if res.Certificate != nil {
		t.Fatal("SAT verdict carries a certificate")
	}
}

// TestCertifyRealProperty runs a meaningful verified property through
// certification: reachability of the stub owner under no failures.
func TestCertifyRealProperty(t *testing.T) {
	net := testnets.OSPFChain(3)
	m, err := Encode(net.Graph, certifyOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := m.Ctx
	dst := testnets.StubIP(3)
	prop := m.Reach(m.Main, true)["R1"]
	pin := c.Eq(m.DstIP, c.BV(uint64(dst), WidthIP))
	res, err := m.CheckGoal(context.Background(), nil, prop, m.NoFailures(), pin)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("R1 should reach R3's stub with no failures")
	}
	if res.Certificate == nil || res.Certificate.Lemmas < 0 {
		t.Fatalf("missing certificate: %+v", res.Certificate)
	}
}

// TestCertifySession: session UNSATs are certified under the activation
// literal, across several checks of the same session.
func TestCertifySession(t *testing.T) {
	net := testnets.OSPFChain(3)
	m, err := Encode(net.Graph, certifyOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := m.Ctx
	s := m.NewSession()
	dst := testnets.StubIP(3)
	pin := c.Eq(m.DstIP, c.BV(uint64(dst), WidthIP))
	prop := m.Reach(m.Main, true)["R1"]
	for i := 0; i < 3; i++ {
		res, err := s.CheckContext(context.Background(), prop, m.NoFailures(), pin)
		if err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
		if !res.Verified {
			t.Fatalf("check %d: not verified", i)
		}
		if res.Certificate == nil || !res.Certificate.Checked {
			t.Fatalf("check %d: no certificate", i)
		}
	}
	// A falsified query in the same session: no certificate, no error.
	res, err := s.CheckContext(context.Background(), c.False())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified || res.Certificate != nil {
		t.Fatalf("False query: verified=%v cert=%v", res.Verified, res.Certificate)
	}
}

// TestSessionInvalidated is the regression for the stale-session fix:
// replacing or truncating already-blasted asserts must turn later session
// checks into ErrSessionInvalidated, not silently stale verdicts.
// Restoring the original assert list heals the session.
func TestSessionInvalidated(t *testing.T) {
	net := testnets.OSPFChain(2)
	m, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := m.Ctx
	s := m.NewSession()
	if _, err := s.CheckContext(context.Background(), c.True()); err != nil {
		t.Fatalf("baseline check: %v", err)
	}

	// Splice: same length, different final assert — the EquivPair.Check
	// pattern applied to already-blasted entries.
	saved := m.Asserts
	spliced := append([]*smt.Term(nil), saved...)
	spliced[len(spliced)-1] = c.True()
	m.Asserts = spliced
	if _, err := s.CheckContext(context.Background(), c.True()); !errors.Is(err, ErrSessionInvalidated) {
		t.Fatalf("spliced asserts: got err=%v, want ErrSessionInvalidated", err)
	}

	// Truncation below the blasted prefix.
	m.Asserts = saved[:len(saved)-1]
	if _, err := s.CheckContext(context.Background(), c.True()); !errors.Is(err, ErrSessionInvalidated) {
		t.Fatalf("truncated asserts: got err=%v, want ErrSessionInvalidated", err)
	}

	// Restore: the blasted prefix is intact again, checks resume.
	m.Asserts = saved
	if _, err := s.CheckContext(context.Background(), c.True()); err != nil {
		t.Fatalf("restored asserts: %v", err)
	}

	// Appending (the supported builder pattern) keeps working.
	m.Asserts = append(m.Asserts, c.True())
	if _, err := s.CheckContext(context.Background(), c.True()); err != nil {
		t.Fatalf("appended asserts: %v", err)
	}
}

// TestLocalEquivalenceCertified: the local-equivalence sweep's solver
// queries are certified like any check. On examples/equivalence, A's and
// B's import maps differ in text but not in effect: the pair reaches the
// solver and is verified with one checked certificate summing the sweep's
// proofs. C's map differs in effect: A and C are falsified. Both verdicts
// carry the sweep's solver counts, and recording the proofs does not
// change the search.
func TestLocalEquivalenceCertified(t *testing.T) {
	files, err := filepath.Glob("../../examples/equivalence/*.cfg")
	if err != nil || len(files) != 3 {
		t.Fatalf("example configs %v: %v", files, err)
	}
	var texts []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, string(b))
	}
	g := testnets.MustBuild(texts...).Graph

	eq, err := CheckLocalEquivalence(g, "A", "B", certifyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cert := eq.Certificate; !eq.Equivalent || cert == nil || !cert.Checked || cert.Lemmas == 0 || cert.Fallbacks != 0 {
		t.Fatalf("want a verified sweep with a checked, hinted certificate: %+v, certificate %+v", eq, eq.Certificate)
	}
	if eq.Stats.Conflicts == 0 || eq.SATVars == 0 || eq.SATClauses == 0 {
		t.Fatalf("verified sweep without solver counts: %+v", eq)
	}
	plain, err := CheckLocalEquivalence(g, "A", "B", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equivalent || plain.Certificate != nil || plain.Stats != eq.Stats || plain.SATClauses != eq.SATClauses {
		t.Fatalf("uncertified sweep %+v, certified %+v", plain, eq)
	}

	div, err := CheckLocalEquivalence(g, "A", "C", certifyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if div.Equivalent || !strings.Contains(div.Difference, "local-preference") || div.Stats.Decisions == 0 || div.SATVars == 0 {
		t.Fatalf("want a falsified sweep naming local-preference, with solver counts: %+v", div)
	}
}
