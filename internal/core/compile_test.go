package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/smt"
	"repro/internal/testnets"
)

func encodeNet(t *testing.T, net *testnets.Net, opts Options) *Model {
	t.Helper()
	m, err := Encode(net.Graph, opts)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return m
}

func TestCompileCachesUntilAssertsGrow(t *testing.T) {
	m := encodeNet(t, testnets.Figure2(), DefaultOptions())
	cn1 := m.Compile()
	cn2 := m.Compile()
	if cn1 != cn2 {
		t.Fatal("repeated Compile with unchanged asserts must return the cached artifact")
	}
	if got := m.CompileCount(); got != 1 {
		t.Fatalf("CompileCount=%d, want 1", got)
	}
	if cn1.BaseLen != len(m.Asserts) {
		t.Fatalf("BaseLen=%d, want %d", cn1.BaseLen, len(m.Asserts))
	}

	// Growing the assert list (what property builders do) invalidates
	// the cache.
	m.AssertExtra(m.NoFailures())
	cn3 := m.Compile()
	if cn3 == cn1 {
		t.Fatal("Compile must rebuild after Asserts grows")
	}
	if got := m.CompileCount(); got != 2 {
		t.Fatalf("CompileCount=%d, want 2", got)
	}
}

func TestCompileCacheSeesSplicedAsserts(t *testing.T) {
	// EquivPair.Check temporarily swaps the assert list and restores it
	// afterwards; the cache must notice even when the length matches.
	m := encodeNet(t, testnets.Figure2(), DefaultOptions())
	cn1 := m.Compile()
	saved := m.Asserts
	replaced := append([]*smt.Term(nil), saved...)
	replaced[len(replaced)-1] = m.NoFailures()
	m.Asserts = replaced
	cn2 := m.Compile()
	if cn2 == cn1 {
		t.Fatal("Compile must rebuild when the last assert changes at equal length")
	}
	m.Asserts = saved
	cn3 := m.Compile()
	if cn3 == cn2 {
		t.Fatal("Compile must rebuild again when the original asserts are restored")
	}
}

func TestCompileHashContentAddressed(t *testing.T) {
	// Structurally identical networks hash equally across contexts...
	m1 := encodeNet(t, testnets.Figure2(), DefaultOptions())
	m2 := encodeNet(t, testnets.Figure2(), DefaultOptions())
	h1, h2 := m1.Compile().Hash(), m2.Compile().Hash()
	if h1 == "" || h1 != h2 {
		t.Fatalf("same network must compile to the same hash: %q vs %q", h1, h2)
	}
	// ...and different networks (or pipelines) hash differently.
	m3 := encodeNet(t, testnets.OSPFChain(3), DefaultOptions())
	if h3 := m3.Compile().Hash(); h3 == h1 {
		t.Fatal("different networks must not collide")
	}
	m4 := encodeNet(t, testnets.Figure2(), Options{Passes: "none"})
	if h4 := m4.Compile().Hash(); h4 == h1 {
		t.Fatal("different pipelines produce different systems")
	}
}

func TestCheckGoalMatchesCheck(t *testing.T) {
	net := testnets.OSPFChain(3)
	dst := testnets.StubIP(3)

	mc := encodeNet(t, net, DefaultOptions())
	prop := mc.Reach(mc.Main, false)["R1"]
	want, err := mc.CheckGoal(context.Background(), nil, prop, mc.NoFailures(), mc.Ctx.Eq(mc.DstIP, mc.Ctx.BV(uint64(dst), WidthIP)))
	if err != nil {
		t.Fatal(err)
	}

	mg := encodeNet(t, net, DefaultOptions())
	cn := mg.Compile()
	prop = mg.Reach(mg.Main, false)["R1"]
	got, err := mg.CheckGoal(context.Background(), cn, prop,
		mg.NoFailures(), mg.Ctx.Eq(mg.DstIP, mg.Ctx.BV(uint64(dst), WidthIP)))
	if err != nil {
		t.Fatal(err)
	}
	if want.Verified != got.Verified {
		t.Fatalf("CheckGoal verdict %v, Check verdict %v", got.Verified, want.Verified)
	}
	if sum := got.EncodeElapsed + got.SimplifyElapsed + got.ProbeElapsed + got.SolveElapsed + got.CertifyElapsed; got.Elapsed != sum {
		t.Fatalf("CheckGoal elapsed %v != phase sum %v", got.Elapsed, sum)
	}
}

func TestResultPassStatsItemized(t *testing.T) {
	m := encodeNet(t, testnets.Figure2(), DefaultOptions())
	res, err := m.CheckGoal(context.Background(), nil, m.Ctx.True())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PassStats) == 0 {
		t.Fatal("first check must itemize the compile passes it ran")
	}
	var names []string
	for _, st := range res.PassStats {
		names = append(names, st.Pass)
	}
	if got := strings.Join(names, " "); got != "propagate coi cnf-simplify" {
		t.Fatalf("PassStats read %q: %+v", got, res.PassStats)
	}

	// A second check reuses the cached artifact: no compile rows, but
	// the per-query rows stay.
	res2, err := m.CheckGoal(context.Background(), nil, m.Ctx.True())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res2.PassStats {
		if st.Pass == "propagate" {
			t.Fatalf("cached check must not charge the compile pass: %+v", res2.PassStats)
		}
	}
	if got := m.CompileCount(); got != 1 {
		t.Fatalf("CompileCount=%d, want 1 across repeated checks", got)
	}
}

func TestCheckContextCancellation(t *testing.T) {
	m := encodeNet(t, testnets.Figure2(), DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.CheckGoal(ctx, nil, m.Ctx.True()); err == nil {
		t.Fatal("canceled context must fail the check")
	}
}

// TestUnknownPassNamesTheKnownOnes: a name Options.Passes does not know —
// the two deleted ones included, which have no alias — is an error that
// lists the names it does.
func TestUnknownPassNamesTheKnownOnes(t *testing.T) {
	if got := strings.Join(PassNames(), ","); got != "hoist,slice,propagate,coi" {
		t.Fatalf("PassNames: %s", got)
	}
	for _, bad := range []string{"fold", "cse", "hoist,fold", "propagate, cse", "bogus"} {
		err := ValidatePasses(bad)
		if err == nil || !strings.Contains(err.Error(), "unknown pass") ||
			!strings.Contains(err.Error(), "hoist,slice,propagate,coi,all,none") {
			t.Errorf("ValidatePasses(%q) = %v", bad, err)
		}
		if _, err := Encode(testnets.StaticNull().Graph, Options{Passes: bad}); err == nil {
			t.Errorf("Encode accepted Passes %q", bad)
		}
	}
	for _, good := range []string{"", "all", "none", "hoist", "coi,propagate", " slice , coi "} {
		if err := ValidatePasses(good); err != nil {
			t.Errorf("ValidatePasses(%q) = %v", good, err)
		}
	}
}
