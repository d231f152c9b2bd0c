package core

import (
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/testnets"
	"repro/internal/topogen"
)

// TestCheckSpans checks that a traced Encode+Check emits the expected span
// hierarchy, with every span closed and child durations bounded by their
// parents.
func TestCheckSpans(t *testing.T) {
	tr := obs.New("verify")
	opts := DefaultOptions()
	opts.Span = tr.Root()
	net := testnets.Hijackable(false)
	m, err := Encode(net.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Check(m.Ctx.True()); err != nil {
		t.Fatal(err)
	}
	tr.Root().End()

	for _, name := range []string{"encode", "analyze", "slice:main", "check", "compile", "blast", "simplify", "solve"} {
		sp := tr.Root().Find(name)
		if sp == nil {
			t.Fatalf("span %q missing from trace", name)
		}
		if !sp.Ended() {
			t.Fatalf("span %q not closed", name)
		}
	}
	// Nesting: check owns its phases (the compile this query triggered
	// among them); encode owns the slices.
	check := tr.Root().Find("check")
	if check.Find("solve") == nil || check.Find("blast") == nil || check.Find("compile") == nil {
		t.Fatal("solve/blast/compile not nested under check")
	}
	if tr.Root().Find("encode").Find("slice:main") == nil {
		t.Fatal("slice span not nested under encode")
	}
	check.Walk(func(sp *obs.Span, depth int) {
		if sp.Duration() > check.Duration() {
			t.Fatalf("child %q (%v) outlives parent check (%v)", sp.Name(), sp.Duration(), check.Duration())
		}
	})
	if v, ok := check.Find("blast").Attr("sat_vars"); !ok || v.Int <= 0 {
		t.Fatalf("blast span missing sat_vars attr: %+v", v)
	}
}

// TestModelProgressHook wires a progress hook through the Options a
// model is encoded with and verifies the snapshots of its Check respect
// the interval. The hijack query is easy, so the hook may legitimately
// not fire; the test asserts only interval correctness plus that wiring
// a hook is harmless.
func TestModelProgressHook(t *testing.T) {
	net := testnets.Hijackable(false)
	var mu sync.Mutex
	var snaps []sat.Progress
	opts := DefaultOptions()
	opts.ProgressEvery = 1
	opts.OnProgress = func(p sat.Progress) {
		mu.Lock()
		snaps = append(snaps, p)
		mu.Unlock()
	}
	m, err := Encode(net.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Check(m.Ctx.Not(m.Main.CtrlFwd["R2"][Hop{Ext: "N"}]))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if int64(len(snaps)) != res.Stats.Conflicts {
		t.Fatalf("interval 1: %d snapshots for %d conflicts", len(snaps), res.Stats.Conflicts)
	}
	for i, p := range snaps {
		if p.Conflicts != int64(i+1) {
			t.Fatalf("snapshot %d reports %d conflicts", i, p.Conflicts)
		}
	}
}

// TestSessionProgressHookPerCheck: a session check reports to the progress
// hook its model's options carry when the check begins, counting from the
// check's start as its Result.Stats does, and leaves the session's solver
// holding no hook.
func TestSessionProgressHookPerCheck(t *testing.T) {
	ft, err := topogen.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Encode(graphOf(t, ft.Routers), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reach := m.Reach(m.Main, true)
	sess := m.NewSession()
	for _, src := range []string{"tor-0-0", "tor-1-0"} {
		var snaps []sat.Progress
		m.Opts.ProgressEvery = 1
		m.Opts.OnProgress = func(p sat.Progress) { snaps = append(snaps, p) }
		res, err := sess.Check(reach[src], m.NoFailures())
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Conflicts == 0 || int64(len(snaps)) != res.Stats.Conflicts {
			t.Fatalf("%s: %d snapshots for %d conflicts", src, len(snaps), res.Stats.Conflicts)
		}
		for i, p := range snaps {
			if p.Conflicts != int64(i+1) {
				t.Fatalf("%s: snapshot %d reports %d conflicts, want the check's own count", src, i, p.Conflicts)
			}
		}
		if sess.sol.SAT().OnProgress != nil {
			t.Fatalf("%s: the session's solver kept the finished check's hook", src)
		}
	}
}
