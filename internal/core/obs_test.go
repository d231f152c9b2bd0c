package core

import (
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/testnets"
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

// TestModelProgressHook wires a progress hook through Model.Check and
// verifies the snapshots respect the interval. The hijack query is easy,
// so the hook may legitimately not fire; the test asserts only interval
// correctness plus that wiring a hook is harmless.
func TestModelProgressHook(t *testing.T) {
	net := testnets.Hijackable(false)
	m, err := Encode(net.Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var snaps []sat.Progress
	m.ProgressEvery = 1
	m.OnProgress = func(p sat.Progress) {
		mu.Lock()
		snaps = append(snaps, p)
		mu.Unlock()
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
