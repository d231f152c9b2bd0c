package service

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/obs/stream"
	"repro/internal/pipeline"
)

// editConfigs returns a copy of cfgs whose file is parsed, changed by
// edit and printed again.
func editConfigs(t *testing.T, cfgs map[string]string, file string, edit func(*config.Router)) map[string]string {
	t.Helper()
	r, err := config.Parse(cfgs[file])
	if err != nil {
		t.Fatal(err)
	}
	edit(r)
	out := make(map[string]string, len(cfgs))
	for n, text := range cfgs {
		out[n] = text
	}
	out[file] = config.Print(r)
	return out
}

// linkCostEdit is a link-cost edit of a chain: R2's first interface costs
// 7. The wiring is the chain's.
func linkCostEdit(t *testing.T, cfgs map[string]string) map[string]string {
	return editConfigs(t, cfgs, "r2.cfg", func(r *config.Router) { r.Interfaces[0].OSPFCost = 7 })
}

// entryOf is the network entry the engine resolved cfgs to.
func entryOf(t *testing.T, e *Engine, cfgs map[string]string) *netEntry {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	slot := e.nets[configHash(cfgs)]
	if slot == nil || slot.ent == nil {
		t.Fatal("the engine holds no entry for these configs")
	}
	return slot.ent
}

// singleShot answers spec on cfgs the way the CLI does: one pipeline.Run
// on a fresh load, no engine.
func singleShot(t *testing.T, cfgs map[string]string, spec Spec, tiers string) bool {
	t.Helper()
	net, err := pipeline.Load(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	goal, err := spec.Normalize().Goal()
	if err != nil {
		t.Fatal(err)
	}
	var opts pipeline.Options
	opts.Core.Tiers = tiers
	v, err := pipeline.Run(context.Background(), net, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v.Result.Verified
}

// TestEditedCopyEarnsItsSession: a network whose wiring the engine holds
// already is an edited copy. Its first solver question is answered on a
// fresh solver and leaves no solver behind; its second opens its session
// and its third reuses it. Every other network opens its session eagerly.
func TestEditedCopyEarnsItsSession(t *testing.T) {
	held := chainConfigs(3)
	reach := Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"}
	questions := []Spec{
		reach,
		{Check: "bounded-length", Src: "R1", Subnet: "10.100.3.0/24", Hops: 1},
		{Check: "isolation", Src: "R3", Subnet: "10.100.1.0/24"},
	}
	counter := func(e *Engine, name string) int64 { return e.Trace().Counter("service." + name) }

	t.Run("link-cost edit", func(t *testing.T) {
		e := newSATTestEngine(t, 1)
		if _, err := e.Verify(context.Background(), &Request{Configs: held, Spec: reach}); err != nil {
			t.Fatal(err)
		}
		edited := linkCostEdit(t, held)
		// Each question's counters after it: sessions opened, fresh checks,
		// session checks, session reuses.
		want := [][4]int64{{1, 1, 1, 0}, {2, 1, 2, 0}, {2, 1, 3, 1}}
		for i, spec := range questions {
			v, err := e.Verify(context.Background(), &Request{Configs: edited, Spec: spec})
			if err != nil {
				t.Fatalf("question %d: %v", i+1, err)
			}
			if v.Cached || v.Tier != "" {
				t.Fatalf("question %d: cached=%v tier=%q, want a solver answer", i+1, v.Cached, v.Tier)
			}
			if ss := singleShot(t, edited, spec, "none"); v.Verified != ss {
				t.Fatalf("question %d (%s): engine %v, single-shot %v", i+1, spec.Check, v.Verified, ss)
			}
			got := [4]int64{counter(e, "session_builds"), counter(e, "fresh_checks"),
				counter(e, "session_checks"), counter(e, "session_reuse")}
			if got != want[i] {
				t.Fatalf("question %d: builds, fresh, session checks, reuse = %v, want %v", i+1, got, want[i])
			}
			if i == 0 {
				ent := entryOf(t, e, edited)
				ent.mu.Lock()
				sess, m := ent.sess, ent.m
				ent.mu.Unlock()
				if sess != nil || m == nil {
					t.Fatalf("after the fresh check: session %v, model %v; want a model and no solver", sess, m)
				}
			}
		}
	})

	t.Run("added interface", func(t *testing.T) {
		e := newSATTestEngine(t, 1)
		if _, err := e.Verify(context.Background(), &Request{Configs: held, Spec: reach}); err != nil {
			t.Fatal(err)
		}
		rewired := editConfigs(t, held, "r1.cfg", func(r *config.Router) {
			r.Interfaces = append(r.Interfaces, &config.Interface{Name: "Loopback9",
				Addr: network.MustParseIP("192.0.2.1"), Prefix: network.MustParsePrefix("192.0.2.0/24")})
		})
		if _, err := e.Verify(context.Background(), &Request{Configs: rewired, Spec: reach}); err != nil {
			t.Fatal(err)
		}
		if b, f := counter(e, "session_builds"), counter(e, "fresh_checks"); b != 2 || f != 0 {
			t.Fatalf("session_builds=%d fresh_checks=%d, want 2 and 0: new wiring is a new network", b, f)
		}
	})

	t.Run("graph tier answers", func(t *testing.T) {
		e := newTestEngine(t, 1)
		if _, err := e.Verify(context.Background(), &Request{Configs: held, Spec: reach}); err != nil {
			t.Fatal(err)
		}
		compiles := counter(e, "compiles")
		edited := linkCostEdit(t, held)
		v, err := e.Verify(context.Background(), &Request{Configs: edited, Spec: reach})
		if err != nil {
			t.Fatal(err)
		}
		if v.Tier != "graph" || !v.Verified {
			t.Fatalf("verdict tier=%q verified=%v, want a verified graph-tier answer", v.Tier, v.Verified)
		}
		ent := entryOf(t, e, edited)
		ent.mu.Lock()
		defer ent.mu.Unlock()
		if ent.m != nil || counter(e, "compiles") != compiles {
			t.Fatal("an edited copy answered by the graph tier was encoded")
		}
	})

	t.Run("work budget", func(t *testing.T) {
		e := NewEngine(Options{
			Workers: 1, Timeout: 60 * time.Second, Core: core.Options{Tiers: "none"},
			WorkBudget: 1, ProgressEvery: 1,
		})
		t.Cleanup(e.Close)
		if _, err := e.Verify(context.Background(), &Request{Configs: held, Spec: reach}); err != nil {
			t.Fatal(err)
		}
		builds := counter(e, "session_builds")
		req := &Request{Configs: linkCostEdit(t, held), Spec: reach}
		v, err := e.Verify(context.Background(), req)
		if err != nil {
			t.Fatalf("budget breach must not fail the job: %v", err)
		}
		if v.Budget == nil || v.Budget.Exceeded != "work" || v.Verified {
			t.Fatalf("verdict %+v, budget %+v: want an unverified work breach", v, v.Budget)
		}
		if got := counter(e, "session_builds"); got != builds {
			t.Fatalf("session_builds %d -> %d: the first question was not answered fresh", builds, got)
		}
		// A budget_exceeded verdict is not cached: the repeat is the edited
		// copy's second solver question, a session check. The fresh check
		// counted from zero, so it charged the propagations of loading the
		// network into its solver too; the session check counts from the
		// session's running total, past that set-up.
		v2, err := e.Verify(context.Background(), req)
		if err != nil || v2.Cached || v2.Budget == nil || counter(e, "session_builds") != builds+1 {
			t.Fatalf("repeat: %+v, %v; want an uncached budget trip on a new session", v2, err)
		}
		if v.Budget.Observed <= v2.Budget.Observed {
			t.Fatalf("fresh check spent %d units, session check %d: want the fresh check to charge its set-up too",
				v.Budget.Observed, v2.Budget.Observed)
		}
	})

	t.Run("panic", func(t *testing.T) {
		e := newSATTestEngine(t, 1)
		if _, err := e.Verify(context.Background(), &Request{Configs: held, Spec: reach}); err != nil {
			t.Fatal(err)
		}
		edited := linkCostEdit(t, held)
		if _, err := e.Verify(context.Background(), &Request{Configs: edited, Spec: reach}); err != nil {
			t.Fatal(err)
		}
		// The fresh check left the edited copy's model: the second solver
		// question opens its session, and the search on it panics.
		ent := entryOf(t, e, edited)
		e.observe = panicInSolve
		j, err := e.Submit(&Request{Configs: edited, Spec: questions[1]})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		e.observe = nil
		if err := j.Err(); err == nil || err.Error() != "internal error: boom inside the check" {
			t.Fatalf("job error %v, want the panic", err)
		}
		stack := ""
		for _, ev := range j.rec.Events() {
			if ev.Type == stream.EventJobFailed {
				stack, _ = ev.Data["stack"].(string)
			}
		}
		if !strings.Contains(stack, "core.(*Session).CheckContext") {
			t.Fatalf("the panic did not come through the session check:\n%s", stack)
		}
		ent.mu.Lock()
		reset := !ent.built && ent.m == nil && ent.sess == nil
		ent.mu.Unlock()
		if !reset {
			t.Fatal("the entry kept what the panicking check left")
		}

		// The entry is an edited copy again, on its first solver question.
		builds, fresh := counter(e, "session_builds"), counter(e, "fresh_checks")
		v, err := e.Verify(context.Background(), &Request{Configs: edited, Spec: questions[1]})
		if err != nil || v.Cached || v.Verified != singleShot(t, edited, questions[1], "none") {
			t.Fatalf("request after the panic: %+v, %v", v, err)
		}
		if counter(e, "session_builds") != builds || counter(e, "fresh_checks") != fresh+1 {
			t.Fatal("the rebuilt edited copy did not answer its first solver question fresh")
		}
	})
}

// BenchmarkDaemonEdits is the edit traffic of the daemon-mixed workload on
// its own: one engine holding one netgen network, and per op eight
// link-cost edits of it, each asked one solver question, with a new
// question about the held network between them. It reports the sessions
// the op built and the live heap after runtime.GC with the engine still
// holding everything: a session an edit never asks again is pure memory.
func BenchmarkDaemonEdits(b *testing.B) {
	g, err := netgen.Audit(8)
	if err != nil {
		b.Fatal(err)
	}
	texts := func(edit int) map[string]string {
		cfgs := make(map[string]string, len(g.Routers))
		for _, r := range g.Routers {
			c, err := config.Parse(config.Print(r))
			if err != nil {
				b.Fatal(err)
			}
			if edit > 0 && c.Name == g.Access[0] {
				c.Iface("Eth0").OSPFCost = 1 + edit
			}
			cfgs[c.Name+".cfg"] = config.Print(c)
		}
		return cfgs
	}
	const edits = 8
	subnet := "10.10.0.0/24"
	held, edited := texts(0), make([]map[string]string, edits)
	for k := range edited {
		edited[k] = texts(k + 1)
	}
	var sessions int64
	var heap uint64
	for i := 0; i < b.N; i++ {
		e := NewEngine(Options{Workers: 1, Timeout: time.Minute, Core: core.Options{Tiers: "none"}})
		ask := func(cfgs map[string]string, src string) {
			spec := Spec{Check: "reachability", Src: src, Subnet: subnet}
			if _, err := e.Verify(context.Background(), &Request{Configs: cfgs, Spec: spec}); err != nil {
				b.Fatal(err)
			}
		}
		for k := range edited {
			ask(held, g.Routers[k%len(g.Routers)].Name)
			ask(edited[k], g.Borders[0])
		}
		b.StopTimer()
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heap = ms.HeapAlloc
		sessions += e.Trace().Counter("service.session_builds")
		e.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(sessions)/float64(b.N), "sessions/op")
	b.ReportMetric(float64(heap)/(1<<20), "live-MB")
}
