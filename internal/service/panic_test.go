package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/stream"
)

// TestDaemonSurvivesPanickingCheck makes one check panic in the middle of
// a session's search-side phases (the model's event sink is the hook: the
// executor calls it at every phase boundary) and holds the daemon to what
// a bug in the checker may cost: that job, with the stack on its flight
// recorder — not the worker, not the network, not a goroutine.
func TestDaemonSurvivesPanickingCheck(t *testing.T) {
	e := NewEngine(Options{Workers: 1, Timeout: 60 * time.Second, Core: core.Options{Tiers: "none"}})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	ask := func(src string) *Request {
		return &Request{Configs: chainConfigs(3), Spec: Spec{Check: "reachability", Src: src, Subnet: "10.100.3.0/24"}}
	}
	if _, v := postVerify(t, srv, ask("R1")); v == nil || !v.Verified {
		t.Fatalf("first request: %+v", v)
	}
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	// The network is built and idle: its next check panics.
	e.mu.Lock()
	if len(e.byParse) != 1 {
		t.Fatalf("%d network entries, want 1", len(e.byParse))
	}
	for _, ent := range e.byParse {
		ent.mu.Lock()
		ent.m.OnEvent = func(string, map[string]any) { panic("boom inside the check") }
		ent.mu.Unlock()
	}
	e.mu.Unlock()

	resp, _ := postVerify(t, srv, ask("R2"))
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || eb.Error != "internal error: boom inside the check" {
		t.Fatalf("status %d, error %q: want a 500 naming the panic", resp.StatusCode, eb.Error)
	}
	var failed *Job
	for _, v := range e.Jobs() {
		if v.Status == StatusFailed {
			failed, _ = e.Job(v.ID)
		}
	}
	if failed == nil {
		t.Fatalf("no failed job among %+v", e.Jobs())
	}
	stack := ""
	for _, ev := range failed.rec.Events() {
		if ev.Type == stream.EventJobFailed {
			stack, _ = ev.Data["stack"].(string)
		}
	}
	if !strings.Contains(stack, "panic_test.go") || !strings.Contains(stack, "core.(*Model).check") {
		t.Fatalf("job.failed carries no stack through the check to the panic:\n%s", stack)
	}

	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the panic: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	// The same request again: the entry was rebuilt, not served poisoned
	// and not answered from the cache.
	builds := e.Trace().Counter("service.session_builds")
	if _, v := postVerify(t, srv, ask("R2")); v == nil || !v.Verified || v.Cached {
		t.Fatalf("request after the panic: %+v", v)
	}
	if got := e.Trace().Counter("service.session_builds"); got != builds+1 {
		t.Fatalf("session builds %d -> %d, want the network rebuilt once", builds, got)
	}
	http.DefaultClient.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the panic", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestSchedulePanickingTask: a modular component check that panics on a
// helper worker is raised again on the goroutine that scheduled it, after
// the other tasks have run, and the helper lives.
func TestSchedulePanickingTask(t *testing.T) {
	e := newTestEngine(t, 3)
	var ran atomic.Int32
	tasks := make([]func(), 8)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			if ran.Add(1); i%2 == 1 {
				panic("boom inside a task")
			}
		}
	}
	func() {
		defer func() {
			pe, _ := recover().(*panicError)
			if pe == nil || pe.Error() != "internal error: boom inside a task" || !strings.Contains(string(pe.stack), "panic_test.go") {
				t.Errorf("schedule raised %+v, want the task's panic with its stack", pe)
			}
		}()
		e.schedule(tasks)
	}()
	if ran.Load() != 8 {
		t.Fatalf("%d of 8 tasks ran", ran.Load())
	}
	// All three workers still answer.
	for i := 1; i <= 3; i++ {
		if _, err := e.Verify(context.Background(), &Request{Configs: chainConfigs(i + 1),
			Spec: Spec{Check: "reachability", Src: "R1", Subnet: "10.100.1.0/24"}}); err != nil {
			t.Fatal(err)
		}
	}
}
