package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/modular"
	"repro/internal/obs/stream"
)

// panicInSolve is an Engine.observe that makes a job's checks panic where
// their solve phase opens: the job's event sink is the hook, and the
// executor calls it at every phase boundary.
func panicInSolve(o *core.Options) {
	emit := o.OnEvent
	o.OnEvent = func(kind string, f map[string]any) {
		if kind == stream.EventPhaseStart && f["phase"] == "solve" {
			panic("boom inside the check")
		}
		emit(kind, f)
	}
}

// TestDaemonSurvivesPanickingCheck makes one check panic in the solve
// phase of a session check and holds the daemon to what a bug in the
// checker may cost: that job, with the stack on its flight recorder — not
// the worker, not the network, not a goroutine.
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
	e.mu.Unlock()
	e.observe = panicInSolve

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
	<-failed.Done()
	e.observe = nil
	stack := ""
	for _, ev := range failed.rec.Events() {
		if ev.Type == stream.EventJobFailed {
			stack, _ = ev.Data["stack"].(string)
		}
	}
	if !strings.Contains(stack, "panic_test.go") || !strings.Contains(stack, "core.(*Session).CheckContext") {
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

// TestModularPanicKeepsItsStack: a modular class check's panic, raised
// again on the job's goroutine by modular.Run, fails the job with the
// stack of the goroutine the check panicked on.
func TestModularPanicKeepsItsStack(t *testing.T) {
	pe := asPanic(&modular.TaskPanic{Value: "boom inside a class", Stack: []byte("the task's stack")})
	if pe.Error() != "internal error: boom inside a class" || string(pe.stack) != "the task's stack" {
		t.Fatalf("asPanic gave %q with stack %q", pe.Error(), pe.stack)
	}
}
