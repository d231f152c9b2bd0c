package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/stream"
)

// sseMsg is one parsed Server-Sent Events message.
type sseMsg struct {
	ID    uint64
	Event string
	Data  stream.Event
}

// readSSE parses SSE messages off r and delivers them on the returned
// channel, closing it on stream end or read error.
func readSSE(t *testing.T, r *bufio.Reader) <-chan sseMsg {
	t.Helper()
	ch := make(chan sseMsg, 64)
	go func() {
		defer close(ch)
		var msg sseMsg
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case line == "":
				if msg.Event != "" {
					ch <- msg
				}
				msg = sseMsg{}
			case strings.HasPrefix(line, "id: "):
				msg.ID, _ = strconv.ParseUint(line[4:], 10, 64)
			case strings.HasPrefix(line, "event: "):
				msg.Event = line[7:]
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(line[6:]), &msg.Data); err != nil {
					t.Errorf("bad SSE data %q: %v", line, err)
				}
			}
		}
	}()
	return ch
}

// collectSSE drains the channel until it closes or the deadline hits.
func collectSSE(ch <-chan sseMsg, d time.Duration) []sseMsg {
	var out []sseMsg
	deadline := time.After(d)
	for {
		select {
		case m, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, m)
		case <-deadline:
			return out
		}
	}
}

// insertJob plants a running job with the given recorder directly into
// the engine, so SSE live-follow semantics can be tested without racing
// a real solver.
func insertJob(e *Engine, id string, rec *stream.Recorder) *Job {
	j := &Job{
		ID:      id,
		done:    make(chan struct{}),
		rec:     rec,
		status:  StatusRunning,
		created: time.Now(),
		started: time.Now(),
	}
	e.mu.Lock()
	e.jobs[id] = j
	e.mu.Unlock()
	return j
}

// TestSSEEndToEnd follows a real job's flight recorder over HTTP after
// it finishes: the replayed stream starts at submission, carries the
// phase and solver milestones in order, ends with the terminal event,
// and the connection closes by itself (the recorder is sealed).
func TestSSEEndToEnd(t *testing.T) {
	e := NewEngine(Options{Workers: 1, Timeout: 60 * time.Second, ProgressEvery: 1})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	_, v := postVerify(t, srv, &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	})
	if v == nil || !v.Verified {
		t.Fatalf("setup query did not verify: %+v", v)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + v.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	msgs := collectSSE(readSSE(t, bufio.NewReader(resp.Body)), 10*time.Second)
	if len(msgs) < 4 {
		t.Fatalf("got %d SSE messages, want a full timeline", len(msgs))
	}
	if msgs[0].Event != stream.EventJobSubmitted {
		t.Fatalf("first event %q, want %q", msgs[0].Event, stream.EventJobSubmitted)
	}
	if last := msgs[len(msgs)-1].Event; last != stream.EventJobDone {
		t.Fatalf("last event %q, want %q", last, stream.EventJobDone)
	}
	var lastSeq uint64
	verdictAt, progressAt := -1, -1
	for i, m := range msgs {
		if m.ID <= lastSeq {
			t.Fatalf("event ids not increasing: %d after %d", m.ID, lastSeq)
		}
		lastSeq = m.ID
		switch m.Event {
		case stream.EventVerdict:
			verdictAt = i
		case stream.EventSolverProgress:
			if progressAt == -1 {
				progressAt = i
			}
		}
	}
	if verdictAt == -1 {
		t.Fatal("no verdict event in the stream")
	}
	// A verified (UNSAT) answer needs conflicts, and ProgressEvery=1
	// reports each one — before the verdict, by construction.
	if v.Solver != nil && v.Solver.Conflicts > 0 {
		if progressAt == -1 {
			t.Fatal("no solver.progress events despite conflicts")
		}
		if progressAt > verdictAt {
			t.Fatalf("solver.progress at %d after verdict at %d", progressAt, verdictAt)
		}
	}
}

// TestSSEMilestonesPrecedeTheVerdict is the daemon's row of the phase
// accounts (pipeline.TestPhaseAccounts holds the identities): on a blamed,
// certified SAT-tier job every phase is on the stream as a start/end pair
// under the ledger's name — the session set-up's among them, inside the
// build — and each pass, certify.done and blame.done arrive where they
// happened, before the verdict that reports them.
func TestSSEMilestonesPrecedeTheVerdict(t *testing.T) {
	e := NewEngine(Options{Workers: 1, Timeout: 60 * time.Second, Core: core.Options{Tiers: "none", Blame: true}})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	_, v := postVerify(t, srv, &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	})
	if v == nil || !v.Verified || v.Proof == nil || len(v.Blame) == 0 {
		t.Fatalf("setup query: %+v", v)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + v.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	at := map[string]int{}    // event (or "phase.start|end:<name>") → last position
	first := map[string]int{} // … → first position
	var open []string
	for i, m := range collectSSE(readSSE(t, bufio.NewReader(resp.Body)), 10*time.Second) {
		key := m.Event
		switch m.Event {
		case stream.EventPhaseStart:
			open = append(open, m.Data.Data["phase"].(string))
			key += ":" + open[len(open)-1]
		case stream.EventPhaseEnd:
			name := m.Data.Data["phase"].(string)
			if len(open) == 0 || open[len(open)-1] != name {
				t.Fatalf("phase.end %q closes %v", name, open)
			}
			open = open[:len(open)-1]
			key += ":" + name
		}
		at[key] = i
		if _, ok := first[key]; !ok {
			first[key] = i
		}
	}
	if len(open) != 0 {
		t.Fatalf("phases left open: %v", open)
	}
	verdict, ok := at[stream.EventVerdict]
	if !ok {
		t.Fatal("no verdict event")
	}
	for _, before := range []string{stream.EventPass, stream.EventCertify, stream.EventBlame,
		"phase.end:build", "phase.end:build-model", "phase.end:property", "phase.end:compile", "phase.end:blast",
		"phase.end:simplify", "phase.end:solve", "phase.end:certify", "phase.end:blame"} {
		if i, ok := at[before]; !ok || i > verdict {
			t.Errorf("%s at %d (present %v), verdict at %d", before, i, ok, verdict)
		}
	}
	// The build only graphs the network; the solver question encodes it
	// and opens its session, so every set-up phase sits inside build-model.
	start, end := at["phase.start:build-model"], at["phase.end:build-model"]
	if at["phase.end:build"] > start {
		t.Error("build-model began before the build ended")
	}
	for _, p := range []string{"compile", "blast", "simplify"} {
		if first["phase.start:"+p] < start || first["phase.end:"+p] > end {
			t.Errorf("the session set-up's %s phase is not inside build-model", p)
		}
	}
}

// TestSSELiveFollowAndResume exercises the live path deterministically
// on a planted job: a follower receives events emitted after it
// connected, a reconnect with Last-Event-ID resumes without duplicates,
// and closing the recorder ends both streams.
func TestSSELiveFollowAndResume(t *testing.T) {
	e := newTestEngine(t, 1)
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	rec := stream.NewRecorder(64)
	insertJob(e, "job-live01", rec)
	rec.Emit("phase.start", map[string]any{"phase": "warmup"})

	resp, err := http.Get(srv.URL + "/v1/jobs/job-live01/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ch := readSSE(t, bufio.NewReader(resp.Body))

	// The buffered event replays first.
	first := <-ch
	if first.Event != "phase.start" || first.ID != 1 {
		t.Fatalf("replay event %+v", first)
	}
	// Live events arrive as they are emitted.
	for i := 0; i < 3; i++ {
		rec.Emit("solver.progress", map[string]any{"conflicts": i})
		m, ok := <-ch
		if !ok {
			t.Fatal("live stream ended early")
		}
		if m.Event != "solver.progress" || m.ID != uint64(2+i) {
			t.Fatalf("live event %d: %+v", i, m)
		}
	}

	// Reconnect resuming after seq 2: only 3..4 replay.
	r2, err := http.Get(srv.URL + "/v1/jobs/job-live01/events?after=2")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	ch2 := readSSE(t, bufio.NewReader(r2.Body))
	if m := <-ch2; m.ID != 3 {
		t.Fatalf("resume replayed seq %d, want 3", m.ID)
	}
	if m := <-ch2; m.ID != 4 {
		t.Fatalf("resume replayed seq %d, want 4", m.ID)
	}

	rec.Close()
	for range ch {
	}
	for range ch2 {
	}
	if n := rec.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers after close", n)
	}
}

// TestSSEMidStreamDisconnect: a client that drops mid-stream must
// unsubscribe promptly (no handler goroutine keeps following a gone
// client), and emitting afterwards must not block or panic.
func TestSSEMidStreamDisconnect(t *testing.T) {
	e := newTestEngine(t, 1)
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	rec := stream.NewRecorder(64)
	insertJob(e, "job-drop01", rec)

	resp, err := http.Get(srv.URL + "/v1/jobs/job-drop01/events")
	if err != nil {
		t.Fatal(err)
	}
	ch := readSSE(t, bufio.NewReader(resp.Body))
	rec.Emit("tick", nil)
	if m, ok := <-ch; !ok || m.Event != "tick" {
		t.Fatalf("live event before disconnect: %+v ok=%v", m, ok)
	}

	resp.Body.Close() // client walks away mid-stream
	deadline := time.Now().Add(5 * time.Second)
	for rec.Subscribers() != 0 && time.Now().Before(deadline) {
		rec.Emit("tick", nil) // emits keep flowing; handler notices the dead client
		time.Sleep(10 * time.Millisecond)
	}
	if n := rec.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers still registered after disconnect", n)
	}
	rec.Close()
}

// TestSSEConcurrentSubscribers follows one job from several clients at
// once (run under -race in CI): every client sees strictly increasing
// sequence numbers and all streams end on Close.
func TestSSEConcurrentSubscribers(t *testing.T) {
	e := newTestEngine(t, 1)
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	rec := stream.NewRecorder(256)
	insertJob(e, "job-fan01", rec)

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/jobs/job-fan01/events")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var last uint64
			for m := range readSSE(t, bufio.NewReader(resp.Body)) {
				if m.ID <= last {
					errs <- fmt.Errorf("client %d: seq %d after %d", c, m.ID, last)
					return
				}
				last = m.ID
			}
			if last == 0 {
				errs <- fmt.Errorf("client %d saw no events", c)
			}
		}(c)
	}
	// Give the clients a moment to connect, then stream and close.
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 100; i++ {
		rec.Emit("tick", map[string]any{"i": i})
	}
	rec.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := rec.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers after close", n)
	}
}

// TestTimelineOfTimedOutJob pins the flight-recorder acceptance case: a
// job killed by its deadline still serves a non-empty timeline whose
// final event is the cancellation, and the timeline is marked closed.
func TestTimelineOfTimedOutJob(t *testing.T) {
	// The graph fast path can answer a short chain in under a
	// millisecond on a warm machine, beating the deadline; pin the
	// solver pipeline and use a chain long enough that encoding alone
	// dwarfs the deadline, so the cancellation always fires mid-job.
	srv, e := newTestServerTiers(t, "none")
	j, err := e.Submit(&Request{
		Configs:   chainConfigs(64),
		Spec:      Spec{Check: "reachability", Src: "R1", Subnet: "10.100.64.0/24"},
		TimeoutMs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish")
	}
	if j.Err() == nil {
		t.Fatal("job beat a 1ms deadline; want a timeout")
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tl Timeline
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) == 0 {
		t.Fatal("timed-out job has an empty timeline")
	}
	if !tl.Closed {
		t.Fatal("terminal job's timeline is not closed")
	}
	last := tl.Events[len(tl.Events)-1]
	if last.Type != stream.EventJobCancelled {
		t.Fatalf("timeline ends with %q, want %q", last.Type, stream.EventJobCancelled)
	}
	if last.Data["reason"] != "timeout" {
		t.Fatalf("cancellation reason %v, want timeout", last.Data["reason"])
	}
}

// TestJobTraceEndpoint: a solved job serves its span tree as Chrome
// trace_event JSON; a cache-hit job, which never ran, has none.
func TestJobTraceEndpoint(t *testing.T) {
	srv, _ := newTestServerTiers(t, "none")
	req := &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	}
	_, v := postVerify(t, srv, req)
	if v == nil {
		t.Fatal("verify failed")
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + v.JobID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"job:" + v.JobID, "session-check"} {
		if !names[want] {
			t.Fatalf("chrome trace lacks %q slice (have %v)", want, names)
		}
	}

	// The cache-hit repeat never touched the solver: no trace.
	_, v2 := postVerify(t, srv, req)
	if !v2.Cached {
		t.Fatal("repeat was not a cache hit")
	}
	r2, err := http.Get(srv.URL + "/v1/jobs/" + v2.JobID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("cache-hit trace status %d, want 404", r2.StatusCode)
	}
}

// TestEngineJobEviction bounds the finished-job map: with MaxJobs 2 the
// oldest finished jobs (and their recorders) are dropped FIFO, counted
// by service.jobs_evicted, while the newest stay addressable.
func TestEngineJobEviction(t *testing.T) {
	e := NewEngine(Options{Workers: 1, Timeout: 60 * time.Second, MaxJobs: 2})
	t.Cleanup(e.Close)
	req := &Request{
		Configs: chainConfigs(2),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.2.0/24"},
	}
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if got := len(e.Jobs()); got > 2 {
		t.Fatalf("%d jobs retained, MaxJobs is 2", got)
	}
	if _, ok := e.Job(ids[0]); ok {
		t.Fatal("oldest job survived eviction")
	}
	if _, ok := e.Job(ids[len(ids)-1]); !ok {
		t.Fatal("newest job was evicted")
	}
	if n := e.Trace().Counter("service.jobs_evicted"); n != 3 {
		t.Fatalf("jobs_evicted = %d, want 3", n)
	}
}

// TestServiceMetricsQuantiles: the daemon's /metrics carries the
// latency histograms and their precomputed quantile gauges.
func TestServiceMetricsQuantiles(t *testing.T) {
	srv, _ := newTestServerTiers(t, "none")
	_, v := postVerify(t, srv, &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	})
	if v == nil {
		t.Fatal("verify failed")
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"minesweeper_service_job_run_ms_bucket",
		`minesweeper_service_job_run_ms_quantile{quantile="0.99"}`,
		"minesweeper_latency_solve_ms_bucket",
		`minesweeper_latency_solve_ms_quantile{quantile="0.5"}`,
		"minesweeper_service_queue_depth",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

// TestSSEResumeAfterEviction: a client that reconnects with
// Last-Event-ID after its job was evicted by the MaxJobs FIFO must get
// a prompt 404 — not a hang waiting for events that will never come,
// and not a silent empty stream.
func TestSSEResumeAfterEviction(t *testing.T) {
	e := NewEngine(Options{Workers: 1, Timeout: 60 * time.Second, MaxJobs: 1})
	t.Cleanup(e.Close)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	req := &Request{
		Configs: chainConfigs(2),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.2.0/24"},
	}
	first, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-first.Done()
	// A second finished job pushes the map over MaxJobs and evicts the
	// first, recorder and all.
	second, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-second.Done()
	if _, ok := e.Job(first.ID); ok {
		t.Fatal("first job survived eviction")
	}

	hreq, err := http.NewRequest("GET", srv.URL+"/v1/jobs/"+first.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Last-Event-ID", "3")
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Do(hreq)
	if err != nil {
		t.Fatalf("resume after eviction did not return cleanly: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("resume after eviction: status %d, want 404", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "no such job") {
		t.Fatalf("unexpected body: %s", body)
	}

	// The surviving job still replays fine from the same resume point.
	hreq2, err := http.NewRequest("GET", srv.URL+"/v1/jobs/"+second.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	hreq2.Header.Set("Last-Event-ID", "1")
	resp2, err := client.Do(hreq2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("surviving job resume: status %d, want 200", resp2.StatusCode)
	}
	msgs := collectSSE(readSSE(t, bufio.NewReader(resp2.Body)), 2*time.Second)
	if len(msgs) == 0 {
		t.Fatal("surviving job replayed no events")
	}
	for _, m := range msgs {
		if m.ID <= 1 {
			t.Fatalf("replay included event %d despite Last-Event-ID 1", m.ID)
		}
	}
}
