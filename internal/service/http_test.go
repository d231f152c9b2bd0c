package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/stream"
	"repro/internal/pipeline"
)

func newTestServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	return newTestServerTiers(t, "")
}

// newTestServerTiers builds a daemon with an explicit -tiers value;
// "none" pins the solver pipeline for tests that assert on its artifacts
// (span slices, solve-latency histograms).
func newTestServerTiers(t *testing.T, tiers string) (*httptest.Server, *Engine) {
	t.Helper()
	e := NewEngine(Options{Workers: 2, Timeout: 60 * time.Second, Core: core.Options{Tiers: tiers}})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return srv, e
}

func postVerify(t *testing.T, srv *httptest.Server, req *Request) (*http.Response, *Verdict) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var v Verdict
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return resp, &v
}

// TestDaemonEndToEnd drives the full HTTP flow the daemon exposes:
// verify a violated property (counterexample in the verdict), repeat the
// query (cache hit), fetch the job record, and scrape /metrics.
func TestDaemonEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t)
	req := &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "bounded-length", Src: "R1", Subnet: "10.100.3.0/24", Hops: 1},
	}

	resp, v := postVerify(t, srv, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if v.Verified || v.Cached {
		t.Fatalf("verdict verified=%v cached=%v, want false/false", v.Verified, v.Cached)
	}
	if v.Counterexample == nil || v.Counterexample.Packet.DstIP == "" {
		t.Fatalf("verdict lacks a decoded counterexample: %+v", v)
	}
	if v.ElapsedMs != v.FastPathMs+v.EncodeMs+v.SimplifyMs+v.SolveMs {
		t.Fatalf("phase timings do not sum: %+v", v)
	}
	if v.Tier != "graph" {
		t.Fatalf("hop-bound violation on a chain should be a fast-path verdict, got tier %q", v.Tier)
	}

	// Identical query → cache hit, same verdict, no solver run.
	_, v2 := postVerify(t, srv, req)
	if !v2.Cached || v2.Verified || v2.Counterexample == nil {
		t.Fatalf("repeat verdict cached=%v verified=%v", v2.Cached, v2.Verified)
	}

	// The job record is retrievable by id.
	jr, err := http.Get(srv.URL + "/v1/jobs/" + v.JobID)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	if jr.StatusCode != http.StatusOK {
		t.Fatalf("GET job: status %d", jr.StatusCode)
	}
	var view View
	if err := json.NewDecoder(jr.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone || view.Verdict == nil {
		t.Fatalf("job view: %+v", view)
	}

	if r404, err := http.Get(srv.URL + "/v1/jobs/job-999999"); err != nil {
		t.Fatal(err)
	} else {
		r404.Body.Close()
		if r404.StatusCode != http.StatusNotFound {
			t.Fatalf("missing job: status %d", r404.StatusCode)
		}
	}

	// A failure-budget query is residue for the graph tier, so it reaches
	// the solver and populates the solver-side metrics scraped below.
	_, vr := postVerify(t, srv, &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24", MaxFailures: 1},
	})
	if vr == nil || vr.Tier != "sat" {
		t.Fatalf("failure-budget query should fall through to the solver: %+v", vr)
	}
	// The same query of a link-cost edit: an edited copy, whose first solver
	// question runs on a fresh solver.
	_, ve := postVerify(t, srv, &Request{
		Configs: linkCostEdit(t, chainConfigs(3)),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24", MaxFailures: 1},
	})
	if ve == nil || ve.Tier != "sat" || ve.Verified != vr.Verified {
		t.Fatalf("edited copy's failure-budget query: %+v", ve)
	}

	// /metrics is the shared obs Prometheus exposition, carrying both the
	// service counters and the solver metrics recorded per check.
	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"minesweeper_service_jobs_done",
		"minesweeper_service_cache_hits",
		"minesweeper_service_session_builds",
		"minesweeper_service_fresh_checks",
		"minesweeper_service_fastpath_hits",
		"minesweeper_service_fastpath_residue",
		"minesweeper_solver_conflicts",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics is missing %s:\n%s", want, text)
		}
	}

	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health struct {
		Status   string `json:"status"`
		JobsDone int64  `json:"jobs_done"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.JobsDone < 1 {
		t.Fatalf("healthz: %+v", health)
	}
}

func TestDaemonBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not-json", "{", http.StatusBadRequest},
		{"unknown-field", `{"configs":{"a":"hostname A\n"},"check":"loops","bogus":1}`, http.StatusBadRequest},
		{"no-configs", `{"check":"loops"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/v1/verify", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d want %d (error %q)", c.name, resp.StatusCode, c.want, eb.Error)
		}
		if eb.Error == "" {
			t.Fatalf("%s: missing error body", c.name)
		}
	}

	// An engine that cannot encode is not the client's mistake, though its
	// error starts with "service:" like the ones above: a daemon set to a
	// pass name that no longer exists answers a well-formed request 500.
	e := NewEngine(Options{Workers: 1, Timeout: 60 * time.Second, Core: core.Options{Tiers: "none", Passes: "fold"}})
	broken := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		broken.Close()
		e.Close()
	})
	resp, _ := postVerify(t, broken, &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	})
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	if resp.StatusCode != http.StatusInternalServerError || !strings.HasPrefix(eb.Error, "service: encode:") {
		t.Fatalf("encode failure: status %d, error %q", resp.StatusCode, eb.Error)
	}
	// The same request naming a router the network lacks is a 400 ...
	resp, _ = postVerify(t, srv, &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R9", Subnet: "10.100.3.0/24"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown router: status %d", resp.StatusCode)
	}
	// ... and a full queue, however it is wrapped, a 429.
	if got := statusFor(fmt.Errorf("submit: %w", ErrQueueFull)); got != http.StatusTooManyRequests {
		t.Fatalf("queue full: status %d", got)
	}
}

// TestDaemonSurvivesTruncatedDirective posts the 26 bytes that used to
// kill the daemon: "maximum-paths" without its value indexed past the
// line's fields in config.Parse, and nothing on the worker path recovers.
// The job must fail with the parse error, and the engine's only worker
// must answer the next request.
func TestDaemonSurvivesTruncatedDirective(t *testing.T) {
	e := NewEngine(Options{Workers: 1, Timeout: 60 * time.Second})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	resp, _ := postVerify(t, srv, &Request{
		Configs: map[string]string{"r.cfg": "router ospf\n maximum-paths"},
		Spec:    Spec{Check: "loops"},
	})
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "bad maximum-paths") {
		t.Fatalf("status %d, error %q: want a 400 carrying the parse error", resp.StatusCode, eb.Error)
	}
	views := e.Jobs()
	if len(views) != 1 || views[0].Status != StatusFailed || !strings.Contains(views[0].Error, "bad maximum-paths") {
		t.Fatalf("job record: %+v, want one failed job carrying the parse error", views)
	}
	if resp, v := postVerify(t, srv, &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	}); v == nil || !v.Verified {
		t.Fatalf("request after the failed one: status %d, verdict %+v", resp.StatusCode, v)
	}
}

// TestDaemonRequestBodyLimit stands on both sides of the POST /v1/verify
// body cap: a valid request padded (inside the JSON value, so the decoder
// must read every byte) to exactly the cap is answered, one byte more is
// refused with 413 in the handler's JSON error shape. The cap is lowered
// through newHandler so the bodies stay small; NewHandler passes the real
// constant to the same code.
func TestDaemonRequestBodyLimit(t *testing.T) {
	if maxRequestBytes != 64<<20 {
		t.Fatalf("maxRequestBytes = %d, want 64 MiB", maxRequestBytes)
	}
	body, err := json.Marshal(&Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	})
	if err != nil {
		t.Fatal(err)
	}
	const limit = 8 << 10
	if len(body) >= limit {
		t.Fatalf("fixture body is %d bytes, over the test cap", len(body))
	}
	padded := func(size int) []byte {
		pad := bytes.Repeat([]byte(" "), size-len(body))
		return append(append(append([]byte{}, body[:len(body)-1]...), pad...), '}')
	}
	e := NewEngine(Options{Workers: 1, Timeout: 60 * time.Second})
	srv := httptest.NewServer(newHandler(e, limit))
	defer func() {
		srv.Close()
		e.Close()
	}()
	post := func(b []byte) (int, errorBody) {
		resp, err := http.Post(srv.URL+"/v1/verify", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		if resp.StatusCode != http.StatusOK {
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("status %d: Content-Type %q, want application/json", resp.StatusCode, ct)
			}
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Errorf("status %d: error body is not JSON: %v", resp.StatusCode, err)
			}
		}
		return resp.StatusCode, eb
	}
	if code, eb := post(padded(limit)); code != http.StatusOK {
		t.Fatalf("body of exactly %d bytes: status %d (error %q), want 200", limit, code, eb.Error)
	}
	code, eb := post(padded(limit + 1))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body of %d bytes: status %d (error %q), want 413", limit+1, code, eb.Error)
	}
	if !strings.Contains(eb.Error, "8192") {
		t.Fatalf("413 error %q does not name the limit", eb.Error)
	}
	// The refusal is per request: the engine still answers afterwards.
	if code, eb := post(body); code != http.StatusOK {
		t.Fatalf("request after a refused one: status %d (error %q)", code, eb.Error)
	}
}

// TestDaemonBlameAndProfile runs the engine with blame extraction and
// origin profiling on: a verified job's verdict carries a deterministic
// non-empty blame set, its hot-constraint profile is served (JSON and
// collapsed-stack), and jobs without a profile 404.
func TestDaemonBlameAndProfile(t *testing.T) {
	e := NewEngine(Options{Workers: 1, Timeout: 60 * time.Second, Core: core.Options{Blame: true, ProfileOrigins: true, Tiers: "none"}})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	req := &Request{
		Configs: chainConfigs(3),
		Spec:    Spec{Check: "reachability", Src: "R1", Subnet: "10.100.3.0/24"},
	}

	resp, v := postVerify(t, srv, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !v.Verified {
		t.Fatal("chain reachability should verify")
	}
	if len(v.Blame) == 0 {
		t.Fatal("verified verdict carries no blame set")
	}
	if sum := v.EncodeMs + v.SimplifyMs + v.SolveMs + v.CertifyMs; v.ElapsedMs != sum {
		t.Fatalf("elapsed %v != phase sum %v", v.ElapsedMs, sum)
	}

	// The profile endpoint serves the job's origin rows.
	profResp, err := http.Get(srv.URL + "/v1/jobs/" + v.JobID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer profResp.Body.Close()
	if profResp.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d", profResp.StatusCode)
	}
	var prof struct {
		Rows []struct {
			Origin    map[string]string `json:"origin"`
			Conflicts int64             `json:"conflicts"`
		} `json:"rows"`
	}
	if err := json.NewDecoder(profResp.Body).Decode(&prof); err != nil {
		t.Fatal(err)
	}

	// The collapsed format is plain text, one frame-stack per line.
	colResp, err := http.Get(srv.URL + "/v1/jobs/" + v.JobID + "/profile?format=collapsed")
	if err != nil {
		t.Fatal(err)
	}
	defer colResp.Body.Close()
	if colResp.StatusCode != http.StatusOK {
		t.Fatalf("collapsed profile status %d", colResp.StatusCode)
	}
	if ct := colResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("collapsed profile content type %q", ct)
	}
	io.Copy(io.Discard, colResp.Body)

	// A cache hit never touches the solver, so its job has no profile.
	_, v2 := postVerify(t, srv, req)
	if !v2.Cached {
		t.Fatal("repeat query should be a cache hit")
	}
	if got, want := strings.Join(v2.Blame, "\n"), strings.Join(v.Blame, "\n"); got != want {
		t.Fatalf("cached blame differs:\n%s\nvs\n%s", got, want)
	}
	missResp, err := http.Get(srv.URL + "/v1/jobs/" + v2.JobID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer missResp.Body.Close()
	if missResp.StatusCode != http.StatusNotFound {
		t.Fatalf("cache-hit job profile status %d, want 404", missResp.StatusCode)
	}
}

// TestDaemonServesPairGoals: the §8.1 pair goals go through the same Run
// as every other goal. POST /v1/verify answers fault-invariance and
// equivalence with the verdict and difference a single-shot pipeline.Run
// gives on the same texts, the pair check's solve phase is on the job's
// event stream, and a repeat is a cache hit.
func TestDaemonServesPairGoals(t *testing.T) {
	srv, e := newTestServer(t)
	cfgs := auditConfigs(t, 7)
	net, err := pipeline.Load(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{
		{Check: "fault-invariance", MaxFailures: 1},
		{Check: "equivalence", Pair: "access1,access2"},
	} {
		goal, err := spec.Goal()
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipeline.Run(context.Background(), net, goal, pipeline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		resp, v := postVerify(t, srv, &Request{Configs: cfgs, Spec: spec})
		if v == nil {
			t.Fatalf("%s: status %d", spec.Check, resp.StatusCode)
		}
		if v.Cached || v.Verified != want.Result.Verified || v.Difference != want.Difference {
			t.Fatalf("%s: daemon verified=%v difference %q cached=%v, single-shot verified=%v difference %q",
				spec.Check, v.Verified, v.Difference, v.Cached, want.Result.Verified, want.Difference)
		}
		j, _ := e.Job(v.JobID)
		var solve []string
		for _, ev := range j.Recorder().Events() {
			if (ev.Type == stream.EventPhaseStart || ev.Type == stream.EventPhaseEnd) && ev.Data["phase"] == "solve" {
				solve = append(solve, ev.Type)
			}
		}
		if len(solve) != 2 || solve[0] != stream.EventPhaseStart || solve[1] != stream.EventPhaseEnd {
			t.Fatalf("%s: solve phase events %v, want one start and one end", spec.Check, solve)
		}
		if _, again := postVerify(t, srv, &Request{Configs: cfgs, Spec: spec}); again == nil || !again.Cached ||
			again.Verified != v.Verified || again.Difference != v.Difference {
			t.Fatalf("%s: repeat %+v, want a cache hit with the same verdict", spec.Check, again)
		}
	}
}
