package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/pipeline"
)

// NewHandler exposes the engine over HTTP:
//
//	POST /v1/verify             JSON Request → Verdict (synchronous)
//	GET  /v1/jobs               all job views, newest first
//	GET  /v1/jobs/{id}          one job view
//	GET  /v1/jobs/{id}/profile  the job's hot-constraint origin profile
//	                            (JSON rows; ?format=collapsed for the
//	                            flamegraph collapsed-stack text)
//	GET  /v1/jobs/{id}/cost     the job's hierarchical cost ledger
//	                            (JSON tree; ?format=text for the
//	                            indented table)
//	GET  /v1/jobs/{id}/events   the job's flight recorder as SSE: buffered
//	                            replay then live follow; resumes from
//	                            Last-Event-ID or ?after=N
//	GET  /v1/jobs/{id}/timeline the buffered flight-recorder events as JSON
//	GET  /v1/jobs/{id}/trace    the job's span tree as Chrome trace_event
//	                            JSON (Perfetto / chrome://tracing)
//	GET  /metrics               Prometheus text exposition of the engine trace
//	GET  /healthz               liveness + job counters
//
// The mux uses Go 1.22 method/wildcard patterns, so the same handler
// serves the daemon and httptest.
func NewHandler(e *Engine) http.Handler { return newHandler(e, maxRequestBytes) }

// maxRequestBytes caps the body of POST /v1/verify. The 720-router fabric
// is 1.5 MB of configuration text, so no real request comes near it; the
// cap only keeps a hostile or broken client from making the decoder
// buffer without bound.
const maxRequestBytes = 64 << 20

// newHandler is NewHandler with the body cap as a parameter, so tests can
// stand on both sides of it without 64 MiB bodies.
func newHandler(e *Engine, maxBody int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		v, err := e.Verify(r.Context(), &req)
		if err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
		AddLogExtra(r.Context(), "job", v.JobID, "check", v.Check,
			"verified", v.Verified, "cached", v.Cached,
			"encode_ms", v.EncodeMs, "simplify_ms", v.SimplifyMs,
			"solve_ms", v.SolveMs)
		if v.Cost != nil {
			AddLogExtra(r.Context(), "units", v.Cost.Total().Units())
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := e.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such job")
			return
		}
		writeJSON(w, http.StatusOK, j.View())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/profile", func(w http.ResponseWriter, r *http.Request) {
		j, ok := e.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such job")
			return
		}
		p := j.Profile()
		if p == nil {
			writeError(w, http.StatusNotFound,
				"no origin profile for this job (engine runs without profiling, the job is not done, or it was a cache hit)")
			return
		}
		if r.URL.Query().Get("format") == "collapsed" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			p.WriteCollapsed(w)
			return
		}
		writeJSON(w, http.StatusOK, p)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/cost", func(w http.ResponseWriter, r *http.Request) {
		j, ok := e.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such job")
			return
		}
		v := j.Verdict()
		if v == nil || v.Cost == nil {
			writeError(w, http.StatusNotFound,
				"no cost ledger for this job (not done, failed, or a cache hit)")
			return
		}
		AddLogExtra(r.Context(), "job", j.ID, "units", v.Cost.Total().Units())
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			v.Cost.WriteTree(w)
			return
		}
		writeJSON(w, http.StatusOK, v.Cost)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", handleJobEvents(e))
	mux.HandleFunc("GET /v1/jobs/{id}/timeline", handleJobTimeline(e))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", handleJobTrace(e))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		e.Trace().WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":    "ok",
			"jobs_done": e.Trace().Counter("service.jobs_done"),
		})
	})
	return mux
}

// statusFor maps engine errors onto HTTP statuses by what they are, not
// by how they read: what the request got wrong is a 400, a full queue a
// 429, deadline and cancellation 504/503, and the rest — the engine's own
// failures, whatever their text — a 500.
func statusFor(err error) int {
	var bad *pipeline.RequestError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.As(err, &bad):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
