// Command minesweeperd serves network verification over HTTP. Each POST
// /v1/verify carries router configurations plus one property spec; the
// daemon encodes every distinct network once, keeps an incremental solver
// session per network so repeated queries skip re-blasting the shared
// constraint system, and answers identical queries from a
// content-addressed verdict cache. An edited copy of a held network (the
// same routers and interfaces) keeps a session only once it is asked a
// second solver question; its first is checked on a fresh solver.
//
// Endpoints:
//
//	POST /v1/verify             verification job → verdict (counterexample, phase timings)
//	GET  /v1/jobs               recent jobs, newest first
//	GET  /v1/jobs/{id}          one job record
//	GET  /v1/jobs/{id}/profile  the job's hot-constraint origin profile
//	                            (with -profile-origins; ?format=collapsed
//	                            for flamegraph collapsed-stack text)
//	GET  /v1/jobs/{id}/events   live telemetry stream (Server-Sent Events):
//	                            the job's flight recorder replayed from the
//	                            buffer, then followed live; reconnect with
//	                            Last-Event-ID (or ?after=N) to resume
//	GET  /v1/jobs/{id}/timeline the buffered flight-recorder events as JSON
//	                            (available for finished, timed-out and
//	                            cancelled jobs alike)
//	GET  /v1/jobs/{id}/trace    the job's span tree as Chrome trace_event
//	                            JSON — load it in Perfetto or chrome://tracing
//	GET  /metrics               Prometheus text exposition (same exporter as minesweeper -prom)
//	GET  /healthz               liveness
//
// With -blame every verdict carries the configuration origins it depends
// on (the UNSAT core's origins for verified properties, the forwarding
// decisions' origins for counterexamples). With -debug-addr the daemon
// serves net/http/pprof on a second, private listener:
//
//	minesweeperd -listen :8080 -debug-addr localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// Logs are structured (log/slog, text format): one line per request with
// a unique request id, plus lifecycle events.
//
// Example:
//
//	minesweeperd -listen :8080 -workers 4 -blame &
//	curl -s localhost:8080/v1/verify -d '{
//	  "configs": {"r1.cfg": "hostname R1\n..."},
//	  "check": "reachability", "src": "R1", "subnet": "10.3.3.0/24"
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/tiered"
)

func main() {
	var (
		listen    = flag.String("listen", ":8080", "address to serve HTTP on")
		debugAddr = flag.String("debug-addr", "", "address to serve net/http/pprof on (empty: disabled); keep it private")
		workers   = flag.Int("workers", 2, "concurrent verification workers")
		queue     = flag.Int("queue", 64, "maximum queued jobs before 429s")
		timeout   = flag.Duration("timeout", 120*time.Second, "default per-job deadline")
		passes    = flag.String("passes", "", "optimization passes: comma list of "+strings.Join(core.PassNames(), ",")+", or all/none (default: all)")
		tiers     = flag.String("tiers", "", "verification tiers: graph,sat (default; sound graph fast path, residue to the solver), or sat/none to disable the fast path")
		mod       = flag.Bool("modular", false, "verify multi-component networks by assume/guarantee composition (cut at eBGP interfaces, per-component checks on the worker pool; residue falls back to the monolithic pipeline)")
		certify   = flag.Bool("certify", false, "record DRAT proof traces and check verified verdicts with the independent checker")
		blame     = flag.Bool("blame", false, "report the configuration origins each verdict depends on (implies proof logging)")
		profOrig  = flag.Bool("profile-origins", false, "keep per-origin solver counters and serve each job's hot-constraint profile")
		maxJobs   = flag.Int("max-jobs", 1024, "finished jobs retained before FIFO eviction (bounds memory with their flight recorders)")
		eventBuf  = flag.Int("event-buffer", 0, "per-job flight-recorder capacity in events (0: default 1024)")
		progress  = flag.Int64("progress-every", 1000, "emit a solver.progress event every N conflicts (<0: disabled)")
		workBud   = flag.Int64("work-budget", 0, "per-job solver work-unit budget (decisions+propagations+conflicts; 0: unlimited); over-budget jobs finish with a budget_exceeded verdict")
		memBud    = flag.Int64("mem-budget", 0, "live-heap byte ceiling while a job's solver runs (0: unlimited); breaching jobs are cancelled with a budget_exceeded verdict instead of OOMing the daemon")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	)
	flag.Parse()
	if err := core.ValidatePasses(*passes); err != nil {
		fmt.Fprintln(os.Stderr, "minesweeperd:", err)
		os.Exit(2)
	}
	if err := tiered.ValidateTiers(*tiers); err != nil {
		fmt.Fprintln(os.Stderr, "minesweeperd:", err)
		os.Exit(2)
	}
	level := new(slog.LevelVar)
	if err := parseLogLevel(level, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "minesweeperd:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	opts := service.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		Timeout:    *timeout,
		Core: core.Options{
			Passes: *passes, Tiers: *tiers, Certify: *certify, Blame: *blame, ProfileOrigins: *profOrig,
		},
		Modular:        *mod,
		MaxJobs:        *maxJobs,
		EventBuffer:    *eventBuf,
		ProgressEvery:  *progress,
		WorkBudget:     *workBud,
		MemBudgetBytes: *memBud,
	}
	if err := run(logger, *listen, *debugAddr, opts); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

func run(logger *slog.Logger, listen, debugAddr string, opts service.Options) error {
	opts.Trace = obs.New("minesweeperd")
	opts.Logger = logger
	engine := service.NewEngine(opts)
	defer engine.Close()

	srv := newServer(listen, NewLoggingHandler(logger, service.NewHandler(engine)))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", listen, "workers", opts.Workers,
		"timeout", opts.Timeout, "tiers", tiersLabel(opts.Core.Tiers),
		"certify", opts.Core.Certify, "blame", opts.Core.Blame,
		"profile_origins", opts.Core.ProfileOrigins, "max_jobs", opts.MaxJobs,
		"progress_every", opts.ProgressEvery,
		"work_budget", opts.WorkBudget, "mem_budget", opts.MemBudgetBytes)

	if debugAddr != "" {
		dbg := &http.Server{
			Addr:              debugAddr,
			Handler:           newDebugMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		defer dbg.Close()
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", debugAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", debugAddr, "path", "/debug/pprof/")
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// newServer is the daemon's HTTP server. A client gets ReadTimeout to
// send a whole request, so a slowly sent body cannot hold a connection
// open indefinitely, and an idle keep-alive connection is closed after
// IdleTimeout. ReadTimeout bounds the upload only: net/http clears the
// connection's read deadline once the request has been read, so it does
// not cancel the context of a handler that outlasts it
// (TestReadTimeoutBoundsTheUploadOnly). WriteTimeout stays unset: POST
// /v1/verify blocks for up to the job's deadline (-timeout, or the
// request's timeout_ms) before it writes a byte, and an events stream
// writes for as long as its job runs.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// parseLogLevel sets the handler's LevelVar from the -log-level flag. A
// LevelVar (rather than a fixed level) keeps the door open for runtime
// adjustment; today only startup sets it.
func parseLogLevel(v *slog.LevelVar, s string) error {
	switch s {
	case "debug":
		v.Set(slog.LevelDebug)
	case "info":
		v.Set(slog.LevelInfo)
	case "warn":
		v.Set(slog.LevelWarn)
	case "error":
		v.Set(slog.LevelError)
	default:
		return fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", s)
	}
	return nil
}

// tiersLabel names the effective tier configuration for the startup log
// line (the empty flag value means the default, graph,sat).
func tiersLabel(s string) string {
	if tiered.Enabled(s) {
		return "graph,sat"
	}
	return "sat"
}

// newDebugMux serves net/http/pprof on an explicit mux (rather than the
// default one) so the debug listener exposes exactly the profiling
// endpoints and nothing another package may have registered globally.
func newDebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// reqSeq numbers requests for the per-request log id.
var reqSeq atomic.Int64

// NewLoggingHandler wraps a handler with one structured access-log line
// per request, tagged with a unique request id that is also echoed in
// the X-Request-ID response header so clients can quote it. Handlers
// enrich their own line through service.AddLogExtra — the verify
// endpoint adds the verdict and its encode/simplify/solve phase split,
// the telemetry endpoints the job id they served — so one grep over the
// access log reconstructs what each request cost and answered.
func NewLoggingHandler(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := fmt.Sprintf("req-%06d", reqSeq.Add(1))
		w.Header().Set("X-Request-ID", id)
		ctx, extras := service.WithLogExtras(r.Context())
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(ctx))
		args := []any{"id", id, "method", r.Method, "path", r.URL.Path,
			"status", rec.status,
			"ms", float64(time.Since(start).Microseconds()) / 1000}
		args = append(args, extras.Pairs()...)
		logger.Info("request", args...)
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streaming works through
// the logging middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
