package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/obs/cost"
	"repro/internal/obs/stream"
	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/sat"
	"repro/internal/tiered"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states: Submit queues, a worker moves the job to running,
// and it finishes done (verdict available) or failed (error available).
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Options configures an Engine.
type Options struct {
	// Workers is the number of concurrent verification workers
	// (default 2): at most Workers jobs run at once, and one modular
	// job checks its classes on Workers goroutines of its own. Jobs on
	// the same network serialize on that network's session regardless of
	// worker count.
	Workers int
	// QueueDepth bounds the submit queue (default 64); Submit fails
	// when the queue is full rather than blocking the caller.
	QueueDepth int
	// Timeout is the per-job default deadline (default 120s),
	// overridable per request via TimeoutMs.
	Timeout time.Duration
	// Core configures every encode and check the engine runs (see
	// core.Options): the pass pipeline; the verification tiers — by
	// default every job first tries the sound graph fast path and only
	// residue reaches the solver; certification, where a rejected
	// certificate fails the job; blame; origin profiling, served at
	// GET /v1/jobs/{id}/profile. The observers (Span, OnEvent,
	// ProgressEvery, OnProgress) are set per job.
	Core core.Options
	// Modular verifies multi-component networks with the assume/guarantee
	// pipeline (internal/modular) when the spec's goal is in its
	// vocabulary: cut at the eBGP interfaces, verify one representative
	// per isomorphism class of components — on Workers goroutines of
	// the job's own — and compose the blamed verdicts. Residue of any
	// kind falls back to the monolithic session; the monolithic encode is
	// skipped entirely when the composed verdict stands.
	Modular bool
	// MaxJobs bounds the finished-job map (default 1024): once more
	// jobs than this are retained, the oldest finished jobs — and their
	// flight recorders — are evicted FIFO. Queued and running jobs are
	// never evicted.
	MaxJobs int
	// EventBuffer is the per-job flight-recorder capacity in events
	// (default stream.DefaultCapacity). The recorder keeps the last
	// EventBuffer events of a job after it finishes, times out or is
	// cancelled.
	EventBuffer int
	// ProgressEvery emits a solver.progress event on each job's flight
	// recorder every N conflicts while the CDCL search runs (default
	// 1000; <0 disables solver progress events).
	ProgressEvery int64
	// WorkBudget bounds one job's solver work units (decisions +
	// propagations + conflicts, the cost ledger's deterministic Units
	// scale); 0 is unlimited. An over-budget job is cancelled and
	// finishes with a budget_exceeded verdict naming the costliest
	// subtree of its cost ledger — it does not fail. Each check the job
	// runs (monolithic, modular component, pair) is bounded alone, from
	// its progress hook every ProgressEvery conflicts, and counts from
	// where its solver stood when it began, as Result.Stats does: a
	// session check from the session's running total, past its set-up; a
	// fresh check (an edited copy's first solver question, a component or
	// pair check) from zero, so it also charges loading its formula. The
	// local-equivalence sweep's queries are one check, counted from the
	// sweep's start.
	WorkBudget int64
	// MemBudgetBytes cancels a job, like WorkBudget, when the process's
	// live heap exceeds this many bytes while the job's solver runs —
	// the job degrades to a budget_exceeded verdict instead of the
	// daemon OOMing. The engine's reserved_bytes gauge reports
	// MemBudgetBytes times the number of in-flight jobs.
	MemBudgetBytes int64
	// Trace receives the engine's counters and gauges; nil creates a
	// private trace (exposed via Engine.Trace for /metrics).
	Trace *obs.Trace
	// Logger receives structured job lifecycle lines (submitted,
	// done, failed) carrying the job id; nil disables them.
	Logger *slog.Logger
}

// netEntry is the long-lived per-network state: the loaded network, the
// encoded model and the incremental solver session. Its lock serializes
// property construction and checking, because building property terms
// interns into the model's unsynchronized term context.
//
// Entries are shared by parse: config sets whose parsed routers are equal
// (parseDigest) resolve to one entry, so a comment-only edit reuses the
// network, the model and the session of the text it was edited from.
type netEntry struct {
	mu      sync.Mutex
	routers []*config.Router // the parse the entry was created for
	// edited marks an edited copy: an entry created with the wiring
	// (wiringDigest) of an entry the engine already held. Its first solver
	// question is answered on a fresh solver; only a second one opens its
	// session. Most edits are asked one question, and a session nobody
	// asks again is memory.
	edited bool
	built  bool
	err    error // permanent build failure, replayed to later jobs
	net    *pipeline.Network
	// m is nil until the entry's first solver question encodes it, so a
	// network the earlier steps answer entirely never pays the
	// whole-network encode. Each job points its options at the job's
	// observers before it opens the session or checks.
	m    *core.Model
	sess *core.Session
}

// netSlot resolves one config hash to its network entry, once: the first
// job to present the hash parses the texts and finds or creates the entry
// of that parse; a parse failure is permanent for the hash.
type netSlot struct {
	once sync.Once
	ent  *netEntry
	err  error
}

// Job is one queued verification request. Jobs are created by Submit and
// observed via Done/Verdict/Err or the JSON View.
type Job struct {
	// ID identifies the job for GET /v1/jobs/{id}.
	ID   string
	Spec Spec

	goal    tiered.Goal // Spec, validated and translated at Submit
	configs map[string]string
	netKey  string
	key     string
	timeout time.Duration

	done chan struct{}
	rec  *stream.Recorder

	mu       sync.Mutex
	status   Status
	verdict  *Verdict
	err      error
	profile  *provenance.Profile
	trace    *obs.Trace
	created  time.Time
	started  time.Time
	finished time.Time
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Verdict returns the job's verdict once done (nil before, and for
// failed jobs).
func (j *Job) Verdict() *Verdict {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.verdict
}

// Err returns the job's terminal error, if it failed.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Profile returns the job's hot-constraint profile, present once the job
// is done when the engine runs with Options.ProfileOrigins (cache hits
// carry no profile: the solver never ran for them).
func (j *Job) Profile() *provenance.Profile {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.profile
}

// Recorder returns the job's flight recorder: the bounded ring of typed
// telemetry events emitted over the job's life. It is live while the job
// runs and retained — closed — after the job finishes, fails, times out
// or is cancelled.
func (j *Job) Recorder() *stream.Recorder { return j.rec }

// Trace returns the job's span tree (the GET /v1/jobs/{id}/trace
// source), or nil before the job's check starts and for cache-hit jobs,
// which never touch the solver.
func (j *Job) Trace() *obs.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

func (j *Job) setTrace(tr *obs.Trace) {
	j.mu.Lock()
	j.trace = tr
	j.mu.Unlock()
}

// View is the JSON shape of a job for the HTTP API.
type View struct {
	ID       string   `json:"id"`
	Status   Status   `json:"status"`
	Spec     Spec     `json:"spec"`
	Verdict  *Verdict `json:"verdict,omitempty"`
	Error    string   `json:"error,omitempty"`
	QueuedMs float64  `json:"queued_ms"`
	RunMs    float64  `json:"run_ms,omitempty"`
}

// View snapshots the job for JSON rendering.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{ID: j.ID, Status: j.status, Spec: j.Spec, Verdict: j.verdict}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	switch {
	case j.started.IsZero():
		v.QueuedMs = durMs(time.Since(j.created))
	default:
		v.QueuedMs = durMs(j.started.Sub(j.created))
		if j.finished.IsZero() {
			v.RunMs = durMs(time.Since(j.started))
		} else {
			v.RunMs = durMs(j.finished.Sub(j.started))
		}
	}
	return v
}

// Engine is the batch verification service: a worker pool over
// (network, property) jobs with per-network solver sessions and a
// content-addressed verdict cache.
type Engine struct {
	// opts is the configuration NewEngine was given, defaults filled in.
	opts Options

	jobCh   chan *Job
	wg      sync.WaitGroup
	running atomic.Int64
	// reserved is the in-flight memory reservation: MemBudgetBytes per
	// running budgeted job, surfaced as the service.reserved_bytes gauge.
	reserved atomic.Int64
	// observe, set only by tests, rewrites each job's core options once
	// the engine has pointed them at the job.
	observe func(*core.Options)

	mu       sync.Mutex
	closed   bool
	seq      int
	jobs     map[string]*Job
	finished []string             // finished job IDs, oldest first, for FIFO eviction
	nets     map[string]*netSlot  // by config hash
	byParse  map[string]*netEntry // by parseDigest
	wirings  map[string]bool      // wiringDigest of every entry
	cache    map[string]*Verdict
}

// NewEngine starts the worker pool.
func NewEngine(o Options) *Engine {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Timeout <= 0 {
		o.Timeout = 120 * time.Second
	}
	if o.Trace == nil {
		o.Trace = obs.New("service")
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.EventBuffer <= 0 {
		o.EventBuffer = stream.DefaultCapacity
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = 1000
	}
	e := &Engine{
		opts:    o,
		jobCh:   make(chan *Job, o.QueueDepth),
		jobs:    map[string]*Job{},
		nets:    map[string]*netSlot{},
		byParse: map[string]*netEntry{},
		wirings: map[string]bool{},
		cache:   map[string]*Verdict{},
	}
	e.wg.Add(o.Workers)
	for i := 0; i < o.Workers; i++ {
		go e.worker()
	}
	return e
}

// Trace returns the engine's metrics registry (the /metrics source).
func (e *Engine) Trace() *obs.Trace { return e.opts.Trace }

// Close stops accepting jobs, drains the queue and waits for the workers.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.jobCh)
	e.wg.Wait()
}

// Job looks up a submitted job by id.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs returns all job views, newest first.
func (e *Engine) Jobs() []View {
	e.mu.Lock()
	jobs := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID > jobs[b].ID })
	views := make([]View, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	return views
}

// ErrQueueFull is Submit's refusal when every queue slot is taken: the
// request was fine, the caller should come back later.
var ErrQueueFull = errors.New("service: queue full")

// Submit validates and queues a job. It returns immediately; wait on
// Job.Done or poll Job.View. Submit fails when the spec is malformed,
// the engine is closed, or the queue is full.
func (e *Engine) Submit(req *Request) (*Job, error) {
	if len(req.Configs) == 0 {
		return nil, &pipeline.RequestError{Err: errors.New("service: configs are required")}
	}
	spec := req.Spec.Normalize()
	goal, err := spec.Goal()
	if err != nil {
		return nil, err
	}
	timeout := e.opts.Timeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	netKey := configHash(req.Configs)
	j := &Job{
		Spec:    spec,
		goal:    goal,
		configs: req.Configs,
		netKey:  netKey,
		key:     cacheKey(netKey, spec),
		timeout: timeout,
		done:    make(chan struct{}),
		rec:     stream.NewRecorder(e.opts.EventBuffer),
		status:  StatusQueued,
		created: time.Now(),
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("service: engine is closed")
	}
	e.seq++
	j.ID = fmt.Sprintf("job-%06d", e.seq)
	e.jobs[j.ID] = j
	e.mu.Unlock()

	select {
	case e.jobCh <- j:
		e.opts.Trace.Add("service.jobs_queued", 1)
		e.opts.Trace.Gauge("service.queue_depth", float64(len(e.jobCh)))
		j.rec.Emit(stream.EventJobSubmitted, map[string]any{
			"job": j.ID, "check": spec.Check, "timeout_ms": timeout.Milliseconds(),
		})
		if e.opts.Logger != nil {
			e.opts.Logger.Info("job submitted", "job", j.ID, "check", spec.Check)
		}
		return j, nil
	default:
		e.mu.Lock()
		delete(e.jobs, j.ID)
		e.mu.Unlock()
		return nil, fmt.Errorf("%w (%d jobs pending)", ErrQueueFull, cap(e.jobCh))
	}
}

// Verify submits a job and waits for its verdict. When ctx expires first
// the job keeps running in the background (its verdict lands in the
// cache) and ctx's error is returned.
func (e *Engine) Verify(ctx context.Context, req *Request) (*Verdict, error) {
	j, err := e.Submit(req)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.Done():
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if err := j.Err(); err != nil {
		return nil, err
	}
	return j.Verdict(), nil
}

// panicError is a panic inside a job as the job's error; stack is that
// of the goroutine it happened on.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("internal error: %v", p.val) }

// asPanic wraps what recover returned, nil for nil. A panicError passes
// through with the stack it has, and a modular class check's panic keeps
// the stack of the goroutine it happened on.
func asPanic(r any) *panicError {
	switch p := r.(type) {
	case nil:
		return nil
	case *panicError:
		return p
	case *modular.TaskPanic:
		return &panicError{p.Value, p.Stack}
	}
	return &panicError{r, debug.Stack()}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.jobCh {
		e.opts.Trace.Gauge("service.queue_depth", float64(len(e.jobCh)))
		e.runJob(j)
	}
}

func (e *Engine) finishJob(j *Job, v *Verdict, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	queued := j.started.Sub(j.created)
	run := j.finished.Sub(j.started)
	if err != nil {
		j.status = StatusFailed
		j.err = err
	} else {
		j.status = StatusDone
		j.verdict = v
	}
	j.mu.Unlock()

	// The terminal flight-recorder event, then seal the recorder so
	// followers' live channels close; the ring itself is retained for
	// replay until the job is evicted.
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		j.rec.Emit(stream.EventJobCancelled, map[string]any{"reason": "timeout"})
	case errors.Is(err, context.Canceled):
		j.rec.Emit(stream.EventJobCancelled, map[string]any{"reason": "cancelled"})
	case err != nil:
		fields := map[string]any{"error": err.Error()}
		if pe := (*panicError)(nil); errors.As(err, &pe) {
			fields["stack"] = string(pe.stack)
		}
		j.rec.Emit(stream.EventJobFailed, fields)
	default:
		j.rec.Emit(stream.EventJobDone, map[string]any{
			"verified": v.Verified, "cached": v.Cached, "elapsed_ms": v.ElapsedMs,
		})
	}
	j.rec.Close()

	e.opts.Trace.ObserveBounds("service.job_queued_ms", durMs(queued), obs.LatencyMsBounds)
	e.opts.Trace.ObserveBounds("service.job_run_ms", durMs(run), obs.LatencyMsBounds)
	if err != nil {
		e.opts.Trace.Add("service.jobs_failed", 1)
		if e.opts.Logger != nil {
			e.opts.Logger.Error("job failed", "job", j.ID, "check", j.Spec.Check, "err", err)
		}
	} else {
		e.opts.Trace.Add("service.jobs_done", 1)
		if e.opts.Logger != nil {
			kv := []any{"job", j.ID, "check", j.Spec.Check,
				"verified", v.Verified, "cached", v.Cached, "ms", v.ElapsedMs,
				"encode_ms", v.EncodeMs, "simplify_ms", v.SimplifyMs,
				"solve_ms", v.SolveMs}
			if v.Cost != nil {
				// The cost summary: deterministic work plus the memory
				// account, same numbers GET /v1/jobs/{id}/cost breaks down.
				w, m := v.Cost.Total(), v.Cost.TotalMem()
				kv = append(kv, "units", w.Units(), "conflicts", w.Conflicts,
					"db_bytes", w.ClauseDBBytes, "heap_peak", m.HeapPeakBytes)
			}
			if v.Budget != nil {
				kv = append(kv, "budget_exceeded", v.Budget.Exceeded,
					"budget_costliest", v.Budget.Costliest)
			}
			e.opts.Logger.Info("job done", kv...)
		}
	}
	e.opts.Trace.Gauge("service.jobs_running", float64(e.running.Add(-1)))
	if e.opts.MemBudgetBytes > 0 {
		e.opts.Trace.Gauge("service.reserved_bytes", float64(e.reserved.Add(-e.opts.MemBudgetBytes)))
	}
	// Waiters wake only once the counters and gauges above have settled, so
	// what they read right after Done describes an engine without this job.
	close(j.done)

	e.mu.Lock()
	e.finished = append(e.finished, j.ID)
	e.evictLocked()
	e.mu.Unlock()
}

// evictLocked drops the oldest finished jobs while the job map exceeds
// MaxJobs. Only finished jobs are eligible, so a burst of queued work
// may transiently hold the map above the bound. Called with e.mu held.
func (e *Engine) evictLocked() {
	for len(e.jobs) > e.opts.MaxJobs && len(e.finished) > 0 {
		id := e.finished[0]
		e.finished = e.finished[1:]
		if _, ok := e.jobs[id]; ok {
			delete(e.jobs, id)
			e.opts.Trace.Add("service.jobs_evicted", 1)
		}
	}
}

// runJob answers one job. A panic on the way — a bug in the checker, not
// an input's fault — fails that job alone, and the worker lives.
func (e *Engine) runJob(j *Job) {
	defer func() {
		if pe := asPanic(recover()); pe != nil && j.Status() == StatusRunning {
			e.finishJob(j, nil, pe)
		}
	}()
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
	e.opts.Trace.Gauge("service.jobs_running", float64(e.running.Add(1)))
	if e.opts.MemBudgetBytes > 0 {
		e.opts.Trace.Gauge("service.reserved_bytes", float64(e.reserved.Add(e.opts.MemBudgetBytes)))
	}
	j.rec.Emit(stream.EventJobStarted, nil)

	// Content-addressed fast path: an identical (network, property,
	// environment-bound) query was already answered.
	e.mu.Lock()
	hit := e.cache[j.key]
	e.mu.Unlock()
	if hit != nil {
		e.opts.Trace.Add("service.cache_hits", 1)
		j.rec.Emit(stream.EventCacheHit, map[string]any{"key": j.key})
		e.finishJob(j, hit.cachedCopy(j.ID), nil)
		return
	}
	e.opts.Trace.Add("service.cache_misses", 1)
	j.rec.Emit(stream.EventCacheMiss, map[string]any{"key": j.key})

	ctx, cancel := context.WithTimeout(context.Background(), j.timeout)
	defer cancel()
	v, err := e.check(ctx, j)
	if err != nil {
		e.finishJob(j, nil, err)
		return
	}
	if v.Budget == nil {
		// Budget-exceeded verdicts are not answers: a retried job with a
		// bigger budget (or none) must reach the solver, not the cache.
		e.mu.Lock()
		e.cache[j.key] = v
		e.mu.Unlock()
	}
	e.finishJob(j, v, nil)
}

// network resolves a job's config hash to its network entry. The first
// job to present a hash parses the texts (under the slot's once, so jobs
// on other networks proceed in parallel) and finds or creates the entry
// of that parse; a new entry whose wiring is held already is an edited
// copy. The entry itself is built lazily under its own lock, so two jobs
// on one new network encode it once.
func (e *Engine) network(j *Job) (*netEntry, error) {
	e.mu.Lock()
	slot, ok := e.nets[j.netKey]
	if !ok {
		slot = &netSlot{}
		e.nets[j.netKey] = slot
		e.opts.Trace.Gauge("service.networks", float64(len(e.nets)))
	}
	e.mu.Unlock()
	slot.once.Do(func() {
		routers, err := pipeline.Parse(j.configs)
		if err != nil {
			slot.err = err
			return
		}
		digest, err := parseDigest(routers)
		if err != nil {
			slot.err = err
			return
		}
		wiring := wiringDigest(routers)
		e.mu.Lock()
		ent, shared := e.byParse[digest]
		if !shared {
			ent = &netEntry{routers: routers, edited: e.wirings[wiring]}
			e.byParse[digest] = ent
			e.wirings[wiring] = true
		}
		e.mu.Unlock()
		if shared {
			// Another config set parsed to the same routers: this one needs
			// no compile of its own. service.compiles counts every compiled
			// system a config set asked for, reused or built.
			e.opts.Trace.Add("service.compiles", 1)
			e.opts.Trace.Add("service.compile_reuse", 1)
			j.rec.Emit(stream.EventCompileReuse, nil)
		}
		slot.ent = ent
	})
	return slot.ent, slot.err
}

// build graphs a parsed network; its model waits for the first solver
// question (buildModel). Called with ent.mu held, once per entry; a
// failure is cached as permanent.
func (e *Engine) build(ent *netEntry, _ core.Options) (err error) {
	ent.net, err = pipeline.Build(ent.routers)
	return err
}

// jobOptions are the core options of every check one job runs: the
// engine's, observed by the job — its span, its flight recorder, and a
// progress hook that streams solver.progress events and feeds the job's
// budget (nil when it has none).
func (e *Engine) jobOptions(j *Job, sp *obs.Span, budget *budgetState) core.Options {
	opts := e.opts.Core
	opts.Span, opts.OnEvent = sp, j.rec.Emit
	every := e.opts.ProgressEvery
	if every <= 0 && budget != nil {
		// Budgets ride the progress hook; keep it firing (without
		// progress events) even when the operator disabled streaming.
		every = 1000
	}
	if every > 0 {
		opts.ProgressEvery = every
		opts.OnProgress = func(p sat.Progress) {
			if e.opts.ProgressEvery > 0 {
				j.rec.Emit(stream.EventSolverProgress, map[string]any{
					"conflicts":    p.Conflicts,
					"decisions":    p.Decisions,
					"propagations": p.Propagations,
					"restarts":     p.Restarts,
					"learned":      p.Learned,
					"lbd_avg":      p.LBDAvg,
				})
			}
			budget.observe(p)
		}
	}
	if e.observe != nil {
		e.observe(&opts)
	}
	return opts
}

// buildModel encodes the whole network and, unless the network is an
// edited copy, opens its solver session. Called by the entry's first
// solver question with ent.mu held, so at most once per entry: a failure
// is permanent (ent.err). opts are the asking job's, under its set-up
// span, so the job's trace and flight recorder carry the network's
// one-time cost.
func (e *Engine) buildModel(ent *netEntry, opts core.Options) error {
	m, err := core.Encode(ent.net.Graph, opts)
	if err != nil {
		return fmt.Errorf("service: encode: %w", err)
	}
	e.opts.Trace.Add("service.compiles", 1)
	ent.m = m
	if ent.edited {
		return nil
	}
	return e.openSession(ent, opts)
}

// openSession opens the incremental solver session on the entry's model,
// pointed at the opening job's observers first: an edited copy's model
// was encoded by an earlier job. Called with ent.mu held.
func (e *Engine) openSession(ent *netEntry, opts core.Options) error {
	ent.m.Opts = opts
	ent.sess = ent.m.NewSession()
	e.opts.Trace.Add("service.session_builds", 1)
	return nil
}

// check answers one cache-miss job: it resolves the job's network and
// hands the goal to pipeline.Run with the network's live session as the
// monolithic step — or, for an edited copy's first solver question, its
// model and no session, so the check runs on a fresh solver. Everything
// the run does is on the job's flight recorder as it happens — build
// phases from here, the pipeline's and the check's phases, passes,
// certification and blame from where they run, solver progress from the
// hook — and the per-job span tree stays reachable via Job.Trace.
func (e *Engine) check(ctx context.Context, j *Job) (*Verdict, error) {
	jtr := obs.New("job:" + j.ID)
	j.setTrace(jtr)
	defer jtr.Root().End()

	ent, err := e.network(j)
	if err != nil {
		return nil, err
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			// What a panic leaves of the model and its session is not to be
			// trusted: the entry forgets them and the next job builds afresh.
			ent.built, ent.err = false, nil
			ent.net, ent.m, ent.sess = nil, nil, nil
			panic(asPanic(r))
		}
	}()
	// Budget enforcement rides the progress hook of every check the job
	// runs: cancel a derived context on breach, and recognize the breach
	// below instead of failing the job.
	var budget *budgetState
	runCtx, cancelBudget := context.WithCancel(ctx)
	defer cancelBudget()
	if e.opts.WorkBudget > 0 || e.opts.MemBudgetBytes > 0 {
		budget = newBudgetState(cancelBudget, e.opts.WorkBudget, e.opts.MemBudgetBytes)
	}
	opts := pipeline.Options{Modular: e.opts.Modular}
	opts.Core = e.jobOptions(j, jtr.Root(), budget)
	opts.Workers = e.opts.Workers
	// setupCost is the session's one-time ledger, owned by the job that
	// actually built the session — later jobs reuse the session without
	// repaying (or re-reporting) its cost.
	var setupCost *cost.Node
	// setUp runs one of the entry's one-time builds as a phase of this job:
	// a span that parents the encode and session spans, and an event pair.
	setUp := func(phase string, build func(*netEntry, core.Options) error) {
		ph := cost.Open(opts.Core.Span, nil, opts.Core.OnEvent)
		bopts := opts.Core
		bopts.Span = ph.Begin(phase)
		ent.err = build(ent, bopts)
		ph.End(cost.Work{})
		if ent.sess != nil {
			setupCost = ent.sess.SetupCost()
		}
	}
	if !ent.built {
		ent.built = true
		setUp("build", e.build)
	}
	if ent.err != nil {
		return nil, ent.err
	}
	// A job whose deadline expired during the build must time out, not be
	// rescued by the fast path.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The monolithic step runs on the entry's live session, built by its
	// first solver question. An edited copy answers that question on a
	// fresh solver (a nil session) and opens its session for the second.
	var onSession bool
	opts.Live = func() (*core.Model, *core.Session, error) {
		if ent.m == nil {
			setUp("build-model", e.buildModel)
		} else if ent.sess == nil {
			setUp("open-session", e.openSession)
		}
		if ent.err != nil {
			return nil, nil, ent.err
		}
		// They differ from the options the model was encoded with only in
		// the observers.
		ent.m.Opts = opts.Core
		if onSession = ent.sess != nil; onSession && setupCost == nil {
			// An earlier job opened the session.
			e.opts.Trace.Add("service.session_reuse", 1)
			j.rec.Emit(stream.EventSessionReuse, nil)
		}
		return ent.m, ent.sess, nil
	}
	pv, err := pipeline.Run(runCtx, ent.net, j.goal, opts)
	e.countSteps(pv)

	if bi := budget.breach(); bi != nil && ctx.Err() == nil {
		// The budget tripped, not the job's deadline: the job degrades to
		// a budget_exceeded verdict naming the costliest subtree of its
		// ledger, it does not fail. The cancellation is asynchronous, so
		// a fast solve may have finished anyway — the breach still rules,
		// but then the ledger is the complete one.
		var full *cost.Node
		if err == nil {
			full = jobLedger(setupCost, pv.Result.Cost)
		}
		e.opts.Trace.Add("service.budget_exceeded", 1)
		v := budgetVerdict(j, setupCost, bi, full)
		j.rec.Emit(stream.EventVerdict, map[string]any{
			"verified": false, "budget_exceeded": bi.Exceeded,
			"costliest": bi.Costliest, "units": bi.spent.Units(),
		})
		return v, nil
	}
	if err != nil {
		return nil, err
	}
	res := pv.Result
	switch {
	case pv.Model == nil:
	case onSession:
		e.opts.Trace.Add("service.session_checks", 1)
	default:
		e.opts.Trace.Add("service.fresh_checks", 1)
	}
	if res.OriginProfile != nil {
		j.mu.Lock()
		j.profile = res.OriginProfile
		j.mu.Unlock()
	}
	v := &Verdict{JobID: j.ID, Report: *pipeline.NewReport(j.Spec.Check, pv)}
	v.Cost = jobLedger(setupCost, v.Cost)
	core.RecordSolverMetrics(e.opts.Trace, res, v.Cost)
	emitVerdict(j.rec, v)
	return v, nil
}

// countSteps folds what the pipeline's steps did for one job into the
// engine's counters.
func (e *Engine) countSteps(pv *pipeline.Verdict) {
	if tiered.Enabled(e.opts.Core.Tiers) {
		if pv.Result != nil && pv.Result.Tier == tiered.TierGraph {
			e.opts.Trace.Add("service.fastpath_hits", 1)
		} else {
			e.opts.Trace.Add("service.fastpath_residue", 1)
		}
	}
	switch pv.Mode {
	case pipeline.ModeModular:
		e.opts.Trace.Add("service.modular_runs", 1)
		e.opts.Trace.Add("service.modular_verdicts", 1)
	case pipeline.ModeFallback:
		e.opts.Trace.Add("service.modular_runs", 1)
		e.opts.Trace.Add("service.modular_residue", 1)
	}
	if rep := pv.Modular; rep != nil {
		e.opts.Trace.Add("service.component_checks", int64(rep.Checks))
		e.opts.Trace.Add("service.component_alias_hits", int64(rep.AliasHits))
	}
}

// emitVerdict puts the verdict itself on the flight recorder; every
// milestone before it was emitted where it happened.
func emitVerdict(rec *stream.Recorder, v *Verdict) {
	data := map[string]any{
		"verified":   v.Verified,
		"elapsed_ms": v.ElapsedMs,
		"solve_ms":   v.SolveMs,
	}
	if v.Tier != "" {
		data["tier"] = v.Tier
		data["fastpath_ms"] = v.FastPathMs
	}
	if v.Solver != nil {
		data["conflicts"] = v.Solver.Conflicts
		data["decisions"] = v.Solver.Decisions
	}
	if len(v.Blame) > 0 {
		data["blame"] = len(v.Blame)
	}
	if v.Cost != nil {
		w := v.Cost.Total()
		data["units"] = w.Units()
		data["db_bytes"] = w.ClauseDBBytes
	}
	rec.Emit(stream.EventVerdict, data)
}

// jobLedger roots a job's cost tree: the goal (or modular) ledger of its
// check plus, for the job that created the network's session, the
// one-time setup. Nil when the check produced no ledger at all.
func jobLedger(setup, goal *cost.Node) *cost.Node {
	if setup == nil && goal == nil {
		return nil
	}
	root := cost.New("job")
	root.AddChild(setup)
	root.AddChild(goal)
	return root
}

// budgetVerdict renders a budget breach as a verdict: unverified, the
// budget block filled in, and a cost ledger whose costliest subtree the
// budget block names. full is the check's complete ledger when the solve
// outran the interrupt; otherwise a partial one is assembled from the
// session setup (if this job paid it) and the solve work spent before
// the trip.
func budgetVerdict(j *Job, setup *cost.Node, bi *BudgetInfo, full *cost.Node) *Verdict {
	ledger := full
	if ledger == nil {
		ledger = cost.New("job")
		ledger.AddChild(setup)
		ledger.Child("goal").Child("solve").Add(bi.spent)
	}
	bi.Costliest, bi.CostliestUnits = ledger.Costliest()
	v := &Verdict{JobID: j.ID, Budget: bi}
	v.Check, v.Cost = j.Spec.Check, ledger
	return v
}
