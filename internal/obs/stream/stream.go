// Package stream is the live-telemetry event bus: a bounded, ring-buffered
// "flight recorder" of typed events per verification job, with pub/sub
// fan-out for live followers (the daemon's SSE endpoint).
//
// A Recorder is written by exactly the goroutine doing the work it
// describes (the service worker, which also hosts the SAT progress hook)
// and read concurrently by any number of subscribers. Emitting never
// blocks: the ring overwrites its oldest events when full, and a slow
// subscriber's channel drops events rather than stalling the solver. Both
// kinds of loss are counted, never silent.
//
// The recorder is retained after the job reaches a terminal state —
// completion, failure, timeout or cancellation — so a killed job still
// has a post-mortem timeline. Close marks the terminal state and releases
// the live followers; the buffered events stay readable until the job
// record itself is evicted.
//
// All methods are safe on a nil *Recorder, so instrumented code can
// thread recorders unconditionally and pay nothing when telemetry is off.
package stream

import (
	"sync"
	"time"
)

// Well-known event types. Consumers switch on these; the set is open —
// emitters may add types without breaking readers, which must tolerate
// unknown types.
const (
	// Job lifecycle.
	EventJobSubmitted = "job.submitted"
	EventJobStarted   = "job.started"
	EventJobDone      = "job.done"
	EventJobFailed    = "job.failed"
	// EventJobCancelled terminates the timeline of a job killed by its
	// deadline or by caller cancellation; its "reason" field says which.
	EventJobCancelled = "job.cancelled"

	// Engine milestones.
	EventCacheHit     = "cache.hit"
	EventCacheMiss    = "cache.miss"
	EventSessionReuse = "session.reuse"
	EventCompileReuse = "compile.reuse"

	// Work phases (build, fastpath, property, compile, blast, simplify,
	// solve, certify, decode, blame): paired start/end with a "phase"
	// field, emitted live by the cost.Scope that opens and closes the
	// phase; phase.end carries what the phase was charged (ms, units,
	// conflicts, db_bytes). The names are the ledger's and the spans'.
	EventPhaseStart = "phase.start"
	EventPhaseEnd   = "phase.end"

	// Solver and pipeline detail.
	EventSolverProgress = "solver.progress"
	EventPass           = "pass"
	EventCertify        = "certify.done"
	EventBlame          = "blame.done"
	EventVerdict        = "verdict"

	// Modular verification (internal/modular) progress: the plan's
	// component/class counts, one event per solved class, and the
	// residue/compose outcome. Emitted verbatim from the modular runner.
	EventModularPlan    = "modular.plan"
	EventModularClass   = "modular.class"
	EventModularResidue = "modular.residue"
	EventModularCompose = "modular.compose"
)

// Event is one timestamped entry of a job's flight recorder. Seq numbers
// events from 1 within one recorder and never repeats, so a follower that
// reconnects can resume after the last sequence number it saw.
type Event struct {
	Seq  uint64         `json:"seq"`
	Time time.Time      `json:"time"`
	Type string         `json:"type"`
	Data map[string]any `json:"data,omitempty"`
}

// DefaultCapacity is the ring size used when NewRecorder is given a
// non-positive capacity: enough for the full timeline of a typical job
// with periodic solver snapshots.
const DefaultCapacity = 1024

// Recorder is a bounded per-job event ring with live subscribers.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event // ring storage, len(buf) <= cap
	head    int     // index of the oldest event once the ring wrapped
	cap     int
	seq     uint64 // total events emitted (last assigned Seq)
	dropped uint64 // events overwritten by ring wrap-around
	closed  bool
	subs    map[*subscriber]struct{}
}

// subscriber is one live follower: a buffered channel that drops (and
// counts) events when the consumer falls behind.
type subscriber struct {
	ch      chan Event
	dropped uint64
}

// NewRecorder creates a flight recorder retaining the last capacity
// events (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		cap:  capacity,
		subs: map[*subscriber]struct{}{},
	}
}

// Emit appends one event, stamping its sequence number and time, and
// fans it out to live subscribers without blocking. Emitting to a closed
// or nil recorder is a no-op.
func (r *Recorder) Emit(typ string, data map[string]any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.seq++
	ev := Event{Seq: r.seq, Time: time.Now(), Type: typ, Data: data}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.head] = ev
		r.head = (r.head + 1) % r.cap
		r.dropped++
	}
	for s := range r.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped++
		}
	}
}

// Close marks the recorder terminal: live subscribers' channels are
// closed (after draining whatever Emit already queued) and further Emits
// are ignored. The buffered events remain readable. Idempotent, nil-safe.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for s := range r.subs {
		close(s.ch)
	}
	r.subs = map[*subscriber]struct{}{}
}

// Closed reports whether the recorder reached its terminal state.
func (r *Recorder) Closed() bool {
	if r == nil {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Events returns the buffered events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *Recorder) snapshotLocked() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Dropped returns how many events the ring overwrote (the timeline's
// missing prefix).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Seq returns the sequence number of the latest event (0 when none).
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Subscribers returns the number of live followers (tests assert this
// drops to zero after a follower disconnects).
func (r *Recorder) Subscribers() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// Subscribe returns the buffered events after the given sequence number
// (0 for the full buffer) plus a live channel for what comes next, and a
// cancel function that must be called when the follower leaves. The
// replay and the registration are atomic, so no event falls between the
// returned slice and the channel. On a recorder that is already closed
// the channel comes back closed: the caller writes the replay and is
// done. Subscribe spawns no goroutines; events arrive on the channel
// from the emitting goroutine, and a follower that stops draining loses
// events (counted) rather than stalling the emitter.
func (r *Recorder) Subscribe(after uint64, buffer int) (replay []Event, live <-chan Event, cancel func()) {
	if buffer <= 0 {
		buffer = 64
	}
	if r == nil {
		ch := make(chan Event)
		close(ch)
		return nil, ch, func() {}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range r.snapshotLocked() {
		if ev.Seq > after {
			replay = append(replay, ev)
		}
	}
	ch := make(chan Event, buffer)
	if r.closed {
		close(ch)
		return replay, ch, func() {}
	}
	s := &subscriber{ch: ch}
	r.subs[s] = struct{}{}
	var once sync.Once
	cancel = func() {
		once.Do(func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			if _, ok := r.subs[s]; ok {
				delete(r.subs, s)
				close(s.ch)
			}
		})
	}
	return replay, ch, cancel
}
