package cost

import (
	"runtime/metrics"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/stream"
)

// Scope is a query's instrumentation spine: a run of back-to-back phases,
// each opened once with Begin and closed once with End. The close is the
// only place a phase's clock is read, and every account of the phase is
// written there from that one reading: its span ends, the ledger child of
// the same name is charged the wall/CPU/heap window since the previous
// boundary (Open, or the End before) plus the work the caller measured,
// and phase.end carries what was charged. Spans, ledger nodes and events
// therefore share names, and the windows of a scope's phases tile its
// lifetime. Work that is not a phase of this run (another scope's phases,
// a cache fill) belongs before Open: open a new scope after it.
//
// Any of the three fields may be nil, and so may the scope: a nil Span
// starts no spans, a nil Ledger charges nothing, a nil Sink builds no
// event. One goroutine drives a scope.
type Scope struct {
	Span   *obs.Span // parent of the phase spans
	Ledger *Node     // root the phase nodes hang under
	Sink   func(event string, fields map[string]any)

	last    snapshot
	samples [len(snapSamples)]metrics.Sample
	phase   string
	span    *obs.Span
}

// Open starts a scope whose first phase is measured from now.
func Open(span *obs.Span, ledger *Node, sink func(event string, fields map[string]any)) *Scope {
	s := &Scope{Span: span, Ledger: ledger, Sink: sink}
	s.last = readSnap(&s.samples)
	return s
}

// Begin opens the named phase and returns its span for attributes.
func (s *Scope) Begin(name string) *obs.Span {
	if s == nil {
		return nil
	}
	s.phase, s.span = name, s.Span.Start(name)
	if s.Sink != nil {
		s.Sink(stream.EventPhaseStart, map[string]any{"phase": name})
	}
	return s.span
}

// End closes the open phase, adding work to its node, and returns the
// window it charged.
func (s *Scope) End(work Work) time.Duration {
	if s == nil {
		return 0
	}
	now := readSnap(&s.samples)
	window := now.wall.Sub(s.last.wall)
	s.span.EndAt(now.wall)
	node := s.Ledger.Child(s.phase)
	node.charge(s.last, now)
	node.Add(work)
	s.last = now
	if s.Sink != nil {
		t := node.Total()
		s.Sink(stream.EventPhaseEnd, map[string]any{
			"phase": s.phase, "ms": durMs(window),
			"units": t.Units(), "conflicts": t.Conflicts, "db_bytes": t.ClauseDBBytes,
		})
	}
	return window
}
