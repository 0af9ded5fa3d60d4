package rdma

import (
	"fmt"

	"prism/internal/sim"
	"prism/internal/wire"
)

// TraceEvent records one executed operation on a server NIC, for
// debugging, teaching (cmd/prismtrace), and tests that assert on the exact
// wire-level behavior of a protocol.
type TraceEvent struct {
	At     sim.Time
	Domain int // event domain of the server that executed the op
	Conn   uint64
	Seq    uint64
	OpIdx  int // position within the request's chain
	Code   wire.OpCode
	Flags  wire.Flags
	Status wire.Status
	// Op is the executed op itself, for tracers that print more than its
	// code and flags (cmd/prismtrace). It points into the request being
	// served and is valid only during the Tracer call: format it there,
	// never keep it (TraceRing drops it).
	Op *wire.Op
}

func (e TraceEvent) String() string {
	return fmt.Sprintf("%v dom=%d conn=%d seq=%d op[%d] %v flags=%#x -> %v",
		e.At, e.Domain, e.Conn, e.Seq, e.OpIdx, e.Code, uint8(e.Flags), e.Status)
}

// Tracer receives TraceEvents as operations execute.
type Tracer func(TraceEvent)

// SetTracer installs (or, with nil, removes) an op tracer. Tracing is
// free when disabled.
func (s *Server) SetTracer(t Tracer) { s.tracer = t }

// TraceRing is a bounded in-memory tracer retaining the most recent
// events.
type TraceRing struct {
	events []TraceEvent
	next   int
	full   bool
}

// NewTraceRing returns a ring retaining the last n events.
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		panic("rdma: trace ring needs capacity")
	}
	return &TraceRing{events: make([]TraceEvent, n)}
}

// Record appends an event (Tracer-compatible), without its live op.
func (r *TraceRing) Record(e TraceEvent) {
	e.Op = nil
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.full = true
	}
}

// Events returns the retained events, oldest first.
func (r *TraceRing) Events() []TraceEvent {
	if !r.full {
		return append([]TraceEvent(nil), r.events[:r.next]...)
	}
	out := make([]TraceEvent, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Len reports how many events are retained.
func (r *TraceRing) Len() int {
	if r.full {
		return len(r.events)
	}
	return r.next
}
