package transport

import (
	"bytes"
	"encoding/binary"
	"time"

	"prism/internal/memory"
	"prism/internal/prism"
)

// §3.2's client-driven reclamation, both halves: clients batch the buffers
// their updates displaced and report them in a fire-and-forget RPC
// (Reclaimer); the server recycles a report once in-flight operations
// drain (ReclamationHandler, or a store's own handler over
// Host.RecycleBuffers).

// Reclaimer is the client half for one server: it batches fixed-size
// records — opaque here; each application keeps its own format — behind
// the application's RPC opcode and sends a batch without waiting for the
// acknowledgment. The application chooses the flush points: Retire only
// queues. Single-owner, like the connections under it.
type Reclaimer struct {
	// Batch is the number of retired records at which Full reports true.
	Batch int
	// Ctrl, when set, carries the RPCs on a dedicated control connection so
	// they never queue behind data-path chains on the data connection
	// (requests on one queue pair execute in order). It only ever sees Ops
	// and IssueAsync.
	Ctrl Issuer

	conn Issuer
	buf  []byte // [op | records...]: the next payload, always op-prefixed
	n    int    // records in buf
}

// NewReclaimer batches records for the server behind conn, reported under
// RPC opcode op, batch records at a time.
func NewReclaimer(conn Issuer, op byte, batch int) Reclaimer {
	return Reclaimer{Batch: batch, conn: conn, buf: []byte{op}}
}

// Retire queues one record.
func (r *Reclaimer) Retire(rec []byte) {
	r.buf = append(r.buf, rec...)
	r.n++
}

// Full reports whether a whole batch is queued.
func (r *Reclaimer) Full() bool { return r.n >= r.Batch }

// Flush sends whatever is queued (nothing when empty). The payload is
// copied out of the batch buffer because the RPC is fire-and-forget: the
// buffer refills while the request may still be in flight.
func (r *Reclaimer) Flush() error {
	if r.n == 0 {
		return nil
	}
	payload := bytes.Clone(r.buf)
	r.buf, r.n = r.buf[:1], 0
	conn := r.conn
	if r.Ctrl != nil {
		conn = r.Ctrl
	}
	ops := conn.Ops(1)
	ops[0] = prism.Send(payload)
	return conn.IssueAsync(ops)
}

// FlushFull flushes the full batches among a client's per-server
// reclaimers: what a multi-server client does at each of its flush points.
// It tries every server and returns the first error.
func FlushFull(rs []Reclaimer) error {
	var first error
	for i := range rs {
		if rs[i].Full() {
			if err := rs[i].Flush(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// ReclamationHandler returns the RPC handler of §3.2's reclamation daemon
// for a store with one free list: a payload of op followed by packed
// little-endian buffer addresses recycles those buffers in one
// RecycleBuffers call. Recycling is cheap bookkeeping, charged ~100ns of
// server CPU per buffer. Any other payload gets no reply.
func ReclamationHandler(h Host, op byte, freeList uint32) RPCHandler {
	var retired []memory.Addr // decode scratch; RPC dispatch is serialized
	return func(payload []byte) ([]byte, time.Duration) {
		if len(payload) == 0 || payload[0] != op {
			return nil, 0
		}
		retired = retired[:0]
		for rest := payload[1:]; len(rest) >= 8; rest = rest[8:] {
			retired = append(retired, memory.Addr(binary.LittleEndian.Uint64(rest)))
		}
		h.RecycleBuffers(freeList, retired)
		return []byte{0}, time.Duration(len(retired)) * 100 * time.Nanosecond
	}
}
