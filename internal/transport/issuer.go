package transport

import (
	"time"

	"prism/internal/memory"
	"prism/internal/wire"
)

// Issuer is the client-side seam beside Window: what a protocol client
// needs from one connection, and nothing else, so an application's
// protocol is written once and runs over the simulated NIC (*rdma.Conn)
// or a live socket (*Conn) unchanged. Several chains in flight together,
// on one issuer or a group, are a round of a Fanout from NewFanout. Like
// the connection behind it, an Issuer is single-owner.
//
// Borrowing (DESIGN.md §11): Ops scratch belongs to the connection and
// must be handed to the next issue on it; every result slice and payload
// view an issue returns is transport-owned and valid only until the next
// issue on the same Issuer. Buffers the caller sets into ops (payloads,
// masks) must stay untouched until the response arrives.
type Issuer interface {
	// Ops returns an n-op scratch slice, zeroed and ready to fill.
	Ops(n int) []wire.Op
	// Issue transmits one chain and blocks until its response arrives.
	Issue(ops []wire.Op) ([]wire.Result, error)
	// IssueAsync transmits one chain fire-and-forget; the transport
	// consumes and discards the response.
	IssueAsync(ops []wire.Op) error
	// Temp locates the connection's temporary buffer on the server, the
	// redirect target for chains (§3.4).
	Temp() (memory.Addr, memory.RKey)
	// Sleep pauses the issuer for d: virtual time on the simulator,
	// wall-clock time on a live transport.
	Sleep(d time.Duration)
}

// Temp returns the connection's temp buffer location.
func (cn *Conn) Temp() (memory.Addr, memory.RKey) { return cn.TempAddr, cn.TempKey }

// Sleep blocks the calling goroutine for d of wall-clock time.
func (cn *Conn) Sleep(d time.Duration) { time.Sleep(d) }

// Issuers returns conns — live or simulated connections — as Issuers, in
// order: the group a protocol written over Issuer and Fanout runs on.
func Issuers[C Issuer](conns []C) []Issuer {
	is := make([]Issuer, len(conns))
	for i, cn := range conns {
		is[i] = cn
	}
	return is
}
