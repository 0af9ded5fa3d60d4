package rdma

import (
	"time"

	"prism/internal/memory"
	"prism/internal/sim"
	"prism/internal/wire"
)

// ProcConn is a Conn bound to the simulation process that issues on it —
// the transport.Issuer shape of the simulated NIC. Blocking calls park
// Proc in virtual time and never fail (the fabric retransmits instead),
// so every error is nil. Callers that learn their process per call
// re-point Proc before each call; a connection that only ever carries
// fire-and-forget traffic (a control QP) can leave it nil.
type ProcConn struct {
	Conn *Conn
	Proc *sim.Proc

	fan Fanout // IssueBatch's rounds
}

// Ops returns connection-owned op scratch (see Conn.Ops).
func (pc *ProcConn) Ops(n int) []wire.Op { return pc.Conn.Ops(n) }

// Issue transmits ops and parks Proc until the response arrives.
func (pc *ProcConn) Issue(ops []wire.Op) ([]wire.Result, error) {
	return pc.Conn.Issue(pc.Proc, ops...), nil
}

// IssueAsync transmits ops fire-and-forget (see Conn.IssueAsync).
func (pc *ProcConn) IssueAsync(ops []wire.Op) error {
	pc.Conn.IssueAsync(ops)
	return nil
}

// IssueBatch is a Fanout round on the one connection: results are copied
// out as each chain completes, so a train longer than the send window is
// safe, and stay valid until the next IssueBatch.
func (pc *ProcConn) IssueBatch(chains [][]wire.Op) ([][]wire.Result, error) {
	for _, ops := range chains {
		pc.fan.Post(pc.Conn, ops)
	}
	return pc.fan.Wait(pc.Proc), nil
}

// Temp returns the connection's temp buffer location.
func (pc *ProcConn) Temp() (memory.Addr, memory.RKey) { return pc.Conn.TempAddr, pc.Conn.TempKey }

// Sleep parks Proc for d of virtual time.
func (pc *ProcConn) Sleep(d time.Duration) { pc.Proc.Sleep(d) }
