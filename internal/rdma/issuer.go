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

	// IssueBatch scratch, reused across batches.
	futs    []*sim.Future[[]wire.Result]
	results [][]wire.Result
}

// Ops returns connection-owned op scratch (see Conn.Ops).
func (pc *ProcConn) Ops(n int) []wire.Op { return pc.Conn.Ops(n) }

// Issue transmits ops and parks Proc until the response arrives.
func (pc *ProcConn) Issue(ops []wire.Op) ([]wire.Result, error) {
	return pc.Conn.IssueAsync(ops).Wait(pc.Proc), nil
}

// IssueAsync transmits ops without waiting for the response.
func (pc *ProcConn) IssueAsync(ops []wire.Op) error {
	pc.Conn.IssueAsync(ops)
	return nil
}

// IssueBatch posts every chain, then waits for all of them. A train
// longer than the send window reuses the server's replay slots while it
// is still completing, so each chain's results are copied out the moment
// its wait returns — before the request that recycles its slot can reach
// the server.
func (pc *ProcConn) IssueBatch(chains [][]wire.Op) ([][]wire.Result, error) {
	pc.futs = pc.futs[:0]
	for _, ops := range chains {
		pc.futs = append(pc.futs, pc.Conn.IssueAsync(ops))
	}
	pc.results = pc.results[:0]
	for _, fut := range pc.futs {
		res := append([]wire.Result(nil), fut.Wait(pc.Proc)...)
		for i := range res {
			res[i].Data = append([]byte(nil), res[i].Data...)
		}
		pc.results = append(pc.results, res)
	}
	return pc.results, nil
}

// Temp returns the connection's temp buffer location.
func (pc *ProcConn) Temp() (memory.Addr, memory.RKey) { return pc.Conn.TempAddr, pc.Conn.TempKey }

// Sleep parks Proc for d of virtual time.
func (pc *ProcConn) Sleep(d time.Duration) { pc.Proc.Sleep(d) }
