package rdma

import (
	"slices"

	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

// Fanout is the simulator's binding of transport.Fanout (DESIGN.md §15):
// it posts chains on connections of one client machine and delivers each
// completion into the round inside the event that carries its response, so
// a waiting process resumes inside the completion that satisfies its wait.
// Post takes the connection; a wait parks the engine's running process. A
// protocol written over transport.Issuer gets the group form from
// transport.NewFanout (Conn.NewFanout). The zero value is ready to use.
type Fanout struct {
	transport.Fanout
	conns []*Conn   // Send's i-th connection
	proc  *sim.Proc // parked in a wait
}

// Post transmits ops on c as the next chain of the current round.
func (f *Fanout) Post(c *Conn, ops []wire.Op) { f.Fanout.Post(f.join(c), ops) }

// join returns c's position among the fan-out's connections, adding it.
func (f *Fanout) join(c *Conn) int {
	i := slices.Index(f.conns, c)
	if i < 0 {
		if len(f.conns) > 0 && f.conns[0].client != c.client {
			panic("rdma: one Fanout posting from two client machines")
		}
		i, f.conns = len(f.conns), append(f.conns, c)
	}
	f.Bind(f)
	return i
}

// Wait parks the running process until every chain of the round has
// completed and returns their results in posting order.
func (f *Fanout) Wait() [][]wire.Result {
	res, _ := f.Fanout.Wait() // simulated chains never fail
	return res
}

// Send posts ops on the i-th connection, routing its completion to deliver.
func (f *Fanout) Send(i int, ops []wire.Op, round uint64, slot int) {
	c := f.conns[i]
	e := c.prepare(ops)
	e.X.fan, e.X.round, e.X.slot = f, round, slot
	c.win.Enqueue(e)
}

// Await parks the running process until deliver resumes it.
func (f *Fanout) Await(pending bool) {
	if pending {
		f.proc = f.conns[0].client.running()
		f.proc.Park()
	}
}

func (f *Fanout) deliver(round uint64, slot int, res []wire.Result) {
	if f.Deliver(round, slot, res, nil) {
		f.proc.Resume()
	}
}
