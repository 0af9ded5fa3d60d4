package rdma

import (
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

// fanout is the simulator's binding of transport.Fanout (DESIGN.md §15):
// it posts chains on connections of one client machine and delivers each
// completion into the round inside the event that carries its response, so
// a waiting process resumes inside the completion that satisfies its wait.
// A wait parks the engine's running process.
type fanout struct {
	conns   []*Conn // Send's i-th connection
	deliver transport.Deliver
	proc    *sim.Proc // parked in a wait
}

// BindFanout binds a fan-out over group, whose issuers are connections of
// this one's client machine: Send(i, …) posts on group[i]. A connection of
// another machine is a programming error, caught here.
func (c *Conn) BindFanout(group []transport.Issuer, deliver transport.Deliver) transport.FanoutBinding {
	f := &fanout{conns: make([]*Conn, len(group)), deliver: deliver}
	for i, is := range group {
		if f.conns[i] = is.(*Conn); f.conns[i].client != c.client {
			panic("rdma: one fan-out over connections of two client machines")
		}
	}
	return f
}

// Send posts ops on the i-th connection, routing its completion to
// complete. Only a process posts: one outside any panics before anything
// is on the wire.
func (f *fanout) Send(i int, ops []wire.Op, round uint64, slot int) {
	c := f.conns[i]
	c.client.running()
	e := c.prepare(ops)
	e.X.fan, e.X.round, e.X.slot = f, round, slot
	c.win.Enqueue(e)
}

// Await parks the running process until complete resumes it.
func (f *fanout) Await(pending bool) {
	if pending {
		f.proc = f.conns[0].client.running()
		f.proc.Park()
	}
}

func (f *fanout) complete(round uint64, slot int, res []wire.Result) {
	if f.deliver(round, slot, res, nil) {
		f.proc.Resume()
	}
}
