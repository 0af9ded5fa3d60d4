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
// Post, Wait and WaitFirst take the connection and the process; a protocol
// written over transport.Issuer gets the group form from Group.Fanout. The
// zero value is ready to use.
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

// Wait parks p until every chain of the round has completed and returns
// their results in posting order.
func (f *Fanout) Wait(p *sim.Proc) [][]wire.Result {
	f.proc = p
	res, _ := f.Fanout.Wait() // simulated chains never fail
	return res
}

// WaitFirst parks p until k chains of the round have answered well and
// returns the chains that had answered, in completion order.
func (f *Fanout) WaitFirst(p *sim.Proc, k int) []transport.Reply {
	f.proc = p
	return f.Fanout.WaitFirst(k)
}

// Send posts ops on the i-th connection, routing its completion to deliver.
func (f *Fanout) Send(i int, ops []wire.Op, round uint64, slot int) {
	c := f.conns[i]
	e := c.prepare(ops)
	e.X.fan, e.X.round, e.X.slot = f, round, slot
	c.win.Enqueue(e)
}

// Await parks the waiting process until deliver resumes it.
func (f *Fanout) Await(pending bool) {
	if pending {
		f.proc.Park()
	}
}

func (f *Fanout) deliver(round uint64, slot int, res []wire.Result) {
	if f.Deliver(round, slot, res, nil) {
		f.proc.Resume()
	}
}

// Group is one process's connections to a group of servers — a replica
// set, a store's shards — as a protocol written over transport.Issuer and
// transport.Fanout runs on them. Its simulated shell calls Bind with the
// calling process before each operation.
type Group struct {
	Issuers []transport.Issuer // one ProcConn per server
	conns   []ProcConn
	fans    []*Fanout
}

// NewGroup binds conns into a group.
func NewGroup(conns []*Conn) *Group {
	g := &Group{conns: make([]ProcConn, len(conns))}
	for i, c := range conns {
		g.conns[i].Conn = c
		g.Issuers = append(g.Issuers, &g.conns[i])
	}
	return g
}

// Fanout returns a new fan-out over the group.
func (g *Group) Fanout() *transport.Fanout {
	f := &Fanout{}
	for _, pc := range g.conns {
		f.join(pc.Conn)
	}
	g.fans = append(g.fans, f)
	return &f.Fanout
}

// Bind points the group's connections and fan-outs at p.
func (g *Group) Bind(p *sim.Proc) {
	for i := range g.conns {
		g.conns[i].Proc = p
	}
	for _, f := range g.fans {
		f.proc = p
	}
}
