package rdma

import (
	"fmt"
	"time"

	"prism/internal/fabric"
	"prism/internal/memory"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

// Client is a client machine's NIC endpoint. Many connections (queue
// pairs) to different servers can share one client NIC, and many
// closed-loop client processes can share one machine — as in the paper's
// testbed, where up to 11 client machines drive one server.
type Client struct {
	e     *sim.Engine
	net   *fabric.Network
	node  *fabric.Node
	conns map[connKey]*Conn
}

type connKey struct {
	node *fabric.Node // the server's NIC
	id   uint64
}

// NewClient attaches a client NIC to the network.
func NewClient(net *fabric.Network, name string) *Client {
	c := &Client{
		e:     net.Engine(),
		net:   net,
		node:  net.NewNode(name),
		conns: make(map[connKey]*Conn),
	}
	c.node.SetHandler(c.onMessage)
	return c
}

// Node returns the client's fabric node.
func (c *Client) Node() *fabric.Node { return c.node }

// Conn is a reliable connection (queue pair) to one server, and the
// simulator's transport.Issuer: a blocking call parks the engine's running
// process (sim.Engine.Running) in virtual time and never fails — the
// fabric retransmits instead — so every error it returns is nil. Several
// chains in flight together are a round of a transport.Fanout, whose
// binding BindFanout makes. Not safe for use by multiple simulation
// processes at once; give each closed-loop client its own Conn, as real
// applications give each thread its own QP.
//
// The issue/complete machinery — pooled epoch-stamped request records,
// connection-owned op scratch, and the strict send window — lives in
// transport.Window, shared with the live stream transports; this type
// binds it to the simulated fabric: a response resumes the process parked
// on it, and a retransmit timer covers lossy networks. The window depth is the
// server's replay-ring depth: a request is only on the wire while its
// response can still be replayed, so a retransmitted duplicate can
// never re-execute (re-execution of a chain could clobber the shared
// temp buffer under a live chain).
type Conn struct {
	client *Client
	srv    *Server
	id     uint64

	// TempAddr/TempKey locate this connection's temporary buffer on the
	// server, the redirect target for chains (§3.4).
	TempAddr memory.Addr
	TempKey  memory.RKey

	win *transport.Window[simPending]
	res []wire.Result // the response handed to the process resumed in Issue

	// Retransmissions counts timer-driven resends (loss recovery).
	Retransmissions int64
}

// simPending is the sim transport's per-entry completion state: the
// retransmit timer armed on lossy networks and who the response goes to —
// the process parked in Issue, or the fan-out a chain was posted on with
// the chain's round and position in it. A fire-and-forget request has
// neither.
type simPending struct {
	timer sim.Timer
	proc  *sim.Proc
	fan   *fanout
	round uint64
	slot  int
}

// Connect opens a queue pair from the client to the server. Connection
// setup is control-plane work (CPU + kernel registration on the server
// side); its cost is not modeled, as the paper's experiments pre-establish
// all connections.
func (c *Client) Connect(srv *Server) *Conn {
	id, temp, tempKey := srv.connect(c.node)
	conn := &Conn{
		client:   c,
		srv:      srv,
		id:       id,
		TempAddr: temp,
		TempKey:  tempKey,
	}
	conn.win = transport.NewWindow[simPending](id, replayDepth, conn.transmitEntry)
	c.conns[connKey{node: srv.node, id: id}] = conn
	return conn
}

// Server returns the remote end of the connection.
func (c *Conn) Server() *Server { return c.srv }

// Ops returns an n-op scratch slice owned by the connection, zeroed and
// ready to fill. The caller must hand it to the next issue on this
// connection (Issue, IssueAsync or a fan-out's Post), which recycles it
// when the response arrives — the zero-allocation alternative to building
// a fresh []wire.Op per request. The slice (including payload/mask fields
// set into it) must not be retained past the response.
func (c *Conn) Ops(n int) []wire.Op { return c.win.Ops(n) }

// IssueAsync transmits a chain of ops fire-and-forget: its response is
// discarded. Requests beyond the send window queue locally until a slot
// frees (flow control, as real RC queue pairs bound outstanding work
// requests). A caller that wants the results of chains in flight together
// posts them on a transport.Fanout instead.
func (c *Conn) IssueAsync(ops []wire.Op) error {
	c.win.Enqueue(c.prepare(ops))
	return nil
}

// Temp returns the connection's temp buffer location.
func (c *Conn) Temp() (memory.Addr, memory.RKey) { return c.TempAddr, c.TempKey }

// Sleep parks the running process for d of virtual time.
func (c *Conn) Sleep(d time.Duration) { c.client.running().Sleep(d) }

// running returns the process to park, which must exist: only a process
// can block.
func (c *Client) running() *sim.Proc {
	p := c.e.Running()
	if p == nil {
		panic("rdma: a blocking call outside a simulation process (issue from a body started with Engine.Go)")
	}
	return p
}

// prepare claims a request record for ops.
func (c *Conn) prepare(ops []wire.Op) *transport.Entry[simPending] {
	if len(ops) == 0 {
		panic("rdma: empty request")
	}
	return c.win.Prepare(ops)
}

// transmitEntry is the window's transmit hook: put the request on the
// fabric and, if the network can lose it, arm the retransmit timer.
func (c *Conn) transmitEntry(e *transport.Entry[simPending]) {
	c.transmit(e.Req)
	if c.client.net.Params().LossRate > 0 {
		c.armRetransmit(e)
	}
}

func (c *Conn) transmit(req *wire.Request) {
	c.client.net.Send(fabric.Message{
		From:    c.client.node,
		To:      c.srv.node,
		Size:    wire.RequestWireSize(req),
		Payload: req,
		Tag:     req.Epoch, // snapshot: receiver drops if the object was recycled
	})
}

// armRetransmit resends e's request every RetransmitTimeout until it is
// answered. The answer is the window handing the entry back (Take), which
// stops the timer, so a firing timer's request is still unanswered.
func (c *Conn) armRetransmit(e *transport.Entry[simPending]) {
	e.X.timer = c.client.e.Schedule(c.client.net.Params().RetransmitTimeout, func() {
		c.Retransmissions++
		c.transmit(e.Req)
		c.armRetransmit(e)
	})
}

// Issue transmits ops and parks the running process on the connection
// until the response arrives; the event that delivers it resumes the
// process. The results are valid until the next issue on this connection.
func (c *Conn) Issue(ops []wire.Op) ([]wire.Result, error) {
	p := c.client.running()
	e := c.prepare(ops)
	e.X.proc = p
	c.win.Enqueue(e)
	p.Park()
	res := c.res
	c.res = nil
	return res, nil
}

// onMessage completes pending requests as responses arrive.
func (c *Client) onMessage(m fabric.Message) {
	resp, ok := m.Payload.(*wire.Response)
	if !ok {
		panic(fmt.Sprintf("rdma: client %s received %T", c.node.Name(), m.Payload))
	}
	if resp.Epoch != m.Tag {
		// The server recycled this response object into a newer incarnation
		// while the (duplicate) datagram was in flight; its contents answer
		// a different request now. Drop it.
		return
	}
	conn, ok := c.conns[connKey{node: m.From, id: resp.Conn}]
	if !ok {
		panic(fmt.Sprintf("rdma: response for unknown connection %d from %s", resp.Conn, m.From.Name()))
	}
	e := conn.win.Take(resp.Seq)
	if e == nil {
		return // duplicate response (original + replayed retransmission)
	}
	e.X.timer.Stop()
	x := e.X
	e.X = simPending{}
	// Recycle the request record — op scratch included — for the next
	// issue on this connection; see transport.Window.Recycle.
	conn.win.Recycle(e)
	conn.win.Drain() // a window slot may have freed
	switch {
	case x.proc != nil:
		conn.res = resp.Results
		x.proc.Resume()
	case x.fan != nil:
		x.fan.complete(x.round, x.slot, resp.Results)
	}
}
