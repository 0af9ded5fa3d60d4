package rdma

import (
	"fmt"

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

// NewClient attaches a client NIC to the network, on its own fresh event
// domain.
func NewClient(net *fabric.Network, name string) *Client {
	return newClient(net, net.NewNode(name))
}

// NewClientInGroup attaches a client NIC on the shared domain of affinity
// group id (see fabric.Network.NewNodeInGroup): machines in one group
// barrier as a single domain and their mutual traffic skips the window
// barrier entirely. Behavior is byte-identical to ungrouped clients.
func NewClientInGroup(net *fabric.Network, name string, group int) *Client {
	return newClient(net, net.NewNodeInGroup(name, group))
}

func newClient(net *fabric.Network, node *fabric.Node) *Client {
	c := &Client{
		e:     node.Domain(),
		net:   net,
		node:  node,
		conns: make(map[connKey]*Conn),
	}
	c.node.SetHandler(c.onMessage)
	return c
}

// Node returns the client's fabric node.
func (c *Client) Node() *fabric.Node { return c.node }

// Domain returns the event domain this client machine lives on. Futures
// for this machine's connections complete there, so closed-loop client
// processes should be spawned on it.
func (c *Client) Domain() *sim.Engine { return c.e }

// Conn is a reliable connection (queue pair) to one server. Not safe for
// use by multiple simulation processes at once; give each closed-loop
// client its own Conn, as real applications give each thread its own QP.
//
// The issue/complete machinery — pooled epoch-stamped request records,
// connection-owned op scratch, and the strict send window — lives in
// transport.Window, shared with the live stream transports; this type
// binds it to the simulated fabric with a pooled future per request and
// a retransmit timer on lossy networks. The window depth is the
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

	// Retransmissions counts timer-driven resends (loss recovery).
	Retransmissions int64

	// wcheck is the scratch for wire-check mode (see SetWireCheck); nil
	// until the first checked transmission.
	wcheck *transport.WireCheckState
}

// simPending is the sim transport's per-entry completion state: the
// pooled future (Reset rather than reallocated on entry reuse), the
// retransmit timer armed on lossy networks, and — for a chain posted
// through a Fanout — the fan-out and the chain's position in it.
type simPending struct {
	fut   *sim.Future[[]wire.Result]
	timer sim.Timer
	fan   *Fanout
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

// Engine returns the client machine's event domain. Futures layered on
// top of this connection's completions (e.g. by abd) must be bound to
// it, because that is where they will be completed.
func (c *Conn) Engine() *sim.Engine { return c.client.e }

// Ops returns an n-op scratch slice owned by the connection, zeroed and
// ready to fill. The caller must hand it to the next IssueAsync/Issue on
// this connection, which recycles it when the response arrives — the
// zero-allocation alternative to building a fresh []wire.Op per request.
// The slice (including payload/mask fields set into it) must not be
// retained past the response.
func (c *Conn) Ops(n int) []wire.Op { return c.win.Ops(n) }

// IssueAsync transmits a chain of ops and returns a future for the
// per-op results. Requests beyond the send window queue locally until a
// slot frees (flow control, as real RC queue pairs bound outstanding
// work requests).
func (c *Conn) IssueAsync(ops []wire.Op) *sim.Future[[]wire.Result] {
	e := c.prepare(ops)
	c.win.Enqueue(e)
	return e.X.fut
}

// prepare claims a request record for ops with its pooled future pending.
func (c *Conn) prepare(ops []wire.Op) *transport.Entry[simPending] {
	if len(ops) == 0 {
		panic("rdma: empty request")
	}
	e := c.win.Prepare(ops)
	if e.X.fut == nil {
		e.X.fut = sim.NewFuture[[]wire.Result](c.client.e)
	} else {
		e.X.fut.Reset()
	}
	return e
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
	if transport.WireCheckEnabled() {
		if c.wcheck == nil {
			c.wcheck = &transport.WireCheckState{}
		}
		c.wcheck.CheckRequestRoundTrip(req)
	}
	c.client.net.Send(fabric.Message{
		From:    c.client.node,
		To:      c.srv.node,
		Size:    wire.RequestWireSize(req),
		Payload: req,
		Tag:     req.Epoch, // snapshot: receiver drops if the object was recycled
	})
}

func (c *Conn) armRetransmit(e *transport.Entry[simPending]) {
	e.X.timer = c.client.e.Schedule(c.client.net.Params().RetransmitTimeout, func() {
		if e.X.fut.Done() {
			return
		}
		c.Retransmissions++
		c.transmit(e.Req)
		c.armRetransmit(e)
	})
}

// Issue transmits ops and blocks the process until the response arrives.
func (c *Conn) Issue(p *sim.Proc, ops ...wire.Op) []wire.Result {
	return c.IssueAsync(ops).Wait(p)
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
	fut, fan, slot := e.X.fut, e.X.fan, e.X.slot
	e.X.fan = nil
	// Recycle the request record — future and op scratch included — for
	// the next issue on this connection; see transport.Window.Recycle.
	conn.win.Recycle(e)
	conn.win.Drain() // a window slot may have freed
	// The future completes for a fanned-out chain too, with nobody waiting
	// on it: it is what tells a retransmit timer the request was answered.
	fut.Complete(resp.Results)
	if fan != nil {
		fan.deliver(slot, resp.Results)
	}
}
