package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"prism/internal/memory"
	"prism/internal/wire"
)

// liveWindowDepth bounds outstanding requests per logical connection.
// Streams deliver exactly-once so there is no replay ring to cover; the
// window only bounds client-side pipelining (and keeps the shared temp
// buffer's slot discipline identical to the simulated transport).
const liveWindowDepth = 64

// ErrClientClosed reports an operation on a closed client.
var ErrClientClosed = errors.New("transport: client closed")

// Client is a live PRISM client endpoint: one stream socket carrying
// any number of logical connections (queue pairs). A demux goroutine
// routes response frames to their issuing connection; issues from many
// goroutines stage their frames through the socket's one FrameWriter,
// whose writer goroutine sends everything staged in one Write (see
// flush.go) — frames staged while a Write is in flight coalesce into the
// next one. Safe for concurrent use, but an individual Conn is
// single-owner, like a queue pair.
type Client struct {
	nc net.Conn
	fr *FrameReader
	fl *flusher

	mu    sync.Mutex // guards conns and err
	conns map[uint64]*Conn
	errv  error

	connectMu sync.Mutex // serializes Connect handshakes
	acceptCh  chan acceptInfo
	down      chan struct{} // closed when the socket dies
	downOnce  sync.Once

	resp wire.Response // demux alias-decode scratch
}

type acceptInfo struct {
	id       uint64
	tempAddr memory.Addr
	tempKey  memory.RKey
}

// Network guesses the network for an address: an address containing a
// path separator is a unix socket path, and so is one that is not a
// host:port (a relative path such as prism.sock); everything else is tcp.
func Network(addr string) string {
	if strings.ContainsRune(addr, '/') {
		return "unix"
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return "unix"
	}
	return "tcp"
}

// Dial connects to a live server at addr, inferring tcp vs unix from
// the address shape (see Network).
func Dial(addr string) (*Client, error) {
	return DialNetwork(Network(addr), addr)
}

// DialNetwork connects to a live server and performs the protocol
// handshake.
func DialNetwork(network, addr string) (*Client, error) {
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClientConn(nc)
}

// NewClientConn performs the client handshake over an established
// connection (a dialed socket, or one end of a net.Pipe in tests) and
// starts the demux and flusher goroutines.
func NewClientConn(nc net.Conn) (*Client, error) {
	c := &Client{
		nc:       nc,
		fr:       NewFrameReader(nc),
		conns:    make(map[uint64]*Conn),
		acceptCh: make(chan acceptInfo, 1),
		down:     make(chan struct{}),
	}
	// The handshake happens before the flusher exists, so a plain
	// framer writes the hello directly.
	if err := NewFrameWriter(nc).Send(frameHello, helloMagic); err != nil {
		nc.Close()
		return nil, err
	}
	kind, _, err := c.fr.Next()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if kind != frameWelcome {
		nc.Close()
		return nil, fmt.Errorf("transport: unexpected handshake frame 0x%02x", kind)
	}
	c.fl = newFlusher(nc, c.fail)
	go c.demux()
	return c, nil
}

// FlushStats returns the socket's doorbell telemetry: write syscalls
// issued, and the frames and bytes they carried. frames/writes is the
// realized batching factor (frames_per_write).
func (c *Client) FlushStats() (writes, frames, bytes int64) {
	return c.fl.stats()
}

// ReadStats returns the demux side's syscall telemetry: read syscalls
// issued and bytes they returned.
func (c *Client) ReadStats() (reads, bytes int64) {
	return c.fr.Reads.Load(), c.fr.BytesRead.Load()
}

// Err returns the error that took the client down, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errv
}

// fail records the first fatal error and closes the socket; the demux
// goroutine observes the closed socket and fails outstanding requests.
// The error is recorded before any waiter can be signaled, so an issuer
// that finds errv nil under a connection lock is guaranteed its entry
// will be seen by the teardown sweep.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.errv == nil {
		c.errv = err
	}
	c.mu.Unlock()
	c.downOnce.Do(func() { close(c.down) })
	if c.fl != nil {
		c.fl.poison(err)
	}
	c.nc.Close()
}

// closeDrainGrace bounds how long Close waits for staged frames to
// drain. A var so tests can shorten it.
var closeDrainGrace = 2 * time.Second

// Close tears the client down; outstanding issues fail with
// ErrClientClosed. Staged frames (reclamation batches and other
// fire-and-forget traffic) are flushed first, but the drain is bounded:
// a write deadline on the socket caps it, so a peer that stopped
// reading (send buffer full, writer stuck in Write) fails the flusher
// at the deadline instead of hanging Close forever.
func (c *Client) Close() error {
	c.nc.SetWriteDeadline(time.Now().Add(closeDrainGrace))
	c.fl.close()
	c.fail(ErrClientClosed)
	return nil
}

// Connect opens a logical connection (queue pair) on the socket.
func (c *Client) Connect() (*Conn, error) {
	c.connectMu.Lock()
	defer c.connectMu.Unlock()
	if err := c.Err(); err != nil {
		return nil, err
	}
	if err := c.fl.stageControl(frameConnect, nil); err != nil {
		c.fail(err)
		return nil, err
	}
	select {
	case a := <-c.acceptCh:
		cn := &Conn{c: c, id: a.id, TempAddr: a.tempAddr, TempKey: a.tempKey}
		cn.win = NewWindow[liveWait](a.id, liveWindowDepth, cn.transmit)
		c.mu.Lock()
		c.conns[a.id] = cn
		c.mu.Unlock()
		return cn, nil
	case <-c.down:
		return nil, c.Err()
	}
}

// Conn is a logical connection to the server. Like a real queue pair —
// and like the simulated rdma.Conn — it is single-owner: one goroutine
// issues on it at a time (the demux goroutine completes into it under
// the connection lock).
type Conn struct {
	c  *Client
	id uint64

	// TempAddr/TempKey locate this connection's temporary buffer on the
	// server, the redirect target for chains (§3.4).
	TempAddr memory.Addr
	TempKey  memory.RKey

	mu  sync.Mutex // guards win and batching (owner goroutine vs demux)
	win *Window[liveWait]

	// batching suppresses the per-frame doorbell while a fan-out's chain
	// is staged; the fan-out rings once when its owner waits.
	batching bool
}

// liveWait is the live transport's per-entry completion state: a
// reusable one-slot channel the issuer blocks on, and entry-owned
// storage the demux goroutine copies results into (the alias-decoded
// response borrows the socket read buffer, which the next frame
// overwrites). All of it — channel included — survives entry recycling,
// so a warmed window issues without allocating. A fan-out's chain goes to
// its fan-out's inbox instead of done, with its round and slot.
type liveWait struct {
	done    chan error
	results []wire.Result
	data    []byte
	async   bool
	fan     *liveFan
	round   uint64
	slot    int
}

// store copies results (whose Data alias the socket read buffer) into
// entry-owned storage.
func (lw *liveWait) store(results []wire.Result) {
	need := 0
	for i := range results {
		need += len(results[i].Data)
	}
	if cap(lw.data) < need {
		lw.data = make([]byte, need)
	}
	lw.data = lw.data[:need]
	if cap(lw.results) < len(results) {
		lw.results = make([]wire.Result, len(results))
	}
	lw.results = lw.results[:len(results)]
	off := 0
	for i := range results {
		r := &results[i]
		var d []byte
		if len(r.Data) > 0 {
			d = lw.data[off : off+len(r.Data)]
			copy(d, r.Data)
			off += len(r.Data)
		}
		lw.results[i] = wire.Result{Status: r.Status, Addr: r.Addr, Data: d}
	}
}

// Ops returns an n-op scratch slice owned by the connection, zeroed and
// ready to fill — hand it to the next Issue on this connection (see
// transport.Window.Ops).
func (cn *Conn) Ops(n int) []wire.Op {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.win.Ops(n)
}

// Issue transmits a chain of ops and blocks until the response arrives.
// The returned results (including payload views) are valid until the
// next issue on this connection, matching the simulated transport's
// borrowing contract.
func (cn *Conn) Issue(ops []wire.Op) ([]wire.Result, error) {
	e, err := cn.enqueue(ops, liveWait{})
	if err != nil {
		return nil, err
	}
	if err := <-e.X.done; err != nil {
		return nil, err
	}
	return e.X.results, nil
}

// IssueAsync transmits ops fire-and-forget: the response is consumed by
// the demux goroutine and discarded (reclamation batches and other
// best-effort traffic). Transport errors are reported by the next
// synchronous Issue.
func (cn *Conn) IssueAsync(ops []wire.Op) error {
	_, err := cn.enqueue(ops, liveWait{async: true})
	return err
}

// enqueue transmits ops with w's routing: a synchronous issue, a
// fire-and-forget one, or a fan-out's chain, staged without a doorbell.
func (cn *Conn) enqueue(ops []wire.Op, w liveWait) (*Entry[liveWait], error) {
	if len(ops) == 0 {
		return nil, errors.New("transport: empty request")
	}
	cn.mu.Lock()
	if err := cn.c.Err(); err != nil {
		cn.mu.Unlock()
		return nil, err
	}
	e := cn.win.Prepare(ops)
	if e.X.done == nil && w.fan == nil {
		e.X.done = make(chan error, 1)
	}
	e.X.async, e.X.fan, e.X.round, e.X.slot = w.async, w.fan, w.round, w.slot
	cn.batching = w.fan != nil
	cn.win.Enqueue(e)
	cn.batching = false
	cn.mu.Unlock()
	return e, nil
}

// transmit is the window's transmit hook; called with cn.mu held. It
// stages the frame into the socket's flush buffer; the doorbell rings
// per frame except while a fan-out stages its chain.
func (cn *Conn) transmit(e *Entry[liveWait]) {
	if err := cn.c.fl.stageRequest(e.Req, !cn.batching); err != nil {
		// The entry is already pending; failing the client wakes the
		// demux goroutine, whose teardown sweep fails it.
		cn.c.fail(err)
	}
}

// demux routes incoming frames: accept frames to the waiting Connect,
// responses to their issuing connection. On socket death it fails every
// outstanding request.
func (c *Client) demux() {
	for {
		kind, body, err := c.fr.Next()
		if err != nil {
			c.teardown(err)
			return
		}
		switch kind {
		case frameAccept:
			id, ta, tk, err := decodeAccept(body)
			if err != nil {
				c.teardown(err)
				return
			}
			select {
			case c.acceptCh <- acceptInfo{id: id, tempAddr: ta, tempKey: tk}:
			default:
				c.teardown(errors.New("transport: unsolicited accept frame"))
				return
			}
		case frameResponse:
			if err := wire.DecodeResponseAlias(&c.resp, body); err != nil {
				c.teardown(err)
				return
			}
			c.mu.Lock()
			cn := c.conns[c.resp.Conn]
			c.mu.Unlock()
			if cn == nil {
				c.teardown(fmt.Errorf("transport: response for unknown connection %d", c.resp.Conn))
				return
			}
			cn.complete(&c.resp)
		default:
			c.teardown(fmt.Errorf("transport: unexpected frame 0x%02x", kind))
			return
		}
	}
}

// complete hands a response to its entry: copy results into entry-owned
// storage, recycle, refill the window, wake the issuer.
func (cn *Conn) complete(resp *wire.Response) {
	cn.mu.Lock()
	e := cn.win.Take(resp.Seq)
	if e == nil {
		cn.mu.Unlock()
		return // stream transports never duplicate; tolerate anyway
	}
	async, fan := e.X.async, e.X.fan
	if !async {
		e.X.store(resp.Results)
	}
	if fan == nil {
		cn.win.Recycle(e) // a fan-out's owner recycles its entries
	}
	cn.win.Drain()
	cn.mu.Unlock()
	switch {
	case fan != nil:
		fan.push(cn, e, nil)
	case !async:
		e.X.done <- nil
	}
}

// teardown records the fatal error and fails every outstanding request
// on every connection.
func (c *Client) teardown(err error) {
	c.fail(err)
	err = c.Err() // first error wins
	c.mu.Lock()
	conns := make([]*Conn, 0, len(c.conns))
	for _, cn := range c.conns {
		conns = append(conns, cn)
	}
	c.mu.Unlock()
	var waiters []fanDone
	for _, cn := range conns {
		cn.mu.Lock()
		cn.win.Drop(func(e *Entry[liveWait]) {
			if !e.X.async {
				waiters = append(waiters, fanDone{cn, e, err})
			}
		})
		cn.mu.Unlock()
	}
	for _, w := range waiters {
		if w.e.X.fan != nil {
			w.e.X.fan.push(w.cn, w.e, err)
		} else {
			w.e.X.done <- err
		}
	}
}
