package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
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
// any number of logical connections (queue pairs). Issues from many
// goroutines stage their frames through the socket's one FrameWriter,
// whose writer goroutine sends everything staged in one Write (see
// flush.go) — frames staged while a Write is in flight coalesce into the
// next one. Frames are read under the socket's one read token (see read).
// On a socket that carries one connection and no fan-out, its sync issuer
// takes the free token and reads its own response, as a verbs thread
// polls its own completion; the socket's goroutine reads for everything
// else, and for good once the socket carries several connections or a
// fan-out. Safe for concurrent use, but an individual Conn is
// single-owner, like a queue pair.
type Client struct {
	nc net.Conn
	fr *FrameReader
	fl *flusher

	mu    sync.Mutex // guards conns and err
	conns map[uint64]*Conn
	errv  error

	connectMu sync.Mutex // serializes Connect handshakes
	greeted   bool       // a CONNECT carrying the hello is staged; connectMu held
	acceptCh  chan acceptInfo
	down      chan struct{} // closed when the socket dies
	downOnce  sync.Once

	// The read token. Its holder alone reads fr and decodes into resp;
	// rmu guards reading, and a token is freed and granted under it. grant
	// is sent on only while the token is free, so the send never blocks.
	// Lock order: a connection's mu before rmu before mu.
	rmu     sync.Mutex
	reading bool                 // the token is held
	grant   chan struct{}        // hands the token to the socket's goroutine
	demand  atomic.Int64         // what the socket's goroutine reads for (see need)
	demux   atomic.Bool          // the socket's goroutine reads for good (see readForGood)
	lent    atomic.Pointer[Conn] // the connection fr's buffer is lent to
	resp    wire.Response
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

// DialNetwork connects to a live server (see NewClientConn).
func DialNetwork(network, addr string) (*Client, error) {
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClientConn(nc)
}

// NewClientConn starts a client over an established connection (a dialed
// socket, or one end of a net.Pipe in tests): the socket's two
// goroutines, the flusher's writer and a reader that reads whenever no
// issuer reads for itself and parks otherwise (see read). It sends
// nothing: the protocol hello rides in the first Connect.
func NewClientConn(nc net.Conn) (*Client, error) {
	c := &Client{
		nc:       nc,
		fr:       NewFrameReader(nc),
		conns:    make(map[uint64]*Conn),
		acceptCh: make(chan acceptInfo, 1),
		down:     make(chan struct{}),
		grant:    make(chan struct{}, 1),
	}
	c.fl = newFlusher(nc, c.fail)
	go c.readLoop()
	return c, nil
}

// FlushStats returns the socket's doorbell telemetry: write syscalls
// issued, and the frames and bytes they carried. frames/writes is the
// realized batching factor (frames_per_write).
func (c *Client) FlushStats() (writes, frames, bytes int64) {
	return c.fl.stats()
}

// ReadStats returns the socket's read telemetry: read syscalls issued,
// whoever held the read token, and the bytes they returned.
func (c *Client) ReadStats() (reads, bytes int64) {
	return c.fr.Reads.Load(), c.fr.BytesRead.Load()
}

// Err returns the error that took the client down, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errv
}

// fail records the first fatal error, closes the socket and fails every
// outstanding request: a waiting issuer is told, a fan-out's chain goes to
// its owner with the error, a fire-and-forget one is dropped. The error is
// recorded before the sweep, so an issuer that finds errv nil under a
// connection lock is guaranteed its entry will be seen by it. A token
// holder reading the closed socket fails at once. Called with no lock
// held; a second call sweeps empty windows.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.errv == nil {
		c.errv = err
	}
	err = c.errv
	conns := make([]*Conn, 0, len(c.conns))
	for _, cn := range c.conns {
		conns = append(conns, cn)
	}
	c.mu.Unlock()
	c.downOnce.Do(func() { close(c.down) })
	if c.fl != nil {
		c.fl.poison(err)
	}
	c.nc.Close()
	var fans []fanDone
	for _, cn := range conns {
		waits, async := false, 0
		cn.mu.Lock()
		cn.win.Drop(func(e *Entry[liveWait]) {
			switch {
			case e.X.fan != nil:
				fans = append(fans, fanDone{cn, e, err})
			case e.X.async:
				async++
			default:
				waits = true
			}
		})
		cn.mu.Unlock()
		if async > 0 {
			c.need(-int64(async))
		}
		if waits {
			cn.wake <- err
		}
	}
	for _, d := range fans {
		d.e.X.fan.push(d.cn, d.e, err)
	}
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

// Connect opens a logical connection (queue pair) on the socket. The
// socket's first CONNECT carries the protocol hello, so its accept also
// says the server took the socket; a server that refuses the socket says
// why, and Connect returns that (ErrTooManySockets, ErrServerClosed,
// ErrBadHello, or too many connections). The socket's goroutine, or an
// issuer holding the read token, reads the answer. From the second
// connection on, the socket's goroutine reads for good (see readForGood).
func (c *Client) Connect() (*Conn, error) {
	c.connectMu.Lock()
	defer c.connectMu.Unlock()
	if err := c.Err(); err != nil {
		return nil, err
	}
	var hello []byte
	if !c.greeted {
		hello = helloMagic
	}
	if err := c.fl.stageControl(frameConnect, hello); err != nil {
		c.fail(err)
		return nil, err
	}
	c.greeted = true
	c.need(1) // given back by the reader that routes the accept frame
	var a acceptInfo
	select {
	case a = <-c.acceptCh:
	case <-c.down:
		return nil, c.Err()
	}
	cn := &Conn{c: c, id: a.id, TempAddr: a.tempAddr, TempKey: a.tempKey, wake: make(chan error, 1)}
	cn.win = NewWindow[liveWait](a.id, liveWindowDepth, cn.transmit)
	c.mu.Lock()
	c.conns[a.id] = cn
	shared := len(c.conns) > 1
	c.mu.Unlock()
	if shared {
		c.readForGood()
	}
	return cn, nil
}

// Conn is a logical connection to the server. Like a real queue pair —
// and like the simulated rdma.Conn — it is single-owner: one goroutine
// issues on it at a time (a token holder completes into it under the
// connection lock).
type Conn struct {
	c  *Client
	id uint64

	// TempAddr/TempKey locate this connection's temporary buffer on the
	// server, the redirect target for chains (§3.4).
	TempAddr memory.Addr
	TempKey  memory.RKey

	mu  sync.Mutex // guards win and batching (owner goroutine vs token holders)
	win *Window[liveWait]

	// batching suppresses the per-frame doorbell while a fan-out's chain
	// is staged; the fan-out rings once when its owner waits.
	batching bool

	// wake tells the owner that its sync issue, read by another
	// goroutine, completed (nil) or failed: one message per issue, so a
	// send never blocks. waiting marks an owner whose wait keeps the
	// socket's goroutine reading (see await); whoever clears it gives that
	// demand back.
	wake    chan error
	waiting atomic.Bool
}

// liveWait is the live transport's per-entry completion state:
// entry-owned storage for the result list, and for payloads copied out
// of the read buffer before the next frame overwrites it. It survives
// entry recycling, so a warmed window issues without allocating. A
// fan-out's chain names its fan-out, round and slot.
type liveWait struct {
	results []wire.Result
	data    []byte
	async   bool
	fan     *liveFan
	round   uint64
	slot    int
}

// store keeps results (whose Data alias the read buffer) in entry-owned
// storage: the result list always, the payloads only with copyData.
func (lw *liveWait) store(results []wire.Result, copyData bool) {
	if cap(lw.results) < len(results) {
		lw.results = make([]wire.Result, len(results))
	}
	lw.results = lw.results[:len(results)]
	copy(lw.results, results)
	if !copyData {
		return
	}
	need := 0
	for i := range results {
		need += len(results[i].Data)
	}
	if cap(lw.data) < need {
		lw.data = make([]byte, need)
	}
	lw.data = lw.data[:0]
	for i := range lw.results {
		if d := lw.results[i].Data; len(d) > 0 {
			off := len(lw.data)
			lw.data = append(lw.data, d...)
			lw.results[i].Data = lw.data[off:]
		}
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
// On a socket that carries one connection and no fan-out it reads the
// response itself when the read token is free; otherwise whoever holds
// the token reads it and tells it. The returned results (including payload views) are valid
// until the next issue on this connection, matching the simulated
// transport's borrowing contract: read for itself, they alias the
// socket's read buffer, lent to the connection until then, and read by
// another goroutine, they are copied into the entry.
func (cn *Conn) Issue(ops []wire.Op) ([]wire.Result, error) {
	e, err := cn.enqueue(ops, liveWait{})
	if err != nil {
		return nil, err
	}
	if cn.c.demux.Load() {
		err = <-cn.wake // the socket's goroutine reads for everyone
	} else {
		err = cn.await(e)
	}
	if err != nil {
		return nil, err
	}
	return e.X.results, nil
}

// await waits for e, the sync issue of a connection alone on a socket
// that carries no fan-out:
// it reads for itself when the token is free and its response has not
// been read, and otherwise keeps the socket's goroutine reading until it
// is told.
func (cn *Conn) await(e *Entry[liveWait]) error {
	c := cn.c
	c.rmu.Lock()
	if c.reading {
		c.demand.Add(1)
		cn.waiting.Store(true)
		c.rmu.Unlock()
		err := <-cn.wake
		cn.stopWaiting()
		return err
	}
	select {
	case err := <-cn.wake: // read before the token came free
		c.rmu.Unlock()
		return err
	default:
	}
	c.reading = true
	c.rmu.Unlock()
	return c.read(&reader{cn: cn, entry: e})
}

// IssueAsync transmits ops fire-and-forget: whoever reads the response
// discards it, and the socket's goroutine reads while one is in flight
// (reclamation batches and other best-effort traffic). Transport errors
// are reported by the next synchronous Issue.
func (cn *Conn) IssueAsync(ops []wire.Op) error {
	_, err := cn.enqueue(ops, liveWait{async: true})
	return err
}

// enqueue transmits ops with w's routing: a synchronous issue, a
// fire-and-forget one, or a fan-out's chain, staged without a doorbell.
// Being an issue on the connection, it ends the lend of the read buffer
// its last results alias.
func (cn *Conn) enqueue(ops []wire.Op, w liveWait) (*Entry[liveWait], error) {
	if len(ops) == 0 {
		return nil, errors.New("transport: empty request")
	}
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if err := cn.c.Err(); err != nil {
		return nil, err
	}
	e := cn.win.Prepare(ops)
	e.X.async, e.X.fan, e.X.round, e.X.slot = w.async, w.fan, w.round, w.slot
	cn.batching = w.fan != nil
	cn.win.Enqueue(e)
	cn.batching = false
	c := cn.c
	if c.lent.Load() == cn {
		c.lent.CompareAndSwap(cn, nil)
	}
	if w.async {
		c.need(1)
	}
	return e, nil
}

// transmit is the window's transmit hook; called with cn.mu held. It
// stages the frame into the socket's flush buffer; the doorbell rings
// per frame except while a fan-out stages its chain.
func (cn *Conn) transmit(e *Entry[liveWait]) {
	if err := cn.c.fl.stageRequest(e.Req, !cn.batching); err != nil {
		// The entry is already pending; failing the client sweeps it.
		// fail takes this connection's lock, so it runs apart.
		go cn.c.fail(err)
	}
}

// stopWaiting gives back the demand the owner's wait added, once: the
// reader that tells it does so before it reads on, so that the socket's
// goroutine parks when nothing else needs it, and the owner after it is
// told, in case the reader came first.
func (cn *Conn) stopWaiting() {
	if cn.waiting.Load() && cn.waiting.Swap(false) {
		cn.c.demand.Add(-1)
	}
}

// A reader is what the read token's holder reads for: its own sync issue
// (entry, on cn), or nothing for the socket's goroutine (entry nil).
type reader struct {
	cn    *Conn
	entry *Entry[liveWait]
	done  bool // entry's completion has arrived
}

// need adds d to the socket's demand: +1 as a Connect, a fire-and-forget
// chain or a sync issue that does not read for itself begins, -1 as it
// ends. A free token goes to the socket's goroutine.
func (c *Client) need(d int64) {
	if c.demand.Add(d) > 0 && d > 0 {
		c.rmu.Lock()
		c.grantFree()
		c.rmu.Unlock()
	}
}

// readForGood makes the socket's goroutine read for good, once: the
// socket carries a second connection, or a fan-out. Then it is a
// demultiplexer and no issuer waits for the token. Passing the token from
// issuer to issuer, or waking the goroutine for every fan-out round,
// costs a goroutine wake-up each time, where a goroutine that keeps
// reading needs none.
func (c *Client) readForGood() {
	if c.demux.CompareAndSwap(false, true) {
		c.need(1)
	}
}

// grantFree gives a free read token to the socket's goroutine while there
// is demand and the socket lives; rmu held.
func (c *Client) grantFree() {
	if !c.reading && c.demand.Load() > 0 && c.Err() == nil {
		c.reading = true
		c.grant <- struct{}{}
	}
}

// readLoop is the socket's goroutine: it reads while it holds the token,
// and parks otherwise, until the socket dies.
func (c *Client) readLoop() {
	for {
		select {
		case <-c.grant:
		case <-c.down:
			// A token granted before the socket died is read with once
			// more, which fails and frees it; none is granted after.
			c.rmu.Lock()
			select {
			case <-c.grant:
				c.rmu.Unlock()
			default:
				c.rmu.Unlock()
				return
			}
		}
		c.read(&reader{})
	}
}

// read is the socket's one read path, run by whoever holds the read
// token: it reads frames and routes each to its waiter until r's own
// completion has arrived — or, for the socket's goroutine, until no
// demand is left — then frees the token, granting it straight back to the
// socket's goroutine if demand rose meanwhile. A sync issue's own results
// stay where they were read: the buffer is lent to its connection, and a
// later reader first moves the unconsumed frames into a new buffer,
// leaving the old one to the results. It returns the error that took the
// socket down before r's completion arrived.
func (c *Client) read(r *reader) error {
	for !r.done {
		if r.entry == nil && c.demand.Load() <= 0 {
			break
		}
		if c.lent.Load() != nil && c.lent.Swap(nil) != nil {
			c.fr.lend()
		}
		kind, body, err := c.fr.Next()
		if err == nil {
			err = c.route(kind, body, r)
		}
		if err != nil {
			c.fail(err)
			break
		}
	}
	if r.done {
		c.lent.Store(r.cn)
	}
	c.rmu.Lock()
	c.reading = false
	c.grantFree()
	c.rmu.Unlock()
	if r.done {
		return nil
	}
	return c.Err()
}

// route hands one frame to its waiter: an accept frame to the Connect
// waiting for it, a response to its issuing connection. A refusal is the
// error that takes the socket down.
func (c *Client) route(kind byte, body []byte, r *reader) error {
	switch kind {
	case frameRefuse:
		if len(body) != 1 {
			return ErrBadFrame
		}
		return refusal(body[0])
	case frameAccept:
		id, ta, tk, err := decodeAccept(body)
		if err != nil {
			return err
		}
		select {
		case c.acceptCh <- acceptInfo{id: id, tempAddr: ta, tempKey: tk}:
			// The Connect's demand goes back now, not when it wakes: the
			// socket's goroutine then parks at once, and the connection's
			// first issue can read for itself.
			c.demand.Add(-1)
			return nil
		default:
			return errors.New("transport: unsolicited accept frame")
		}
	case frameResponse:
		if err := wire.DecodeResponseAlias(&c.resp, body); err != nil {
			return err
		}
		c.mu.Lock()
		cn := c.conns[c.resp.Conn]
		c.mu.Unlock()
		if cn == nil {
			return fmt.Errorf("transport: response for unknown connection %d", c.resp.Conn)
		}
		cn.complete(&c.resp, r)
		return nil
	}
	return fmt.Errorf("transport: unexpected frame 0x%02x", kind)
}

// complete hands a response to its entry on the token holder's goroutine,
// recycles it and refills the window. The holder's own sync issue keeps
// its payloads in the read buffer; any other waiter's are copied out
// before it is told.
func (cn *Conn) complete(resp *wire.Response, r *reader) {
	cn.mu.Lock()
	e := cn.win.Take(resp.Seq)
	if e == nil {
		cn.mu.Unlock()
		return // stream transports never duplicate; tolerate anyway
	}
	fan, async, own := e.X.fan, e.X.async, e == r.entry
	switch {
	case own:
		e.X.store(resp.Results, false)
		r.done = true
	case !async:
		e.X.store(resp.Results, true)
	}
	if fan == nil {
		cn.win.Recycle(e) // a fan-out's owner recycles its entries
	}
	cn.win.Drain()
	cn.mu.Unlock()
	switch {
	case fan != nil:
		fan.push(cn, e, nil)
	case async:
		cn.c.need(-1)
	case !own:
		cn.stopWaiting()
		cn.wake <- nil
	}
}
