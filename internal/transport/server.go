package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/wire"
)

// Host is the server-side provisioning surface every transport's server
// implements: registered memory, free lists for ALLOCATE, the shared
// rkey for per-connection temp buffers, the two-sided RPC hook, the
// store's published Meta (the control plane, meta.go), and quiescent
// buffer reclamation (§3.2). Applications (PRISM-KV and friends)
// provision against this interface, so one store runs on the simulated
// NIC (rdma.Server) or a live socket server (Server here) unchanged.
//
// A store is provisioned and loaded before its host serves: its
// constructor and its Load (bulk loading) touch the space without the
// space guard, and nothing may serve the host until they return.
type Host interface {
	Space() *memory.Space
	AddFreeList(fl *alloc.FreeList)
	FreeList(id uint32) *alloc.FreeList
	SetConnTempKey(key memory.RKey)
	SetRPCHandler(h RPCHandler)
	PublishMeta(app string, meta any)
	RecycleBuffers(freeList uint32, addrs []memory.Addr)
	Quiesce(fn func())
	// StageWrites is the host CPU storing one or more writes under key in
	// order, not atomically: a remote READ may land between two of them,
	// gap apart on the simulated NIC. Their data must stay untouched until
	// all have landed.
	StageWrites(key memory.RKey, gap time.Duration, writes []StagedWrite) error
}

// StagedWrite is one store of a StageWrites sequence.
type StagedWrite struct {
	Addr memory.Addr
	Data []byte
}

// StageWrites stores each write under a guard acquisition of its own, so
// a READ on another socket can land between two; it returns once all have
// landed, or at the first that fails. gap is the simulator's.
func (s *Server) StageWrites(key memory.RKey, _ time.Duration, writes []StagedWrite) error {
	for _, w := range writes {
		s.Space().Guard().Lock()
		err := s.Space().Write(key, w.Addr, w.Data)
		s.Space().Guard().Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// ServerBatch is the per-wakeup frame budget: how many already-buffered
// frames one socket wakeup may serve — under one space-guard acquisition,
// into one response flush — before the guard is released and the staged
// responses hit the wire. It bounds both guard hold time (fairness across
// sockets) and response latency within a burst.
const ServerBatch = 64

// MaxSockets caps the sockets a server serves at once. A socket past the
// cap is refused as soon as it is accepted, so what idle and stalled peers
// can pin is bounded by the operator, not by the peers.
const MaxSockets = 1024

// MaxConns caps the logical connections open on a server at once, across
// its sockets. Each holds a ConnTempSize temp buffer of registered memory,
// so the cap bounds the temps at 4 MiB; a CONNECT past it refuses its
// socket, and a closing socket returns its connections' temps for reuse.
const MaxConns = 16384

var (
	// ErrServerClosed is returned by Serve after Shutdown begins draining,
	// and by Connect on a socket the draining server refused.
	ErrServerClosed = errors.New("transport: server closed")
	// ErrTooManySockets is returned by ServeConn, and by Connect, when
	// MaxSockets sockets are already being served.
	ErrTooManySockets = errors.New("transport: too many sockets")
	// ErrBadHello is returned by Connect when the server refused the
	// socket's hello: another protocol, or another version of this one.
	ErrBadHello = errors.New("transport: protocol hello refused")
)

// A refusal is why a server refuses a socket: the one byte of the frame
// it sends before closing it. As an error it is what Connect reports,
// and it matches the sentinel its reason has.
type refusal byte

const (
	refuseSockets  refusal = 1 + iota // MaxSockets sockets are being served
	refuseDraining                    // the server is draining
	refuseHello                       // no CONNECT carrying helloMagic first, or a later CONNECT carrying a payload
	refuseConns                       // MaxConns connections are open on the server
)

func (r refusal) Error() string {
	if r == refuseConns {
		return fmt.Sprintf("transport: more than %d connections", MaxConns)
	}
	if err := r.Unwrap(); err != nil {
		return err.Error()
	}
	return fmt.Sprintf("transport: socket refused (reason %d)", byte(r))
}

func (r refusal) Unwrap() error {
	switch r {
	case refuseSockets:
		return ErrTooManySockets
	case refuseDraining:
		return ErrServerClosed
	case refuseHello:
		return ErrBadHello
	}
	return nil
}

// refuseTimeout bounds refusing a socket: writing the reason, then
// waiting for the peer to close.
const refuseTimeout = time.Second

// refuse sends the peer why its socket is refused, behind any frames
// staged on fw, and closes the socket. Until the peer closes or
// refuseTimeout passes it reads and drops what the peer sends, so the
// peer reads the reason before a write of its own fails: closing at once
// fails a write pending on a net.Pipe, and resets a TCP socket that holds
// unread bytes.
func refuse(nc net.Conn, fw *FrameWriter, r refusal) {
	nc.SetDeadline(time.Now().Add(refuseTimeout))
	if fw.Send(frameRefuse, []byte{byte(r)}) == nil {
		for buf := make([]byte, 512); ; {
			if _, err := nc.Read(buf); err != nil {
				break
			}
		}
	}
	nc.Close()
}

// Server is a live PRISM NIC endpoint over stream sockets (tcp or
// unix). Each accepted socket gets its own goroutine, framer, executor,
// and scratch; logical connections (queue pairs) multiplex over sockets
// RDMAvisor-style, so thousands of clients share a few file
// descriptors. Shared state — the memory space, free lists, the
// quiescer, and the connection-temp region — is serialized on the
// space's guard. The guard is held per wakeup batch rather than per
// primitive: a socket wakeup drains every request frame already
// buffered (up to ServerBatch), executes them under one guard acquisition,
// and coalesces every response into one write — the server half of
// doorbell batching. Each primitive still executes atomically under the
// guard, and ops from different sockets interleave at batch
// granularity, which the §3.3/§3.5 contract permits: it specifies
// per-primitive atomicity, not an interleaving schedule.
type Server struct {
	// HostCore is the provisioning half (Host): space, free lists,
	// quiescer, RPC hook, connection temp buffers.
	HostCore

	// batch is ServerBatch; a field only so the batching tests can lower
	// it to 1, the serve-and-flush-per-frame reference (export_test.go).
	batch int

	// rpcMu serializes RPC handler invocations: handlers keep per-server
	// scratch (reply buffers, decode state) sized for the simulator's
	// one-engine-per-cluster execution. Lock order: rpcMu before the
	// space guard (handlers call RecycleBuffers, which takes the guard) —
	// which is why a wakeup batch releases its amortized guard before
	// dispatching an RPC frame.
	rpcMu sync.Mutex

	// mu guards the accept-side bookkeeping: listeners, sockets, the
	// logical-connection id counter and open count, the connection temps
	// (AllocConnTemp, ReturnConnTemps), and draining.
	mu        sync.Mutex
	nextConn  uint64
	openConns int
	listeners []net.Listener
	socks     map[*srvSock]struct{}
	draining  bool
	wg        sync.WaitGroup

	// reads is the read budget every socket's FrameReader takes its
	// buffer bytes above readStart from.
	reads budget

	// Stats (atomic: bumped by every socket goroutine).
	RequestsServed atomic.Int64
	OpsExecuted    atomic.Int64
	ConnsAccepted  atomic.Int64

	// Verb-program telemetry (DESIGN.md §14): CHASE/SCAN ops executed and the loop
	// iterations they ran. ProgSteps-ProgOps is the round trips the
	// programs collapsed versus issuing one verb per step.
	ProgOps   atomic.Int64
	ProgSteps atomic.Int64

	// Syscall telemetry, aggregated from each socket as it closes:
	// write syscalls and the frames/bytes they carried, read syscalls
	// and bytes, and wakeup batches with the frames they drained
	// (BatchFrames/Batches = mean batch_len).
	Writes      atomic.Int64
	FramesOut   atomic.Int64
	BytesOut    atomic.Int64
	Reads       atomic.Int64
	BytesIn     atomic.Int64
	Batches     atomic.Int64
	BatchFrames atomic.Int64
}

// NewServer returns a live server over a fresh memory space, ready for
// application provisioning (Host) and then Serve.
func NewServer() *Server {
	return &Server{
		HostCore: NewHostCore(memory.NewSpace()),
		socks:    make(map[*srvSock]struct{}),
		batch:    ServerBatch,
	}
}

// addSock builds and registers the per-socket state, or says why the
// socket is refused: a drain has begun, or MaxSockets are being served.
func (s *Server) addSock(nc net.Conn) (*srvSock, refusal) {
	sk := &srvSock{s: s, nc: nc, fr: NewFrameReader(nc), fw: NewFrameWriter(nc)}
	sk.fr.budget, sk.fr.setDeadline = &s.reads, nc.SetReadDeadline
	sk.exec = &prism.Executor{Space: s.Space(), FreeLists: s.FreeLists(), ReadAlloc: sk.fw.carve, Observer: s.observer}
	sk.conns = make(map[uint64]*prism.Conn)
	sk.guard = s.Space().Guard()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, refuseDraining
	}
	if len(s.socks) >= MaxSockets {
		s.mu.Unlock()
		return nil, refuseSockets
	}
	s.socks[sk] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	return sk, 0
}

// Serve accepts connections on l until Shutdown. It always closes l
// before returning, and returns ErrServerClosed after a drain.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			l.Close()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		sk, r := s.addSock(nc)
		if r != 0 {
			// Refused on its own goroutine: the peer may take up to
			// refuseTimeout to read the reason and close.
			go refuse(nc, NewFrameWriter(nc), r)
			if r == refuseDraining {
				l.Close()
				return ErrServerClosed
			}
			continue
		}
		go sk.loop()
	}
}

// ServeConn serves one pre-established connection (a net.Pipe end in
// tests, or an in-process wiring) with the same lifecycle as an
// accepted socket: it registers for Shutdown and blocks until the
// socket loop exits. A refused socket returns ErrServerClosed if the
// server is draining, or ErrTooManySockets.
func (s *Server) ServeConn(nc net.Conn) error {
	sk, r := s.addSock(nc)
	if r != 0 {
		refuse(nc, NewFrameWriter(nc), r)
		return r
	}
	sk.loop()
	return nil
}

// Shutdown drains the server: listeners close immediately, sockets
// finish the wakeup batch they are serving (responses flush), idle
// sockets close as soon as their blocked read is interrupted, and a
// client caught mid-frame loses the connection. If the drain has not
// finished after grace, remaining sockets are force-closed. Safe to
// call more than once.
func (s *Server) Shutdown(grace time.Duration) {
	s.reads.close() // wake reads waiting for buffer bytes; no frame deadline moves after this
	s.mu.Lock()
	s.draining = true
	ls := s.listeners
	s.listeners = nil
	for sk := range s.socks {
		// Interrupt blocked reads; the loop exits after finishing the
		// frames in hand.
		sk.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		s.mu.Lock()
		for sk := range s.socks {
			sk.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

// srvSock is one accepted socket: framers, a private executor over the
// shared space that reads into the staged response frame, decode
// scratch, and the logical connections opened on it: each one's chain
// state by id, and their temp buffers, which go back to the server when
// the socket closes. All fields are owned by the socket's goroutine;
// shared state is reached only under the space guard (primitives, free
// lists, quiescer) or s.mu (registry).
type srvSock struct {
	s     *Server
	nc    net.Conn
	fr    *FrameReader
	fw    *FrameWriter
	exec  *prism.Executor
	conns map[uint64]*prism.Conn
	temps []memory.Addr

	// Wakeup-batch guard amortization: the space guard is acquired at
	// the first verb of a batch and released before any RPC dispatch
	// (lock order) and before the batch's response flush (never hold a
	// lock across a syscall). tok is the quiescer token bracketing the
	// held span.
	guard   *sync.Mutex
	inVerbs bool
	tok     uint64

	req wire.Request // alias-decodes into fr's buffer
	// res and opMeta are Step's out-params, kept here because handing
	// them to the observer would move locals to the heap.
	res     wire.Result
	opMeta  model.OpMeta
	greeted bool

	batches, batchFrames int64 // wakeup telemetry, owner goroutine only
}

// beginVerbs acquires the amortized batch guard if not already held.
func (sk *srvSock) beginVerbs() {
	if sk.inVerbs {
		return
	}
	sk.guard.Lock()
	sk.tok = sk.s.Quiescer().OpStart()
	sk.inVerbs = true
}

// endVerbs releases the amortized batch guard if held.
func (sk *srvSock) endVerbs() {
	if !sk.inVerbs {
		return
	}
	sk.s.Quiescer().OpEnd(sk.tok)
	sk.guard.Unlock()
	sk.inVerbs = false
}

func (sk *srvSock) loop() {
	defer func() {
		sk.endVerbs()
		sk.nc.Close()
		sk.fr.reserve(0) // give the read budget back
		s := sk.s
		s.Writes.Add(sk.fw.Writes)
		s.FramesOut.Add(sk.fw.FramesOut)
		s.BytesOut.Add(sk.fw.BytesFlushed)
		s.Reads.Add(sk.fr.Reads.Load())
		s.BytesIn.Add(sk.fr.BytesRead.Load())
		s.Batches.Add(sk.batches)
		s.BatchFrames.Add(sk.batchFrames)
		s.mu.Lock()
		delete(s.socks, sk)
		s.openConns -= len(sk.temps)
		s.ReturnConnTemps(sk.temps)
		s.mu.Unlock()
		s.wg.Done()
	}()
	for {
		kind, body, err := sk.fr.Next()
		if err != nil {
			return // EOF, peer reset, or a drain-interrupted read
		}
		// Wakeup batch: serve this frame and every further frame already
		// decodable from the read buffer — no extra syscalls — staging
		// the responses, then flush them all in one write. The space
		// guard is acquired once for the batch's verb frames (beginVerbs
		// inside serveRequest) and released before the flush.
		n := 0
		var bad error
		for {
			switch {
			case kind == frameConnect:
				bad = sk.handleConnect(body)
			case !sk.greeted: // the first frame must be the hello's CONNECT
				bad = refuseHello
			case kind == frameRequest:
				bad = sk.serveRequest(body)
			default:
				bad = fmt.Errorf("transport: unexpected frame 0x%02x", kind)
			}
			if bad != nil {
				break
			}
			n++
			if n >= sk.s.batch || !sk.fr.Buffered() {
				break
			}
			if kind, body, err = sk.fr.Next(); err != nil {
				break
			}
		}
		sk.endVerbs()
		sk.batches++
		sk.batchFrames += int64(n)
		if r, ok := bad.(refusal); ok {
			refuse(sk.nc, sk.fw, r) // the batch's responses go first
			return
		}
		if sk.fw.Flush() != nil || bad != nil || err != nil {
			return
		}
	}
}

// handleConnect opens a logical connection and stages the accept frame
// carrying its id and temp-buffer coordinates. It refuses the socket if
// the CONNECT's payload is wrong — the socket's first must carry
// helloMagic and any later one nothing; a CONNECT can sit anywhere in a
// wakeup batch — or once MaxConns connections are open on the server.
// The wakeup batch's amortized space guard is released first (as
// serveRPC does): a connect frame can coalesce into the same wakeup batch
// as request frames, and AllocConnTemp takes the guard when the temp
// region fills — holding it here would self-deadlock on the
// non-reentrant guard, and the guard→s.mu order would invert
// AllocConnTemp's s.mu→guard order.
func (sk *srvSock) handleConnect(hello []byte) error {
	if sk.greeted && len(hello) > 0 || !sk.greeted && string(hello) != string(helloMagic) {
		return refuseHello
	}
	sk.greeted = true
	sk.endVerbs()
	s := sk.s
	s.mu.Lock()
	if s.openConns >= MaxConns {
		s.mu.Unlock()
		return refuseConns
	}
	s.openConns++
	id := s.nextConn
	s.nextConn++
	temp := s.AllocConnTemp()
	key := s.TempKey()
	s.mu.Unlock()
	sk.conns[id] = new(prism.Conn)
	sk.temps = append(sk.temps, temp)
	s.ConnsAccepted.Add(1)
	var scratch [acceptLen]byte
	return sk.fw.Stage(frameAccept, appendAccept(scratch[:0], id, temp, key))
}

// serveRequest decodes and executes one request frame, staging its
// response in place: each op's payload is written once, by the executor,
// into the frame the wakeup loop flushes.
func (sk *srvSock) serveRequest(body []byte) error {
	s := sk.s
	if err := wire.DecodeRequestAlias(&sk.req, body); err != nil {
		return err
	}
	c, ok := sk.conns[sk.req.Conn]
	if !ok {
		return fmt.Errorf("transport: request on unknown connection %d", sk.req.Conn)
	}
	s.RequestsServed.Add(1)

	req := &sk.req
	start := sk.fw.beginResponse(req.Conn, req.Seq, req.Epoch, len(req.Ops))
	if len(req.Ops) == 1 && req.Ops[0].Code == wire.OpSend {
		sk.serveRPC(req)
	} else {
		sk.serveVerbs(c, req)
	}
	return sk.fw.endFrame(start)
}

// serveVerbs steps a (possibly chained) one-sided request's ops on
// connection c under the wakeup batch's amortized guard acquisition, each
// into the result header and payload it stages. Each primitive is atomic
// under the guard (§3.3/§3.5); the batch merely coarsens how requests
// from different sockets interleave, which the contract leaves open.
func (sk *srvSock) serveVerbs(c *prism.Conn, req *wire.Request) {
	sk.beginVerbs()
	executed := 0
	progOps, progSteps := int64(0), int64(0)
	for i := range req.Ops {
		off := sk.fw.reserveResult()
		if sk.exec.Step(c, req, i, &sk.res, &sk.opMeta) {
			executed++
			if sk.opMeta.Steps > 0 {
				progOps++
				progSteps += int64(sk.opMeta.Steps)
			}
		}
		sk.fw.putResult(off, &sk.res)
	}
	sk.s.OpsExecuted.Add(int64(executed))
	if progOps > 0 {
		sk.s.ProgOps.Add(progOps)
		sk.s.ProgSteps.Add(progSteps)
	}
}

// serveRPC dispatches a two-sided request to the application handler.
// The batch guard is released first: handlers take rpcMu and may take
// the guard themselves (RecycleBuffers), and the lock order is rpcMu
// before guard. The reply is copied into the staged frame under rpcMu,
// because handlers reuse their reply scratch across calls.
func (sk *srvSock) serveRPC(req *wire.Request) {
	sk.endVerbs()
	s := sk.s
	off := sk.fw.reserveResult()
	handler := s.RPCFor(req.Ops[0].Data)
	if handler == nil {
		sk.fw.putResult(off, &wire.Result{Status: wire.StatusUnsupported})
		return
	}
	s.rpcMu.Lock()
	reply, _ := handler(req.Ops[0].Data)
	sk.fw.putResult(off, &wire.Result{Status: wire.StatusOK, Data: reply})
	s.rpcMu.Unlock()
}
