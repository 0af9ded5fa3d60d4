// Package rdma is the NIC transport: it carries verb requests from client
// queue pairs to server NICs over the fabric, executes them (via the prism
// executor), and charges the four deployment options the paper evaluates
// (§4.3) what package model prices, queueing on core pools and a QP-context
// cache where a deployment has them. It also provides the reliability
// layer real RDMA NICs implement over lossy Ethernet: per-connection
// sequence numbers, retransmission, and duplicate suppression with
// response replay.
package rdma

import (
	"fmt"
	"time"

	"prism/internal/fabric"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

// ConnTempSize is the per-connection temporary buffer used as the redirect
// target in chains; the shared Host core provisions it.
const ConnTempSize = transport.ConnTempSize

// defaultRecvCredits is the receive-queue depth posted at startup —
// deep enough that well-behaved applications never see RNR.
const defaultRecvCredits = 4096

// The simulated server is one of the transports applications provision
// on; the others are the live socket servers (transport.Server).
var _ transport.Host = (*Server)(nil)

// Server is one machine's NIC endpoint plus the server-side state of the
// deployments: memory, free lists, dedicated PRISM cores, and RPC cores.
type Server struct {
	// HostCore is the provisioning half (transport.Host), shared with the
	// live socket server: space, free lists, quiescer, RPC hook,
	// connection temp buffers.
	transport.HostCore

	e      *sim.Engine
	net    *fabric.Network
	p      model.Params
	node   *fabric.Node
	deploy model.Deployment

	exec *prism.Executor // over the core's space and free lists

	prismCores *sim.MultiResource // SoftwarePRISM dedicated cores
	rpcCores   *sim.MultiResource // application cores serving RPCs

	// NIC connection-state model (nil when Params disable it): qp tracks
	// which connections' contexts are resident, qpFetch is the single
	// context-fetch engine cold fetches serialize through (its queueing is
	// what turns cache thrash into a throughput ceiling), qpMiss the
	// calibrated per-fetch cost.
	qp      *qpCache
	qpFetch *sim.Resource
	qpMiss  time.Duration

	// recvCredits models the SEND/RECEIVE receive queue: each two-sided
	// request consumes a posted receive buffer for its lifetime; when none
	// are available the NIC answers Receiver-Not-Ready, RDMA's standard
	// flow control (§4.2 mentions the same mechanism for chain buffering).
	recvCredits int

	conns []*serverConn // by id: connect numbers them from 0

	baseProc time.Duration // p.BaseProc()

	// RespReused counts responses recycled from the replay ring rather
	// than allocated (transport-arena effectiveness, also under loss).
	RespReused int64
}

type serverConn struct {
	id     uint64
	client *fabric.Node
	chain  prism.Conn // what Executor.Step reads and advances (§3.4)
	// tempOnNIC records whether this connection's temp buffer fits the
	// on-NIC memory region (false beyond model.OnNICMemoryBytes of temps).
	tempOnNIC bool
	// Reliability layer: replay ring answers duplicates whose response is
	// still cached; the served ring remembers which sequence numbers have
	// begun execution so a stale duplicate (response already delivered and
	// evicted) is dropped rather than re-executed — re-executing a chain
	// could clobber the connection temp buffer under a live chain.
	replaySeq  [replayDepth]uint64
	replayResp [replayDepth]*wire.Response
	servedSeq  [servedDepth]uint64
	// RC queue pairs execute work requests in order, one at a time:
	// requests arriving while one is being served queue behind it. This
	// is what makes chain's "previous op from this connection" (§3.4)
	// well defined across requests.
	busy    bool
	backlog []*wire.Request
	// payload is the per-slot response-payload arena (lossless networks
	// only): READ results for the request in replay slot i are carved out
	// of payload[i], and the whole slot is reset when the ring retires it.
	// curSlot is the slot of the request currently executing (requests on
	// one connection are serialized, so a single slot suffices), and
	// readAlloc is the carve hook built once per connection so the hot
	// path does not allocate a closure per request.
	payload   [replayDepth][]byte
	curSlot   int
	readAlloc func(n uint64) []byte

	// Chain-execution state for the request currently being served. RC
	// queue pairs serve one request at a time (busy serializes them), so a
	// single set per connection suffices; stepFn/finishFn are built once at
	// connect so the verb hot path schedules no per-request closures.
	chainReq  *wire.Request
	chainResp *wire.Response
	chainIdx  int
	chainTok  uint64
	stepFn    func()
	finishFn  func()
	// opMeta is per-connection scratch for ExecInto's out-parameter: the
	// indirect dispatch defeats escape analysis, so a chainStep local
	// would be a heap allocation per op.
	opMeta model.OpMeta

	// qpDebt is cold-connection fetch time accrued at arrival (context
	// fetch plus queueing on the shared fetch engine), consumed by the
	// next request start on this connection. Charging it there — rather
	// than via a separate scheduled hop — keeps per-connection FIFO
	// intact: busy is set synchronously at arrival.
	qpDebt time.Duration
	// The QP cache's LRU list runs through the connections: qpResident
	// says whether this one is on it, qpPrev/qpNext link it there.
	qpPrev, qpNext *serverConn
	qpResident     bool
}

// replayDepth bounds both the response cache and the client send window;
// servedDepth only needs to exceed it by the longest plausible duplicate
// delay, measured in requests.
const (
	replayDepth = 8
	servedDepth = 64
)

// NewServer attaches a server NIC with the given deployment model to the
// network.
func NewServer(net *fabric.Network, name string, deploy model.Deployment) *Server {
	return newServer(net, name, deploy, memory.NewSpace())
}

// newServer is the shared constructor: fresh builds get an empty space,
// template instantiations a fork of the captured one.
func newServer(net *fabric.Network, name string, deploy model.Deployment, space *memory.Space) *Server {
	p := net.Params()
	node := net.NewNode(name)
	e := net.Engine()
	s := &Server{
		HostCore: transport.NewHostCore(space),
		e:        e,
		net:      net,
		p:        p,
		node:     node,
		deploy:   deploy,
	}
	s.exec = &prism.Executor{Space: space, FreeLists: s.FreeLists()}
	if deploy == model.SoftwarePRISM {
		s.prismCores = sim.NewMultiResource(e, p.SoftCores)
	}
	s.rpcCores = sim.NewMultiResource(e, p.RPCCores)
	s.recvCredits = defaultRecvCredits
	if entries, miss := p.QPCacheFor(deploy); entries > 0 {
		s.qp = newQPCache(entries, e.Counters())
		s.qpMiss = miss
		s.qpFetch = sim.NewResource(e)
	}
	s.baseProc = p.BaseProc()
	s.node.SetHandler(s.onMessage)
	return s
}

// acquireResp returns a response object for seq with nops zeroed results.
// It reuses the retired occupant of seq's replay slot: the client's send
// window guarantees seq is only on the wire after seq-replayDepth was
// acknowledged, so the old response (and every view into its payload
// arena handed to that request's issuer) is at least replayDepth requests
// stale by the time it is overwritten.
//
// On a lossy network a *replayed duplicate* of the old response can still
// be in flight when the object is repopulated; bumping Epoch on reuse
// lets the client discard such a datagram (its fabric Tag snapshots the
// epoch at send time), so recycling stays safe under retransmission.
func (s *Server) acquireResp(sc *serverConn, seq uint64, nops int) *wire.Response {
	slot := seq % replayDepth
	resp := sc.replayResp[slot]
	if resp == nil {
		return &wire.Response{Seq: seq, Results: make([]wire.Result, nops)}
	}
	sc.replayResp[slot] = nil
	sc.replaySeq[slot] = ^uint64(0)
	sc.payload[slot] = sc.payload[slot][:0]
	results := resp.Results[:0]
	if cap(results) < nops {
		results = make([]wire.Result, nops)
	} else {
		results = results[:nops]
		for i := range results {
			results[i] = wire.Result{}
		}
	}
	resp.Seq = seq
	resp.Epoch++ // invalidate in-flight duplicates of the old incarnation
	resp.Results = results
	s.RespReused++
	return resp
}

// Node returns the server's fabric node (for byte counters in tests).
func (s *Server) Node() *fabric.Node { return s.node }

// StageWrites stores writes[0] now and schedules writes[i] i×gap later, in
// order. A scheduled write that fails panics: no caller is left to tell.
func (s *Server) StageWrites(key memory.RKey, gap time.Duration, writes []transport.StagedWrite) error {
	if err := s.Space().Write(key, writes[0].Addr, writes[0].Data); err != nil {
		return err
	}
	for i, w := range writes[1:] {
		s.e.Schedule(time.Duration(i+1)*gap, func() {
			if err := s.Space().Write(key, w.Addr, w.Data); err != nil {
				panic(err)
			}
		})
	}
	return nil
}

// connect registers a new queue pair from the given client node.
func (s *Server) connect(client *fabric.Node) (id uint64, temp memory.Addr, tempKey memory.RKey) {
	id, temp = uint64(len(s.conns)), s.AllocConnTemp()
	sc := &serverConn{id: id, client: client}
	sc.tempOnNIC = id < model.OnNICMemoryBytes/ConnTempSize
	sc.readAlloc = func(n uint64) []byte { return transport.CarveArena(&sc.payload[sc.curSlot], n) }
	sc.stepFn = func() { s.chainStep(sc) }
	sc.finishFn = func() { s.finishChain(sc) }
	for i := range sc.replaySeq {
		sc.replaySeq[i] = ^uint64(0)
	}
	for i := range sc.servedSeq {
		sc.servedSeq[i] = ^uint64(0)
	}
	s.conns = append(s.conns, sc)
	if s.qp != nil {
		// Connection establishment loads the context, exactly as the
		// paper's clients pre-connect: while the active set fits the
		// cache, the model charges nothing and figures are bit-unchanged.
		s.qp.warm(sc)
	}
	return id, temp, s.TempKey()
}

// qpTouch is one access to conn sc's context, by an arriving request or
// by the send WQE of its response (under heavy interleaving the context
// may have been evicted since the request arrived). It returns the fetch
// cost of a miss: service plus queueing on the shared fetch engine.
func (s *Server) qpTouch(sc *serverConn) time.Duration {
	if s.qp == nil || s.qp.touch(sc) {
		return 0
	}
	done := s.qpFetch.Submit(s.qpMiss, nil)
	return done.Sub(s.e.Now())
}

// takeQPDebt consumes the connection's accrued cold-fetch debt.
func (s *Server) takeQPDebt(sc *serverConn) time.Duration {
	d := sc.qpDebt
	sc.qpDebt = 0
	return d
}

// onMessage handles an arriving request.
func (s *Server) onMessage(m fabric.Message) {
	req, ok := m.Payload.(*wire.Request)
	if !ok {
		panic(fmt.Sprintf("rdma: server %s received %T", s.node.Name(), m.Payload))
	}
	if req.Epoch != m.Tag {
		// The pooled request object was recycled and repopulated while this
		// (duplicate) datagram was in flight; its contents describe a newer
		// request. Drop it — the incarnation it belonged to was already
		// acknowledged, or the client would not have recycled it.
		return
	}
	if req.Conn >= uint64(len(s.conns)) {
		panic(fmt.Sprintf("rdma: request on unknown connection %d", req.Conn))
	}
	sc := s.conns[req.Conn]
	// Duplicate (retransmitted) request: replay the cached response, or —
	// if it has already been served and evicted from the cache (meaning
	// the client has long since seen the response and moved its window) —
	// drop it rather than re-execute. Request seq's response is cached in
	// replay slot seq mod replayDepth.
	if slot := req.Seq % replayDepth; sc.replaySeq[slot] == req.Seq {
		s.respond(sc, sc.replayResp[slot])
		return
	}
	served := &sc.servedSeq[req.Seq%servedDepth]
	if *served == req.Seq {
		return
	}
	*served = req.Seq
	sc.qpDebt += s.qpTouch(sc) // charged at the next request start
	if sc.busy {
		sc.backlog = append(sc.backlog, req)
		return
	}
	s.startRequest(sc, req)
}

// startRequest begins executing one request on the connection.
func (s *Server) startRequest(sc *serverConn, req *wire.Request) {
	sc.busy = true
	if len(req.Ops) == 1 && req.Ops[0].Code == wire.OpSend {
		s.serveRPC(sc, req)
		return
	}
	s.serveVerbs(sc, req)
}

// serveVerbs runs a (possibly chained) one-sided request. The chain state
// lives on the connection and advances via the prebuilt stepFn/finishFn,
// so the steady-state verb path allocates nothing.
func (s *Server) serveVerbs(sc *serverConn, req *wire.Request) {
	s.e.Counters().RequestsServed++
	if !model.Executes(s.deploy, req.Ops) {
		resp := s.acquireResp(sc, req.Seq, len(req.Ops))
		for i := range resp.Results {
			resp.Results[i] = wire.Result{Status: wire.StatusUnsupported}
		}
		sc.chainReq, sc.chainResp = req, resp
		s.e.Schedule(s.baseProc+s.takeQPDebt(sc), sc.finishFn)
		return
	}

	opTok := s.Quiescer().OpStart()
	resp := s.acquireResp(sc, req.Seq, len(req.Ops))
	sc.curSlot = int(req.Seq % replayDepth)

	// The deployment's fixed request cost, plus any queueing for a core.
	overhead, cpu := s.p.RequestCost(s.deploy, len(req.Ops))
	if cpu > 0 {
		overhead += s.prismCores.Submit(cpu, nil).Sub(s.e.Now()) - cpu
	}

	sc.chainReq, sc.chainResp, sc.chainIdx, sc.chainTok = req, resp, 0, opTok
	s.e.Schedule(s.baseProc/2+overhead+s.takeQPDebt(sc), sc.stepFn)
}

// chainStep steps the next op of the connection's current chain through
// Executor.Step. Skipped ops fall through to the next op at the same
// instant (the loop).
func (s *Server) chainStep(sc *serverConn) {
	req, resp := sc.chainReq, sc.chainResp
	results := resp.Results
	for {
		i := sc.chainIdx
		if i == len(req.Ops) {
			s.Quiescer().OpEnd(sc.chainTok)
			s.e.Schedule(s.baseProc-s.baseProc/2+s.qpTouch(sc), sc.finishFn)
			return
		}
		// READ payloads ride the response until the slot retires; carve
		// them from the slot's arena instead of the heap.
		s.exec.ReadAlloc, s.exec.Observer = sc.readAlloc, s.Observer()
		executed := s.exec.Step(&sc.chain, req, i, &results[i], &sc.opMeta)
		sc.chainIdx = i + 1
		if !executed {
			continue
		}
		st := s.e.Counters()
		st.OpsExecuted++
		delay := s.p.OpExtra(s.deploy, req.Ops[i].Code, sc.opMeta, sc.tempOnNIC)
		if sc.opMeta.Steps > 0 {
			st.ProgOps++
			st.ProgSteps += int64(sc.opMeta.Steps)
			// A program's further iterations occupy a stack core too, and
			// any queueing they cause delays the chain.
			if cpu := s.p.ProgramCPU(s.deploy, sc.opMeta.Steps); cpu > 0 {
				delay += s.prismCores.Submit(cpu, nil).Sub(s.e.Now()) - cpu
			}
		}
		if i+1 < len(req.Ops) {
			delay += model.InterOp
		}
		s.e.Schedule(delay, sc.stepFn)
		return
	}
}

// finishChain hands the finished chain's response to finish and clears
// the per-connection chain state.
func (s *Server) finishChain(sc *serverConn) {
	resp := sc.chainResp
	sc.chainReq, sc.chainResp = nil, nil
	s.finish(sc, resp)
}

// serveRPC dispatches a two-sided request to the application handler.
func (s *Server) serveRPC(sc *serverConn, req *wire.Request) {
	s.e.Counters().RequestsServed++
	payload := req.Ops[0].Data
	handler := s.RPCFor(payload)
	if handler == nil {
		resp := s.acquireResp(sc, req.Seq, 1)
		resp.Results[0] = wire.Result{Status: wire.StatusUnsupported}
		s.e.Schedule(s.baseProc+s.takeQPDebt(sc), func() { s.finish(sc, resp) })
		return
	}
	if s.recvCredits <= 0 {
		// No posted receive buffer: Receiver Not Ready.
		resp := s.acquireResp(sc, req.Seq, 1)
		resp.Results[0] = wire.Result{Status: wire.StatusRNR}
		s.e.Schedule(s.baseProc+s.takeQPDebt(sc), func() { s.finish(sc, resp) })
		return
	}
	s.recvCredits--
	// Reserve an application core; the handler's memory effects apply when
	// the core picks the request up.
	start := s.rpcCores.Submit(s.p.RPCHandlerCPUTime, nil)
	dispatchWait := start.Sub(s.e.Now()) - s.p.RPCHandlerCPUTime
	s.e.Schedule(dispatchWait+s.takeQPDebt(sc), func() {
		reply, extraCPU := handler(payload)
		if extraCPU > 0 {
			s.rpcCores.Submit(extraCPU, nil)
		}
		total := s.p.RPCLatency() + extraCPU + s.qpTouch(sc)
		resp := s.acquireResp(sc, req.Seq, 1)
		resp.Results[0] = wire.Result{Status: wire.StatusOK, Data: reply}
		s.e.Schedule(total, func() {
			s.recvCredits++ // the app reposts the consumed receive buffer
			s.finish(sc, resp)
		})
	})
}

// finish caches the response for replay, transmits it, and starts the
// next queued request on the connection.
func (s *Server) finish(sc *serverConn, resp *wire.Response) {
	resp.Conn = sc.id
	slot := int(resp.Seq % replayDepth)
	sc.replaySeq[slot] = resp.Seq
	sc.replayResp[slot] = resp
	s.respond(sc, resp)
	sc.busy = false
	if len(sc.backlog) > 0 {
		next := sc.backlog[0]
		sc.backlog[0] = nil // release the popped request for GC
		sc.backlog = sc.backlog[1:]
		if len(sc.backlog) == 0 {
			sc.backlog = nil // let the drained array go too
		}
		s.startRequest(sc, next)
	}
}

func (s *Server) respond(sc *serverConn, resp *wire.Response) {
	s.net.Send(fabric.Message{
		From:    s.node,
		To:      sc.client,
		Size:    wire.ResponseWireSize(resp),
		Payload: resp,
		Tag:     resp.Epoch, // snapshot: receiver drops if the object was recycled
	})
}
