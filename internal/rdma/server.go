// Package rdma is the NIC transport: it carries verb requests from client
// queue pairs to server NICs over the fabric, executes them (via the prism
// executor), and models the latency/occupancy of the four deployment
// options the paper evaluates (§4.3). It also provides the reliability
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
// target in chains and TempSlotSize the stride applications carve it into;
// the shared Host core provisions them (transport.ConnTempSize).
const (
	ConnTempSize = transport.ConnTempSize
	TempSlotSize = transport.TempSlotSize
)

// OnNICMemoryBytes is the user-accessible on-NIC memory region of the
// projected hardware NIC (256 KB on the paper's ConnectX-5, §4.2).
// Connections beyond OnNICMemoryBytes/ConnTempSize get host-resident temp
// buffers, whose redirects cost an extra PCIe round trip — the
// connection-scaling concern §4.2 analyzes.
const OnNICMemoryBytes = 256 << 10

// defaultRecvCredits is the receive-queue depth posted at startup —
// deep enough that well-behaved applications never see RNR.
const defaultRecvCredits = 4096

// RPCHandler processes a two-sided request on the server CPU. It returns
// the reply payload and any extra CPU time the handler consumed beyond the
// base dispatch cost (charged to the RPC core pool). The type is shared
// with the live stream transports so one application handler provisions
// on either the simulated or the socket server.
type RPCHandler = transport.RPCHandler

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

	tracer Tracer

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

	conns    map[uint64]*serverConn
	nextConn uint64

	// baseProc is the fixed NIC+PCIe pipeline latency charged at the
	// server so that a small hardware verb on a direct link completes in
	// RDMABaseRTT (the paper's 2.5 µs baseline).
	baseProc time.Duration

	// Stats
	RequestsServed int64
	OpsExecuted    int64
	// RespReused counts responses recycled from the replay ring rather
	// than allocated (transport-arena effectiveness, also under loss).
	RespReused int64
	// ProgOps counts executed verb programs (CHASE/SCAN) and ProgSteps
	// their loop iterations; ProgSteps-ProgOps is the round trips the
	// programs saved over the per-hop client loop (DESIGN.md §14).
	ProgOps   int64
	ProgSteps int64
}

type serverConn struct {
	id       uint64
	client   *fabric.Node
	lastOK   bool
	tempAddr memory.Addr
	// tempOnNIC records whether this connection's temp buffer fits the
	// on-NIC memory region (false beyond OnNICMemoryBytes of temps).
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
	// is what makes the conditional flag's "previous operations from the
	// same client" semantics (§3.4) well defined across chains.
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
	opMeta prism.OpMeta

	// qpDebt is cold-connection fetch time accrued at arrival (context
	// fetch plus queueing on the shared fetch engine), consumed by the
	// next request start on this connection. Charging it there — rather
	// than via a separate scheduled hop — keeps per-connection FIFO
	// intact: busy is set synchronously at arrival.
	qpDebt time.Duration
}

// replayDepth bounds both the response cache and the client send window;
// servedDepth only needs to exceed it by the longest plausible duplicate
// delay, measured in requests.
const (
	replayDepth = 8
	servedDepth = 64
)

func (sc *serverConn) markServed(seq uint64) {
	sc.servedSeq[seq%servedDepth] = seq
}

func (sc *serverConn) wasServed(seq uint64) bool {
	return sc.servedSeq[seq%servedDepth] == seq
}

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
		conns:    make(map[uint64]*serverConn),
	}
	s.exec = &prism.Executor{Space: space, FreeLists: s.FreeLists()}
	if deploy == model.SoftwarePRISM {
		s.prismCores = sim.NewMultiResource(e, p.SoftCores)
	}
	s.rpcCores = sim.NewMultiResource(e, p.RPCCores)
	s.recvCredits = defaultRecvCredits
	if entries, miss := p.QPCacheFor(deploy); entries > 0 {
		s.qp = newQPCache(entries)
		s.qpMiss = miss
		s.qpFetch = sim.NewResource(e)
		e.OnStats(func(ws *sim.Stats) {
			ws.ConnCacheHits += s.qp.hits
			ws.ConnCacheMisses += s.qp.misses
			ws.ConnCacheEvictions += s.qp.evictions
		})
	}
	e.OnStats(func(ws *sim.Stats) {
		ws.ProgramOps += s.ProgOps
		ws.ProgramSteps += s.ProgSteps
	})
	// Serialization of a canonical small request+response is charged by
	// the fabric; subtract it so small-op direct-link RTT ≈ RDMABaseRTT.
	s.baseProc = p.RDMABaseRTT - 4*p.SerializationDelay(64)
	if s.baseProc < 0 {
		s.baseProc = 0
	}
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

// Deployment returns the server's data-path model.
func (s *Server) Deployment() model.Deployment { return s.deploy }

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
	id = s.nextConn
	s.nextConn++
	sc := &serverConn{id: id, client: client, lastOK: true, tempAddr: s.AllocConnTemp()}
	sc.tempOnNIC = id < OnNICMemoryBytes/ConnTempSize
	sc.readAlloc = func(n uint64) []byte { return transport.CarveArena(&sc.payload[sc.curSlot], n) }
	sc.stepFn = func() { s.chainStep(sc) }
	sc.finishFn = func() { s.finishChain(sc) }
	for i := range sc.replaySeq {
		sc.replaySeq[i] = ^uint64(0)
	}
	for i := range sc.servedSeq {
		sc.servedSeq[i] = ^uint64(0)
	}
	s.conns[id] = sc
	if s.qp != nil {
		// Connection establishment loads the context, exactly as the
		// paper's clients pre-connect: while the active set fits the
		// cache, the model charges nothing and figures are bit-unchanged.
		s.qp.warm(id)
	}
	return id, sc.tempAddr, s.TempKey()
}

// QPCacheCounters reports the connection-state cache's hit/miss/eviction
// counts (all zero when the model is disabled for this deployment).
func (s *Server) QPCacheCounters() (hits, misses, evictions int64) {
	if s.qp == nil {
		return 0, 0, 0
	}
	return s.qp.hits, s.qp.misses, s.qp.evictions
}

// qpArrival records the request-side context access for conn sc: on a
// miss the fetch cost — service plus queueing on the shared fetch engine
// — accrues to the connection's debt, charged at the next request start.
func (s *Server) qpArrival(sc *serverConn) {
	if s.qp == nil || s.qp.touch(sc.id) {
		return
	}
	done := s.qpFetch.Submit(s.qpMiss, nil)
	sc.qpDebt += done.Sub(s.e.Now())
}

// qpTx is the response-side context access: the send WQE needs the
// context resident again, and under heavy interleaving it may have been
// evicted since the request arrived.
func (s *Server) qpTx(sc *serverConn) time.Duration {
	if s.qp == nil || s.qp.touch(sc.id) {
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
	sc, ok := s.conns[req.Conn]
	if !ok {
		panic(fmt.Sprintf("rdma: request on unknown connection %d", req.Conn))
	}
	// Duplicate (retransmitted) request: replay the cached response, or —
	// if it has already been served and evicted from the cache (meaning
	// the client has long since seen the response and moved its window) —
	// drop it rather than re-execute.
	for i, seq := range sc.replaySeq {
		if seq == req.Seq {
			s.respond(sc, sc.replayResp[i])
			return
		}
	}
	if sc.wasServed(req.Seq) {
		return
	}
	sc.markServed(req.Seq)
	s.qpArrival(sc)
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

// supports reports whether the deployment can execute the request at all.
// Stock RDMA NICs take exactly one classic verb per request.
func (s *Server) supports(req *wire.Request) bool {
	if s.deploy != model.HardwareRDMA {
		return true
	}
	if len(req.Ops) != 1 {
		return false
	}
	op := &req.Ops[0]
	if op.Flags != 0 {
		return false
	}
	switch op.Code {
	case wire.OpRead, wire.OpWrite, wire.OpClassicCAS, wire.OpFetchAdd:
		return true
	case wire.OpCAS:
		// Only the classic 8-byte equality subset.
		full := func(m []byte) bool {
			for _, b := range m {
				if b != 0xFF {
					return false
				}
			}
			return true
		}
		return op.Mode == wire.CASEq && len(op.Data) == 8 &&
			(op.CompareMask == nil || (len(op.CompareMask) == 8 && full(op.CompareMask))) &&
			(op.SwapMask == nil || (len(op.SwapMask) == 8 && full(op.SwapMask)))
	default:
		return false
	}
}

// serveVerbs runs a (possibly chained) one-sided request. The chain state
// lives on the connection and advances via the prebuilt stepFn/finishFn,
// so the steady-state verb path allocates nothing.
func (s *Server) serveVerbs(sc *serverConn, req *wire.Request) {
	s.RequestsServed++
	if !s.supports(req) {
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

	// Fixed per-request costs and core-pool queueing by deployment.
	preDelay := s.baseProc / 2
	var requestOverhead time.Duration
	switch s.deploy {
	case model.SoftwarePRISM:
		cpu := s.p.SoftCPUBase + time.Duration(len(req.Ops))*s.p.SoftCPUPerOp
		done := s.prismCores.Submit(cpu, nil)
		queueWait := done.Sub(s.e.Now()) - cpu
		requestOverhead = s.p.SoftBaseOverhead + queueWait
	case model.BlueFieldPRISM:
		requestOverhead = s.p.BFProcOverhead
	}

	sc.chainReq, sc.chainResp, sc.chainIdx, sc.chainTok = req, resp, 0, opTok
	s.e.Schedule(preDelay+requestOverhead+s.takeQPDebt(sc), sc.stepFn)
}

// interOp spaces chain steps so concurrent chains interleave, as on a
// real NIC where each op is a separate pipeline traversal.
const interOp = 100 * time.Nanosecond

// chainStep executes the next op of the connection's current chain.
// Conditionally skipped ops fall through to the next op at the same
// instant (the loop), exactly as the recursive formulation did.
func (s *Server) chainStep(sc *serverConn) {
	req, resp := sc.chainReq, sc.chainResp
	results := resp.Results
	for {
		i := sc.chainIdx
		if i == len(req.Ops) {
			s.Quiescer().OpEnd(sc.chainTok)
			preDelay := s.baseProc / 2
			s.e.Schedule(s.baseProc-preDelay+s.qpTx(sc), sc.finishFn)
			return
		}
		op := &req.Ops[i]
		if op.Flags.Has(wire.FlagConditional) && !sc.lastOK {
			results[i] = wire.Result{Status: wire.StatusNotExecuted}
			if s.tracer != nil {
				s.tracer(TraceEvent{
					At: s.e.Now(), Conn: sc.id, Seq: req.Seq, OpIdx: i,
					Code: op.Code, Flags: op.Flags, Status: wire.StatusNotExecuted, Op: op,
				})
			}
			sc.chainIdx = i + 1
			continue
		}
		// READ payloads ride the response until the slot retires; carve
		// them from the slot's arena instead of the heap.
		s.exec.ReadAlloc = sc.readAlloc
		s.exec.ExecInto(op, &results[i], &sc.opMeta)
		s.exec.ReadAlloc = nil
		s.OpsExecuted++
		sc.lastOK = results[i].Status.OK()
		if s.tracer != nil {
			s.tracer(TraceEvent{
				At: s.e.Now(), Conn: sc.id, Seq: req.Seq, OpIdx: i,
				Code: op.Code, Flags: op.Flags, Status: results[i].Status, Op: op,
			})
		}
		delay := s.opExtra(sc, op, sc.opMeta)
		if sc.opMeta.Steps > 0 {
			s.ProgOps++
			s.ProgSteps += int64(sc.opMeta.Steps)
			if s.deploy == model.SoftwarePRISM && sc.opMeta.Steps > 1 {
				// serveVerbs charged this op one per-op core quantum; the
				// program's remaining iterations occupy the dedicated core
				// too, and any queueing they cause delays the chain.
				cpu := time.Duration(sc.opMeta.Steps-1) * s.p.SoftCPUPerOp
				done := s.prismCores.Submit(cpu, nil)
				delay += done.Sub(s.e.Now()) - cpu
			}
		}
		if i+1 < len(req.Ops) {
			delay += interOp
		}
		sc.chainIdx = i + 1
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

// opExtra is the per-op latency the deployment adds beyond the base verb
// pipeline.
func (s *Server) opExtra(sc *serverConn, op *wire.Op, meta prism.OpMeta) time.Duration {
	// Verb programs pay the loop engine once per executed step (DESIGN.md §14);
	// every classic op runs zero steps, so the term vanishes on the
	// pre-program figures. Per-step memory traffic is charged below
	// through the same HostAccesses/Indirections counts the steps bumped.
	prog := time.Duration(meta.Steps) * s.p.ProgStepCost
	switch s.deploy {
	case model.SoftwarePRISM:
		return s.p.SoftExtraFor(meta.Class) + prog
	case model.ProjectedHardwarePRISM:
		// One extra PCIe round trip per level of indirection (§4.3), plus
		// small fixed costs for the new datapath functions.
		d := time.Duration(meta.Indirections) * s.p.PCIeRTT
		if meta.RedirectUsed && (s.p.RedirectToHostMem || !sc.tempOnNIC) {
			// §4.2: redirects should target on-NIC memory; a host-memory
			// temp buffer — forced either by configuration or by exceeding
			// the 256 KB on-NIC region — costs an extra PCIe round trip
			// per redirect.
			d += s.p.PCIeRTT
		}
		if op.Code == wire.OpAllocate {
			d += 200 * time.Nanosecond // free-list pop
		}
		if op.Code == wire.OpCAS && meta.PRISMOnly {
			d += 300 * time.Nanosecond // wide/masked/arithmetic atomic
		}
		return d + prog
	case model.BlueFieldPRISM:
		// Every host-memory access crosses the internal switch (~3 µs).
		return time.Duration(meta.HostAccesses)*s.p.BFHostAccess + prog
	default:
		return 0
	}
}

// SetRecvCredits overrides the receive-queue depth (testing flow control
// or modeling constrained receivers).
func (s *Server) SetRecvCredits(n int) { s.recvCredits = n }

// serveRPC dispatches a two-sided request to the application handler.
func (s *Server) serveRPC(sc *serverConn, req *wire.Request) {
	s.RequestsServed++
	if s.Handler() == nil {
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
	payload := req.Ops[0].Data
	// Reserve an application core; the handler's memory effects apply when
	// the core picks the request up.
	start := s.rpcCores.Submit(s.p.RPCHandlerCPUTime, nil)
	dispatchWait := start.Sub(s.e.Now()) - s.p.RPCHandlerCPUTime
	s.e.Schedule(dispatchWait+s.takeQPDebt(sc), func() {
		reply, extraCPU := s.Handler()(payload)
		if extraCPU > 0 {
			s.rpcCores.Submit(extraCPU, nil)
		}
		total := s.baseProc + s.p.RPCOverhead + s.p.RPCHandlerCPUTime + extraCPU + s.qpTx(sc)
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
