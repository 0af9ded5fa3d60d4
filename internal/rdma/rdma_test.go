package rdma

import (
	"strings"
	"testing"
	"time"

	"prism/internal/alloc"
	"prism/internal/fabric"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

type env struct {
	e    *sim.Engine
	net  *fabric.Network
	srv  *Server
	cli  *Client
	conn *Conn
	reg  *memory.Region
}

func newEnv(t *testing.T, deploy model.Deployment, mut func(*model.Params)) *env {
	t.Helper()
	p := model.Default().WithNetwork(model.Direct)
	if mut != nil {
		mut(&p)
	}
	e := sim.NewEngine(1)
	net := fabric.New(e, p)
	srv := NewServer(net, "srv", deploy)
	reg, err := srv.Space().Register(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetConnTempKey(reg.Key)
	cli := NewClient(net, "cli")
	conn := cli.Connect(srv)
	return &env{e: e, net: net, srv: srv, cli: cli, conn: conn, reg: reg}
}

// stepped is one op the server stepped, as its observer saw it, at the
// simulated instant it ran.
type stepped struct {
	At        sim.Time
	Conn, Seq uint64
	OpIdx     int
	Code      wire.OpCode
	Status    wire.Status
}

// observe records every op the server steps from now on.
func (v *env) observe() *[]stepped {
	evs := new([]stepped)
	v.srv.SetObserver(func(req *wire.Request, i int, res *wire.Result, _ *prism.OpMeta) {
		*evs = append(*evs, stepped{v.e.Now(), req.Conn, req.Seq, i, req.Ops[i].Code, res.Status})
	})
	return evs
}

// run executes fn as a client process and drives the sim to completion.
func (v *env) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	v.e.Go("client", fn)
	v.e.Run()
	if v.e.LiveProcs() != 0 {
		t.Fatal("leaked simulation processes")
	}
}

func TestHardwareReadWriteRoundTrip(t *testing.T) {
	v := newEnv(t, model.HardwareRDMA, nil)
	var rtt sim.Duration
	v.run(t, func(p *sim.Proc) {
		w := prism.Write(v.reg.Key, v.reg.Base, []byte("abc"))
		res, _ := v.conn.Issue([]wire.Op{w})
		if res[0].Status != wire.StatusOK {
			t.Errorf("write status %v", res[0].Status)
		}
		start := p.Now()
		r := prism.Read(v.reg.Key, v.reg.Base, 3)
		res, _ = v.conn.Issue([]wire.Op{r})
		rtt = p.Now().Sub(start)
		if string(res[0].Data) != "abc" {
			t.Errorf("read %q", res[0].Data)
		}
	})
	// Small hardware verb on a direct link ≈ RDMABaseRTT (±20%).
	base := model.Default().RDMABaseRTT
	if rtt < base*8/10 || rtt > base*12/10 {
		t.Fatalf("hardware read RTT = %v, want ≈ %v", rtt, base)
	}
}

func TestHardwareRejectsPRISMOps(t *testing.T) {
	v := newEnv(t, model.HardwareRDMA, nil)
	v.run(t, func(p *sim.Proc) {
		r := prism.ReadIndirect(v.reg.Key, v.reg.Base, 8)
		res, _ := v.conn.Issue([]wire.Op{r})
		if res[0].Status != wire.StatusUnsupported {
			t.Errorf("indirect read on stock NIC: %v", res[0].Status)
		}
		// Chains are also rejected.
		res, _ = v.conn.Issue([]wire.Op{
			prism.Read(v.reg.Key, v.reg.Base, 8),
			prism.Read(v.reg.Key, v.reg.Base, 8)})
		for _, r := range res {
			if r.Status != wire.StatusUnsupported {
				t.Errorf("chain on stock NIC: %v", r.Status)
			}
		}
	})
}

func TestSoftwarePRISMIndirectReadLatency(t *testing.T) {
	v := newEnv(t, model.SoftwarePRISM, nil)
	var rtt sim.Duration
	v.run(t, func(p *sim.Proc) {
		if err := v.srv.Space().WriteU64(v.reg.Key, v.reg.Base, uint64(v.reg.Base+256)); err != nil {
			t.Error(err)
			return
		}
		w := prism.Write(v.reg.Key, v.reg.Base+256, make([]byte, 512))
		v.conn.Issue([]wire.Op{w})
		start := p.Now()
		res, _ := v.conn.Issue([]wire.Op{prism.ReadIndirect(v.reg.Key, v.reg.Base, 512)})
		rtt = p.Now().Sub(start)
		if res[0].Status != wire.StatusOK || len(res[0].Data) != 512 {
			t.Errorf("indirect read: %v len %d", res[0].Status, len(res[0].Data))
		}
	})
	// Paper: software PRISM adds ~2.8 µs to the 2.5 µs base for a read.
	p := model.Default()
	want := p.RDMABaseRTT + p.SoftBaseOverhead + p.SoftReadExtra
	if rtt < want-time.Microsecond || rtt > want+time.Microsecond {
		t.Fatalf("PRISM SW indirect read RTT = %v, want ≈ %v", rtt, want)
	}
}

func TestChainConditionalSkipsAfterFailure(t *testing.T) {
	v := newEnv(t, model.SoftwarePRISM, nil)
	v.run(t, func(p *sim.Proc) {
		// Seed target with tag 10 (big-endian).
		seed := make([]byte, 8)
		prism.PutBE64(seed, 0, 10)
		v.conn.Issue([]wire.Op{prism.Write(v.reg.Key, v.reg.Base, seed)})
		// CAS GT with a smaller tag fails; the conditional write after it
		// must be skipped.
		stale := make([]byte, 8)
		prism.PutBE64(stale, 0, 5)
		res, _ := v.conn.Issue([]wire.Op{
			prism.CAS(v.reg.Key, v.reg.Base, wire.CASGt, stale, nil, nil),
			prism.Conditional(prism.Write(v.reg.Key, v.reg.Base+64, []byte("should not land"))),
		})
		if res[0].Status != wire.StatusCASFailed {
			t.Errorf("CAS status %v", res[0].Status)
		}
		if res[1].Status != wire.StatusNotExecuted {
			t.Errorf("conditional op status %v", res[1].Status)
		}
		got, _ := v.srv.Space().Read(v.reg.Key, v.reg.Base+64, 4)
		for _, b := range got {
			if b != 0 {
				t.Error("conditional write executed after failed CAS")
			}
		}
	})
	// Two requests served; the skipped op is not an executed one.
	if st := v.e.Stats(); st.RequestsServed != 2 || st.OpsExecuted != 2 {
		t.Errorf("%d requests served, %d ops executed; want 2 and 2", st.RequestsServed, st.OpsExecuted)
	}
}

func TestChainAllocateRedirectCAS(t *testing.T) {
	// The canonical PRISM out-of-place update (§3.5): WRITE tag to tmp,
	// ALLOCATE redirecting the address after the tag, CAS the <tag,addr>
	// pair — all in one round trip.
	v := newEnv(t, model.SoftwarePRISM, nil)
	fl := alloc.NewFreeList(1, 512, v.reg.Key, nil, 0)
	fl.Post(v.reg.Base + 4096)
	v.srv.AddFreeList(fl)

	v.run(t, func(p *sim.Proc) {
		meta := v.reg.Base // metadata cell: [tag(8)|addr(8)]
		seed := make([]byte, 16)
		prism.PutBE64(seed, 0, 1)
		prism.PutBE64(seed, 8, 0) // no value yet
		v.conn.Issue([]wire.Op{prism.Write(v.reg.Key, meta, seed)})

		tag := make([]byte, 8)
		prism.PutBE64(tag, 0, 2)
		tmp := v.conn.TempAddr
		res, _ := v.conn.Issue([]wire.Op{
			prism.Write(v.conn.TempKey, tmp, tag),
			prism.Conditional(prism.RedirectTo(prism.Allocate(1, []byte("new value")), v.conn.TempKey, tmp+8)),
			prism.Conditional(prism.CASIndirectData(v.reg.Key, meta, wire.CASGt, tmp, prism.FieldMask(16, 0, 8), prism.FullMask(16))),
		})
		for i, r := range res {
			if r.Status != wire.StatusOK {
				t.Fatalf("op %d status %v", i, r.Status)
			}
		}
		// Metadata now points at the allocated buffer with the new tag.
		got, _ := v.srv.Space().Read(v.reg.Key, meta, 16)
		if prism.BE64(got, 0) != 2 {
			t.Errorf("tag after chain: %d", prism.BE64(got, 0))
		}
		bufAddr := memory.Addr(prism.LE64(got, 8)) // pointer fields are little-endian
		if bufAddr != v.reg.Base+4096 {
			t.Errorf("addr after chain: %#x", bufAddr)
		}
		val, _ := v.srv.Space().Read(v.reg.Key, bufAddr, 9)
		if string(val) != "new value" {
			t.Errorf("buffer holds %q", val)
		}
	})
}

func TestRPCDispatch(t *testing.T) {
	v := newEnv(t, model.HardwareRDMA, nil)
	v.srv.SetRPCHandler(func(payload []byte) ([]byte, time.Duration) {
		return append([]byte("echo:"), payload...), 0
	})
	var rtt sim.Duration
	v.run(t, func(p *sim.Proc) {
		start := p.Now()
		res, _ := v.conn.Issue([]wire.Op{prism.Send([]byte("ping"))})
		rtt = p.Now().Sub(start)
		if string(res[0].Data) != "echo:ping" {
			t.Errorf("rpc reply %q", res[0].Data)
		}
	})
	// Two-sided RPC ≈ base + RPCOverhead + handler time (§2.1: 5.6 µs
	// class on a direct link).
	p := model.Default()
	want := p.RDMABaseRTT + p.RPCOverhead + p.RPCHandlerCPUTime
	if rtt < want-time.Microsecond || rtt > want+time.Microsecond {
		t.Fatalf("RPC RTT = %v, want ≈ %v", rtt, want)
	}
}

func TestDeploymentLatencyOrdering(t *testing.T) {
	// Fig. 1's qualitative ordering for an indirect read:
	// RDMA(2 reads) baseline aside, PRISM HW < PRISM SW < BlueField,
	// and the projected hardware NIC saves §6.2's ≈2 µs of software
	// stack.
	lat := func(d model.Deployment) sim.Duration {
		v := newEnv(t, d, nil)
		var rtt sim.Duration
		v.run(t, func(p *sim.Proc) {
			v.srv.Space().WriteU64(v.reg.Key, v.reg.Base, uint64(v.reg.Base+256))
			start := p.Now()
			v.conn.Issue([]wire.Op{prism.ReadIndirect(v.reg.Key, v.reg.Base, 512)})
			rtt = p.Now().Sub(start)
		})
		return rtt
	}
	hw := lat(model.ProjectedHardwarePRISM)
	sw := lat(model.SoftwarePRISM)
	bf := lat(model.BlueFieldPRISM)
	if !(hw < sw && sw < bf) {
		t.Fatalf("latency ordering hw=%v sw=%v bf=%v", hw, sw, bf)
	}
	if d := sw - hw; d < time.Microsecond || d > 3*time.Microsecond {
		t.Fatalf("projected-hardware advantage %v (hw=%v sw=%v), want ≈2µs (§6.2)", d, hw, sw)
	}
}

func TestLossRecoveryThroughRetransmission(t *testing.T) {
	v := newEnv(t, model.SoftwarePRISM, func(p *model.Params) {
		p.LossRate = 0.2
		p.RetransmitTimeout = 50 * time.Microsecond
	})
	const n = 200
	v.run(t, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			res, _ := v.conn.Issue([]wire.Op{prism.Write(v.reg.Key, v.reg.Base+memory.Addr(8*(i%100)), []byte("datadata"))})
			if res[0].Status != wire.StatusOK {
				t.Errorf("write %d: %v", i, res[0].Status)
			}
		}
	})
	if v.conn.Retransmissions == 0 {
		t.Fatal("no retransmissions under 20% loss")
	}
	t.Logf("retransmissions: %d", v.conn.Retransmissions)
}

func TestDuplicateExecutionSuppressed(t *testing.T) {
	// Under loss, a retransmitted FETCH_ADD must not execute twice: the
	// replay cache answers duplicates. Each op adds exactly 1, so the
	// final counter equals the number of issued ops.
	v := newEnv(t, model.SoftwarePRISM, func(p *model.Params) {
		p.LossRate = 0.3
		p.RetransmitTimeout = 30 * time.Microsecond
	})
	const n = 100
	v.run(t, func(p *sim.Proc) {
		one := make([]byte, 8)
		one[0] = 1
		for i := 0; i < n; i++ {
			op := wire.Op{Code: wire.OpFetchAdd, RKey: v.reg.Key, Target: v.reg.Base, Data: one}
			res, _ := v.conn.Issue([]wire.Op{op})
			if res[0].Status != wire.StatusOK {
				t.Errorf("fetch-add %d: %v", i, res[0].Status)
			}
		}
	})
	got, _ := v.srv.Space().ReadU64(v.reg.Key, v.reg.Base)
	if got != n {
		t.Fatalf("counter = %d after %d increments (duplicates executed or lost)", got, n)
	}
	if v.conn.Retransmissions == 0 {
		t.Fatal("test exercised no retransmissions")
	}
}

func TestRecycleBufferWaitsForQuiesce(t *testing.T) {
	v := newEnv(t, model.SoftwarePRISM, nil)
	fl := alloc.NewFreeList(1, 64, v.reg.Key, nil, 0)
	fl.Post(v.reg.Base + 4096)
	v.srv.AddFreeList(fl)
	v.run(t, func(p *sim.Proc) {
		res, _ := v.conn.Issue([]wire.Op{prism.Allocate(1, []byte("x"))})
		if res[0].Status != wire.StatusOK {
			t.Errorf("allocate: %v", res[0].Status)
			return
		}
		if fl.Len() != 0 {
			t.Error("free list should be empty")
		}
		// Release with no ops in flight: available after quiesce (which is
		// immediate here).
		v.srv.RecycleBuffers(1, []memory.Addr{res[0].Addr})
		if fl.Len() != 1 {
			t.Error("recycled buffer not reposted after quiesce")
		}
	})
}

func TestConnTempBuffersDistinct(t *testing.T) {
	v := newEnv(t, model.SoftwarePRISM, nil)
	c2 := v.cli.Connect(v.srv)
	if v.conn.TempAddr == c2.TempAddr {
		t.Fatal("connections share a temp buffer")
	}
	if v.conn.TempKey != c2.TempKey {
		t.Fatal("temp buffers under different keys")
	}
}

func TestThroughputBoundedByLineRate(t *testing.T) {
	// Many clients reading 512 B: server response bandwidth should cap
	// near 40 Gb/s with the paper's frame overhead.
	p := model.Default().WithNetwork(model.Rack)
	e := sim.NewEngine(7)
	net := fabric.New(e, p)
	srv := NewServer(net, "srv", model.SoftwarePRISM)
	reg, _ := srv.Space().Register(1 << 20)
	srv.SetConnTempKey(reg.Key)

	const clients = 64
	var completed int64
	for i := 0; i < clients; i++ {
		cli := NewClient(net, "cli")
		conn := cli.Connect(srv)
		e.Go("load", func(pr *sim.Proc) {
			for {
				if pr.Now() > sim.Time(2*time.Millisecond) {
					return
				}
				conn.Issue([]wire.Op{prism.Read(reg.Key, reg.Base, 512)})
				completed++
			}
		})
	}
	e.RunUntil(sim.Time(3 * time.Millisecond))
	e.Stop()
	// Line rate at 40 Gb/s with ~658 B per response message ≈ 7.6 M/s;
	// in 2 ms that's ~15k responses. Check we're within [50%, 110%].
	perSec := float64(completed) / 0.002
	if perSec < 3.5e6 || perSec > 9e6 {
		t.Fatalf("read throughput %.2f M/s, expected line-rate-bound ~5-9 M/s", perSec/1e6)
	}
	t.Logf("read throughput: %.2f M ops/s", perSec/1e6)
}

func TestTracerRecordsChainExecution(t *testing.T) {
	v := newEnv(t, model.SoftwarePRISM, nil)
	ops := v.observe()
	v.run(t, func(p *sim.Proc) {
		// A failing CAS followed by a conditional write: trace must show
		// CAS_FAILED then NOT_EXECUTED.
		seed := make([]byte, 8)
		prism.PutBE64(seed, 0, 10)
		v.conn.Issue([]wire.Op{prism.Write(v.reg.Key, v.reg.Base, seed)})
		stale := make([]byte, 8)
		prism.PutBE64(stale, 0, 5)
		v.conn.Issue([]wire.Op{
			prism.CAS(v.reg.Key, v.reg.Base, wire.CASGt, stale, nil, nil),
			prism.Conditional(prism.Write(v.reg.Key, v.reg.Base+64, []byte("nope"))),
		})
	})
	evs := *ops
	if len(evs) != 3 {
		t.Fatalf("traced %d events, want 3: %v", len(evs), evs)
	}
	if evs[0].Code != wire.OpWrite || evs[0].Status != wire.StatusOK {
		t.Fatalf("ev0: %v", evs[0])
	}
	if evs[1].Code != wire.OpCAS || evs[1].Status != wire.StatusCASFailed {
		t.Fatalf("ev1: %v", evs[1])
	}
	if evs[2].Code != wire.OpWrite || evs[2].Status != wire.StatusNotExecuted || evs[2].OpIdx != 1 {
		t.Fatalf("ev2: %v", evs[2])
	}
	// Times are non-decreasing.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("trace times decrease: %v", evs)
		}
	}
}

func TestRecvCreditsRNR(t *testing.T) {
	v := newEnv(t, model.HardwareRDMA, nil)
	v.srv.SetRecvCredits(2)
	v.srv.SetRPCHandler(func(payload []byte) ([]byte, time.Duration) {
		return []byte{0}, 50 * time.Microsecond // slow handler holds the buffer
	})
	// Fire 6 concurrent RPCs from separate connections (one conn would
	// serialize them and never exhaust the queue).
	conns := make([]*Conn, 6)
	for i := range conns {
		conns[i] = v.cli.Connect(v.srv)
	}
	ok, rnr := 0, 0
	v.e.Go("blast", func(p *sim.Proc) {
		f := newConnFan(conns...)
		for _, c := range conns {
			f.Post(c, []wire.Op{prism.Send([]byte{1})})
		}
		for _, res := range f.Wait() {
			switch res[0].Status {
			case wire.StatusOK:
				ok++
			case wire.StatusRNR:
				rnr++
			}
		}
	})
	v.e.Run()
	if ok < 2 || rnr == 0 {
		t.Fatalf("credits=2: ok=%d rnr=%d; want >=2 served and some RNR", ok, rnr)
	}
	// Credits replenish: a later RPC succeeds.
	v.e.Go("later", func(p *sim.Proc) {
		res, _ := conns[0].Issue([]wire.Op{prism.Send([]byte{2})})
		if res[0].Status != wire.StatusOK {
			t.Errorf("post-drain RPC: %v", res[0].Status)
		}
	})
	v.e.Run()
}

func TestOnNICTempCapacity(t *testing.T) {
	// On the projected hardware NIC, the first 256KB/256B = 1024
	// connections get on-NIC temp buffers; later connections' chain
	// redirects pay an extra PCIe round trip (§4.2's connection-scaling
	// analysis).
	v := newEnv(t, model.ProjectedHardwarePRISM, nil)
	v.srv.AddFreeList(alloc.NewFreeList(1, 64, v.reg.Key, v.srv.Space(), 4096))

	measure := func(conn *Conn) sim.Duration {
		var rtt sim.Duration
		v.e.Go("m", func(p *sim.Proc) {
			// Warm, then measure a redirected ALLOCATE.
			conn.Issue([]wire.Op{prism.RedirectTo(prism.Allocate(1, []byte("x")), conn.TempKey, conn.TempAddr)})
			start := p.Now()
			conn.Issue([]wire.Op{prism.RedirectTo(prism.Allocate(1, []byte("x")), conn.TempKey, conn.TempAddr)})
			rtt = p.Now().Sub(start)
		})
		v.e.Run()
		return rtt
	}

	early := measure(v.conn) // connection id 0: on-NIC
	// Burn connection ids up to the on-NIC capacity.
	var late *Conn
	for i := 0; i < model.OnNICMemoryBytes/ConnTempSize; i++ {
		late = v.cli.Connect(v.srv)
	}
	lateRTT := measure(late)
	diff := lateRTT - early
	p := model.Default()
	if diff < p.PCIeRTT*8/10 || diff > p.PCIeRTT*12/10 {
		t.Fatalf("host-resident temp penalty %v, want ≈ one PCIe RTT (%v); early=%v late=%v",
			diff, p.PCIeRTT, early, lateRTT)
	}
}

func TestChainsInterleaveAcrossConnections(t *testing.T) {
	// Fidelity property (§3.5): a chain is NOT atomic — ops from other
	// connections may execute between its steps. Two clients run 3-op
	// chains concurrently; the trace must show at least one interleaving
	// (conn A's ops split by a conn B op).
	v := newEnv(t, model.SoftwarePRISM, nil)
	ops := v.observe()
	c2 := v.cli.Connect(v.srv)
	mkChain := func(conn *Conn, base memory.Addr) []wire.Op {
		return []wire.Op{
			prism.Write(v.reg.Key, base, []byte("aaaaaaaa")),
			prism.Write(v.reg.Key, base+8, []byte("bbbbbbbb")),
			prism.Write(v.reg.Key, base+16, []byte("cccccccc")),
		}
	}
	v.e.Go("a", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			v.conn.Issue(mkChain(v.conn, v.reg.Base))
		}
	})
	v.e.Go("b", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			c2.Issue(mkChain(c2, v.reg.Base+64))
		}
	})
	v.e.Run()
	evs := *ops
	interleaved := false
	for i := 1; i < len(evs)-1; i++ {
		if evs[i].Conn != evs[i-1].Conn && evs[i-1].Conn == evs[i+1].Conn && evs[i-1].Seq == evs[i+1].Seq {
			interleaved = true
			break
		}
	}
	if !interleaved {
		t.Fatal("no cross-connection interleaving inside any chain — concurrency model too coarse")
	}
}

func TestSameConnectionRequestsSerialize(t *testing.T) {
	// RC semantics: two requests pipelined on ONE connection must not
	// interleave their ops — request N completes before N+1 starts.
	v := newEnv(t, model.SoftwarePRISM, nil)
	ops := v.observe()
	v.e.Go("a", func(p *sim.Proc) {
		f := newConnFan(v.conn)
		for i := 0; i < 5; i++ {
			f.Post(v.conn, []wire.Op{
				prism.Write(v.reg.Key, v.reg.Base, []byte("xxxxxxxx")),
				prism.Write(v.reg.Key, v.reg.Base+8, []byte("yyyyyyyy")),
			})
		}
		f.Wait()
	})
	v.e.Run()
	evs := *ops
	if len(evs) != 10 {
		t.Fatalf("traced %d events", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq < evs[i-1].Seq {
			t.Fatalf("requests on one connection executed out of order: %v", evs)
		}
		if evs[i].Seq == evs[i-1].Seq && evs[i].OpIdx != evs[i-1].OpIdx+1 {
			t.Fatalf("ops within a request out of order: %v", evs)
		}
	}
}

// TestArenaRecycleUnderRetransmission is the regression for epoch-stamped
// transport pooling: request and response objects are recycled even when
// the link drops packets, so stale duplicates of a recycled object's
// previous incarnation may still be in flight when it is repopulated. The
// epoch stamp (snapshotted into the fabric Tag at send time) makes both
// endpoints drop such datagrams. Every op here writes a distinct payload
// and immediately reads it back, so any cross-wiring of a recycled
// response to the wrong request shows up as a data mismatch; the stat
// assertions prove pooling actually cycled under loss rather than being
// quietly disabled.
func TestArenaRecycleUnderRetransmission(t *testing.T) {
	v := newEnv(t, model.SoftwarePRISM, func(p *model.Params) {
		p.LossRate = 0.3
		p.RetransmitTimeout = 30 * time.Microsecond
	})
	const n = 200
	v.run(t, func(p *sim.Proc) {
		buf := make([]byte, 8)
		for i := 0; i < n; i++ {
			for b := range buf {
				buf[b] = byte(i + b)
			}
			addr := v.reg.Base + memory.Addr(8*(i%64))
			res, _ := v.conn.Issue([]wire.Op{prism.Write(v.reg.Key, addr, buf)})
			if res[0].Status != wire.StatusOK {
				t.Errorf("write %d: %v", i, res[0].Status)
			}
			res, _ = v.conn.Issue([]wire.Op{prism.Read(v.reg.Key, addr, 8)})
			if res[0].Status != wire.StatusOK {
				t.Errorf("read %d: %v", i, res[0].Status)
				continue
			}
			for b, got := range res[0].Data {
				if got != byte(i+b) {
					t.Fatalf("read %d returned stale/foreign data %x at byte %d (want %x)",
						i, got, b, byte(i+b))
				}
			}
		}
	})
	if v.conn.Retransmissions == 0 {
		t.Fatal("test exercised no retransmissions")
	}
	if v.srv.RespReused == 0 {
		t.Fatal("response arena never recycled under loss (pooling disabled?)")
	}
	if v.conn.win.Pooled() == 0 {
		t.Fatal("request pool empty after drain: requests not recycled under loss")
	}
	t.Logf("retransmissions=%d respReused=%d reqPool=%d",
		v.conn.Retransmissions, v.srv.RespReused, v.conn.win.Pooled())
}

// The simulated NIC's StageWrites stores the first write at once and
// write i i×gap later, in order; once the last has landed nothing is left
// scheduled.
func TestStageWritesLandAtGaps(t *testing.T) {
	v := newEnv(t, model.SoftwarePRISM, nil)
	const gap = 300 * time.Nanosecond
	base := v.reg.Base
	writes := make([]transport.StagedWrite, 4)
	for i := range writes {
		writes[i] = transport.StagedWrite{Addr: base + memory.Addr(i), Data: []byte{byte('a' + i)}}
	}
	landed := func() string {
		b, err := v.srv.Space().Peek(v.reg.Key, base, 4)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	v.run(t, func(p *sim.Proc) {
		start := p.Now()
		if err := v.srv.StageWrites(v.reg.Key, gap, writes); err != nil {
			t.Error(err)
			return
		}
		if n := v.e.Pending(); n != 3 || landed() != "a\x00\x00\x00" {
			t.Errorf("on return: %d events scheduled and memory reads %q; want one event per write after the first, which has landed", n, landed())
		}
		// Sampled half a gap after each landing.
		for i, want := range []string{"a\x00\x00\x00", "ab\x00\x00", "abc\x00", "abcd"} {
			if i == 0 {
				p.Sleep(gap / 2)
			} else {
				p.Sleep(gap)
			}
			if got := landed(); got != want {
				t.Errorf("at %v: memory reads %q, want %q", p.Now().Sub(start), got, want)
			}
		}
		if n := v.e.Pending(); n != 0 {
			t.Errorf("%d events still scheduled after the last write landed", n)
		}
	})
}

// TestIssueOutsideProcessPanics: a blocking call parks the engine's running
// process, so one made from a plain event, where none runs, panics with a
// message that says so instead of parking nothing, before anything is on
// the wire. Fire-and-forget needs no process.
func TestIssueOutsideProcessPanics(t *testing.T) {
	v := newEnv(t, model.SoftwarePRISM, nil)
	read := func() []wire.Op { return []wire.Op{prism.Read(v.reg.Key, v.reg.Base, 8)} }
	for name, call := range map[string]func(){
		"Issue":   func() { v.conn.Issue(read()) },
		"fan-out": func() { transport.NewFanout([]transport.Issuer{v.conn}).Post(0, read()) },
		"Sleep":   func() { v.conn.Sleep(time.Microsecond) },
	} {
		var got any
		sent := -1
		v.e.Schedule(0, func() {
			defer func() { got, sent = recover(), v.conn.win.InFlight() }()
			call()
		})
		v.e.Run()
		if msg, _ := got.(string); !strings.Contains(msg, "outside a simulation process") {
			t.Errorf("%s from a plain event: recovered %v, want the outside-a-process panic", name, got)
		}
		if sent != 0 {
			t.Errorf("%s from a plain event put %d requests on the wire before panicking", name, sent)
		}
	}
	if err := v.conn.IssueAsync(read()); err != nil {
		t.Errorf("IssueAsync outside a process: %v", err)
	}
	v.e.Run()
}

// A server numbers its connections from 0 in connect order, and a request
// naming any other id is a programming error: it panics.
func TestRequestOnUnknownConnectionPanics(t *testing.T) {
	v := newEnv(t, model.SoftwarePRISM, nil)
	if second := v.cli.Connect(v.srv); v.conn.id != 0 || second.id != 1 {
		t.Fatalf("connection ids %d, %d; want 0, 1", v.conn.id, second.id)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "unknown connection 2") {
			t.Fatalf("recovered %q, want the unknown-connection panic", msg)
		}
	}()
	v.srv.onMessage(fabric.Message{
		From:    v.cli.node,
		To:      v.srv.node,
		Payload: &wire.Request{Conn: 2, Ops: []wire.Op{prism.Read(v.reg.Key, v.reg.Base, 8)}},
	})
}
