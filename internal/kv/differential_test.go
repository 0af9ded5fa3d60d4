package kv

import (
	"cmp"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"prism/internal/alloc"
	"prism/internal/fabric"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

// recIssuer is a recording transport.Issuer fake: it forwards to the
// real issuer and appends every chain it carries — canonical wire bytes
// of the ops and of the results — including a fan-out round's, every
// fan-out wait, and every backoff sleep to one log.
// The log opens with the connection's temp buffer address: both hosts
// place it identically today; if one ever moves it, that first event
// says so and the address needs masking here.
type recIssuer struct {
	transport.Issuer
	log *[]string
}

func newRecIssuer(iss transport.Issuer, log *[]string) *recIssuer {
	temp, key := iss.Temp()
	*log = append(*log, fmt.Sprintf("temp %#x key %d", temp, key))
	return &recIssuer{Issuer: iss, log: log}
}

func opBytes(ops []wire.Op) []byte {
	return wire.AppendRequest(nil, &wire.Request{Ops: ops})
}

func resBytes(res []wire.Result) []byte {
	return wire.AppendResponse(nil, &wire.Response{Results: res})
}

func (r *recIssuer) Issue(ops []wire.Op) ([]wire.Result, error) {
	sent := opBytes(ops) // encoded first: completion recycles the op scratch
	res, err := r.Issuer.Issue(ops)
	*r.log = append(*r.log, fmt.Sprintf("issue %x -> %x err=%v", sent, resBytes(res), err))
	return res, err
}

func (r *recIssuer) IssueAsync(ops []wire.Op) error {
	sent := opBytes(ops)
	err := r.Issuer.IssueAsync(ops)
	*r.log = append(*r.log, fmt.Sprintf("async %x err=%v", sent, err))
	return err
}

// BindFanout records a fan-out round over recording issuers: it binds the
// inner issuers' fan-out with a deliver that keeps each completion, logs
// every post as it is sent and, when a wait returns, the completions
// delivered so far in slot order. A live round may deliver a completion
// before a later post of the same round, the simulator never does, so
// completions are not logged as they arrive.
func (r *recIssuer) BindFanout(group []transport.Issuer, deliver transport.Deliver) transport.FanoutBinding {
	inner := make([]transport.Issuer, len(group))
	for i, is := range group {
		inner[i] = is.(*recIssuer).Issuer
	}
	b := &recFan{log: r.log}
	binder := inner[0].(interface {
		BindFanout([]transport.Issuer, transport.Deliver) transport.FanoutBinding
	})
	b.FanoutBinding = binder.BindFanout(inner, func(round uint64, slot int, res []wire.Result, err error) bool {
		b.done = append(b.done, recDone{round, slot, fmt.Sprintf("%x err=%v", resBytes(res), err)})
		return deliver(round, slot, res, err)
	})
	return b
}

// recFan is recIssuer's fan-out binding.
type recFan struct {
	transport.FanoutBinding
	log  *[]string
	done []recDone // completions since the last wait returned
}

type recDone struct {
	round uint64
	slot  int
	res   string
}

func (b *recFan) Send(i int, ops []wire.Op, round uint64, slot int) {
	*b.log = append(*b.log, fmt.Sprintf("post[%d] on %d %x", slot, i, opBytes(ops)))
	b.FanoutBinding.Send(i, ops, round, slot)
}

func (b *recFan) Await(pending bool) {
	b.FanoutBinding.Await(pending)
	*b.log = append(*b.log, "await")
	slices.SortFunc(b.done, func(x, y recDone) int {
		return cmp.Or(cmp.Compare(x.round, y.round), cmp.Compare(x.slot, y.slot))
	})
	for _, d := range b.done {
		*b.log = append(*b.log, fmt.Sprintf("done round %d [%d] -> %s", d.round, d.slot, d.res))
	}
	b.done = b.done[:0]
}

func (r *recIssuer) Sleep(d time.Duration) {
	*r.log = append(*r.log, fmt.Sprintf("sleep %v", d))
	r.Issuer.Sleep(d)
}

// runOverSim provisions a store on a simulated NIC and runs body, inside
// one simulation process, over the connection.
func runOverSim(provision func(transport.Host), body func(transport.Issuer)) {
	e := sim.NewEngine(1)
	net := fabric.New(e, model.Default().WithNetwork(model.Rack))
	nic := rdma.NewServer(net, "srv", model.SoftwarePRISM)
	provision(nic)
	conn := rdma.NewClient(net, "cli").Connect(nic)
	e.Go("diff", func(p *sim.Proc) {
		body(conn)
	})
	e.Run()
}

// runOverLive provisions the same store on a live transport.Server,
// serves one end of a net.Pipe with ServeConn, and runs body over a
// connection on the other end.
func runOverLive(t *testing.T, provision func(transport.Host), body func(transport.Issuer)) {
	t.Helper()
	ts := transport.NewServer()
	provision(ts)
	cEnd, sEnd := net.Pipe()
	served := make(chan struct{})
	go func() { defer close(served); ts.ServeConn(sEnd) }()
	tc, err := transport.NewClientConn(cEnd)
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	conn, err := tc.Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	body(conn)
	tc.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after client close")
	}
}

// diffValue is the deterministic value of (key, version); every length
// stays inside the smallest buffer class so the RNR below is forced on
// one free list.
func diffValue(key int64, ver int) []byte {
	b := make([]byte, 8+(int(key)+ver)%24)
	for i := range b {
		b[i] = byte(int(key)*31 + ver*7 + i)
	}
	return b
}

// kvScenario drives one seeded call sequence through c, logging every
// call's return values: a random Put/Get/Delete mix with overwrites and
// misses (the free list is provisioned to run dry, forcing RNR backoff),
// then GetBatch trains (some keys outside the table), GETs of keys outside
// the table, and a full SCAN sweep.
func kvScenario(c *Client, logf func(format string, args ...any)) {
	const keys = 16 // live objects never exhaust the 20 provisioned buffers
	rng := rand.New(rand.NewSource(42))
	ver := 0
	for i := 0; i < 160; i++ {
		k := rng.Int63n(keys)
		switch rng.Intn(5) {
		case 0, 1:
			v, err := c.Get(k)
			logf("get %d = %x %v", k, v, err)
		case 2, 3:
			ver++
			logf("put %d v%d = %v", k, ver, c.Put(k, diffValue(k, ver)))
		default:
			logf("del %d = %v", k, c.Delete(k))
		}
	}
	logf("flush = %v", c.FlushFrees())
	for _, n := range []int{1, 5, 20} { // 20 chains overrun the sim send window
		train := make([]int64, n)
		for i := range train {
			train[i] = rng.Int63n(keys + 4)
		}
		train = append(train, c.meta.NSlots+train[0]) // outside: visited, never posted
		err := c.GetBatch(train, func(i int, v []byte, err error) {
			logf("batch key[%d]=%d = %x %v", i, train[i], v, err)
		})
		logf("batch of %d = %v", n, err)
	}
	for _, k := range []int64{-1, c.meta.NSlots} {
		v, err := c.Get(k)
		logf("get outside %d = %x %v", k, v, err)
	}
	for start := int64(0); start < c.meta.NSlots; {
		next, err := c.Scan(start, 256, func(k int64, v []byte) error {
			logf("scan entry %d = %x", k, v)
			return nil
		})
		logf("scan %d -> %d %v", start, next, err)
		if err != nil || next <= start {
			break
		}
		start = next
	}
	logf("probes=%d casfail=%d", c.Probes, c.CASFail)
}

// chainScenario looks every key (and one past the end) up three ways.
func chainScenario(c *ChainClient, logf func(format string, args ...any)) {
	for k := int64(0); k <= c.meta.Buckets*c.meta.Depth; k++ {
		v, err := c.ChaseGet(k)
		logf("chaseget %d = %x %v", k, v, err)
		v, err = c.HopGet(k)
		logf("hopget %d = %x %v", k, v, err)
		v, err = c.RPCGet(k)
		logf("rpcget %d = %x %v", k, v, err)
	}
}

// TestSimLiveDifferential drives one seeded call sequence through the
// same client code over (a) an rdma.Conn on the simulator and (b) a
// transport.Conn to a ServeConn'd net.Pipe, each behind a recording
// issuer, and requires identical per-call return values and
// byte-identical op and result sequences — for PRISM-KV and for the
// chain store. Each server's observer records the ops it stepped, and the
// two servers' sequences must be equal too, line by line: what each
// executed, not only what the client sent.
func TestSimLiveDifferential(t *testing.T) {
	goroutines := runtime.NumGoroutine()

	same := func(t *testing.T, what string, sim, live []string) {
		t.Helper()
		if len(sim) == 0 {
			t.Fatalf("no %s recorded", what)
		}
		for i := 0; i < len(sim) && i < len(live); i++ {
			if sim[i] != live[i] {
				t.Fatalf("%s %d differs:\n sim: %s\nlive: %s", what, i, sim[i], live[i])
			}
		}
		if len(sim) != len(live) {
			t.Fatalf("sim recorded %d %s, live %d", len(sim), what, len(live))
		}
	}
	compare := func(t *testing.T, provision func(transport.Host), scenario func(transport.Issuer, *[]string)) {
		t.Helper()
		var simLog, liveLog, simOps, liveOps []string
		observed := func(ops *[]string) func(transport.Host) {
			return func(host transport.Host) {
				host.(interface{ SetObserver(prism.Observer) }).SetObserver(
					func(req *wire.Request, i int, res *wire.Result, _ *prism.OpMeta) {
						op := &req.Ops[i]
						*ops = append(*ops, fmt.Sprintf("conn=%d seq=%d op[%d] %v flags=%#x -> %v",
							req.Conn, req.Seq, i, op.Code, uint8(op.Flags), res.Status))
					})
				provision(host)
			}
		}
		runOverSim(observed(&simOps), func(iss transport.Issuer) { scenario(iss, &simLog) })
		runOverLive(t, observed(&liveOps), func(iss transport.Issuer) { scenario(iss, &liveLog) })
		same(t, "events", simLog, liveLog)
		same(t, "server ops", simOps, liveOps)
	}
	logTo := func(log *[]string) func(string, ...any) {
		return func(format string, args ...any) { *log = append(*log, fmt.Sprintf(format, args...)) }
	}

	t.Run("kv/scenario", func(t *testing.T) {
		opts := DefaultOptions(48, 64)
		opts.BuffersPerClass = 20 // at most 16 live + 4 spare < FreeBatch: PUTs hit RNR
		sawRNR, sawRound := false, false
		var meta Meta
		compare(t, func(host transport.Host) {
			srv, err := NewServerOn(host, opts)
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < 12; k++ {
				if err := srv.Load(k, diffValue(k, 0)); err != nil {
					t.Fatalf("load %d: %v", k, err)
				}
			}
			meta = srv.Meta()
		}, func(iss transport.Issuer, log *[]string) {
			c := NewClient(newRecIssuer(iss, log), meta, 1)
			kvScenario(c, logTo(log))
			for _, ev := range *log {
				sawRNR = sawRNR || strings.HasPrefix(ev, "sleep")
				sawRound = sawRound || strings.HasPrefix(ev, "done round")
			}
		})
		if !sawRNR {
			t.Fatal("scenario never backed off on RNR")
		}
		if !sawRound {
			t.Fatal("no GetBatch round went through the recording issuer")
		}
	})
	// A table of two regions (alloc.RegisterArray): keys edge-3 … edge+4
	// sit on both sides of the first region's end, so GETs address both
	// regions and the SCAN windows cross the boundary.
	t.Run("kv/region-boundary", func(t *testing.T) {
		var meta Meta
		var edge int64 // first slot of the second region
		compare(t, func(host transport.Host) {
			opts := DefaultOptions(alloc.SlabBytes/slotSize+64, 64)
			opts.BuffersPerClass = 64
			srv, err := NewServerOn(host, opts)
			if err != nil {
				t.Fatal(err)
			}
			meta = srv.Meta()
			edge = int64(host.Space().RegionAt(meta.HashBase).End()-meta.HashBase) / slotSize
			if edge >= meta.NSlots {
				t.Fatalf("the %d-slot table is one region", meta.NSlots)
			}
			for k := edge - 3; k <= edge+4; k++ {
				if err := srv.Load(k, diffValue(k, 0)); err != nil {
					t.Fatalf("load %d: %v", k, err)
				}
			}
		}, func(iss transport.Issuer, log *[]string) {
			c := NewClient(newRecIssuer(iss, log), meta, 1)
			logf := logTo(log)
			for k := edge - 3; k <= edge+4; k++ {
				v, err := c.Get(k)
				logf("get %d = %x %v", k, v, err)
				if err != nil {
					t.Errorf("key %d: %v", k, err)
				}
			}
			scanned := 0
			for start := edge - 16; start < edge+16; {
				next, err := c.Scan(start, 128, func(k int64, v []byte) error {
					logf("scan entry %d = %x", k, v)
					scanned++
					return nil
				})
				logf("scan %d -> %d %v", start, next, err)
				if err != nil || next <= start {
					t.Errorf("scan from %d: next %d, %v", start, next, err)
					break
				}
				start = next
			}
			if scanned != 8 {
				t.Errorf("the scan windows around the boundary returned %d entries, want 8", scanned)
			}
		})
	})
	t.Run("chain", func(t *testing.T) {
		opts := ChainOptions{Buckets: 3, Depth: 5, MaxValue: 16}
		var meta ChainMeta
		compare(t, func(host transport.Host) {
			srv, err := NewChainStoreOn(host, opts)
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < opts.Buckets*opts.Depth; k++ {
				if err := srv.Load(k, chainValue(k)); err != nil {
					t.Fatal(err)
				}
			}
			meta = srv.Meta()
		}, func(iss transport.Issuer, log *[]string) {
			c := NewChainClient(newRecIssuer(iss, log), meta)
			chainScenario(c, logTo(log))
		})
	})

	// Teardown must leave no goroutine behind: the live client's reader
	// and flusher, the server's socket loop, the simulator's processes.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines leaked:\n%s", n-goroutines, buf[:runtime.Stack(buf, true)])
	}
}
