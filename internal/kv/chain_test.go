package kv

import (
	"bytes"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"prism/internal/fabric"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

func chainValue(k int64) []byte { return bytes.Repeat([]byte{byte(k + 1)}, 8) }

type chainEnv struct {
	e   *sim.Engine
	nic *rdma.Server
	srv *ChainStore
	cli *rdma.Client
}

func newChainEnv(t *testing.T, opts ChainOptions, deploy model.Deployment) *chainEnv {
	t.Helper()
	p := model.Default().WithNetwork(model.Rack)
	e := sim.NewEngine(1)
	net := fabric.New(e, p)
	nic := rdma.NewServer(net, "chain-srv", deploy)
	srv, err := NewChainStoreOn(nic, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < opts.Buckets*opts.Depth; k++ {
		if err := srv.Load(k, chainValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	return &chainEnv{e: e, nic: nic, srv: srv, cli: rdma.NewClient(net, "cli")}
}

func (v *chainEnv) client() *ChainClient {
	return NewChainClient(v.cli.Connect(v.nic), v.srv.Meta())
}

func (v *chainEnv) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	v.e.Go("t", fn)
	v.e.Run()
}

func TestChainClientsAgree(t *testing.T) {
	opts := ChainOptions{Buckets: 4, Depth: 8, MaxValue: 32}
	v := newChainEnv(t, opts, model.SoftwarePRISM)
	c := v.client()
	v.run(t, func(p *sim.Proc) {
		for k := int64(0); k < opts.Buckets*opts.Depth; k++ {
			want := chainValue(k)
			for name, get := range map[string]func() ([]byte, error){
				"chase": func() ([]byte, error) { return c.ChaseGet(k) },
				"hop":   func() ([]byte, error) { return c.HopGet(k) },
				"rpc":   func() ([]byte, error) { return c.RPCGet(k) },
			} {
				got, err := get()
				if err != nil {
					t.Fatalf("%s(%d): %v", name, k, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s(%d) = %v, want %v", name, k, got, want)
				}
			}
		}
		if _, err := c.ChaseGet(opts.Buckets * opts.Depth); err == nil {
			t.Fatal("chase of out-of-range key succeeded")
		}
	})
}

func TestChainChaseStepAccounting(t *testing.T) {
	opts := ChainOptions{Buckets: 2, Depth: 8, MaxValue: 16}
	v := newChainEnv(t, opts, model.SoftwarePRISM)
	c := v.client()
	tail := opts.Depth - 1 // deepest key of bucket 0
	v.run(t, func(p *sim.Proc) {
		if _, err := c.ChaseGet(tail); err != nil {
			t.Fatal(err)
		}
	})
	if v.e.Stats().ProgOps != 1 {
		t.Fatalf("ProgOps = %d, want 1 (one round trip)", v.e.Stats().ProgOps)
	}
	if v.e.Stats().ProgSteps != opts.Depth {
		t.Fatalf("ProgSteps = %d, want %d", v.e.Stats().ProgSteps, opts.Depth)
	}

	// The per-hop baseline pays one round trip per node.
	v2 := newChainEnv(t, opts, model.SoftwarePRISM)
	var log []string
	c2 := NewChainClient(newRecIssuer(v2.cli.Connect(v2.nic), &log), v2.srv.Meta())
	v2.run(t, func(p *sim.Proc) {
		if _, err := c2.HopGet(tail); err != nil {
			t.Fatal(err)
		}
	})
	if l, d := tally(t, log, 0), int(opts.Depth); l.waits != d || l.oneSided != d || l.twoSided != 0 || l.ops != d {
		t.Fatalf("HopGet cost %+v, want %d one-sided round trips", l, opts.Depth)
	}
	if v2.e.Stats().ProgOps != 0 {
		t.Fatalf("hop walk counted %d programs", v2.e.Stats().ProgOps)
	}
}

func TestChainChaseResumesPastStepCap(t *testing.T) {
	// A chain deeper than MaxChaseSteps forces the cursor path: the first
	// CHASE exhausts its bound and the client resumes from the returned
	// pointer cell.
	depth := int64(prism.MaxChaseSteps + 16)
	opts := ChainOptions{Buckets: 1, Depth: depth, MaxValue: 8}
	v := newChainEnv(t, opts, model.SoftwarePRISM)
	c := v.client()
	v.run(t, func(p *sim.Proc) {
		got, err := c.ChaseGet(depth - 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, chainValue(depth-1)) {
			t.Fatal("wrong value after resume")
		}
	})
	if v.e.Stats().ProgOps != 2 {
		t.Fatalf("ProgOps = %d, want 2 (step-capped + resume)", v.e.Stats().ProgOps)
	}
	if v.e.Stats().ProgSteps != depth {
		t.Fatalf("ProgSteps = %d, want %d (no revisits)", v.e.Stats().ProgSteps, depth)
	}
}

func TestChainChaseLatencyBeatsHopsAtDepth4(t *testing.T) {
	// The acceptance shape at one point: at depth >= 4 the one-round-trip
	// program beats the per-hop loop even though it pays per-step NIC cost.
	opts := ChainOptions{Buckets: 1, Depth: 4, MaxValue: 16}
	key := opts.Depth - 1

	v1 := newChainEnv(t, opts, model.SoftwarePRISM)
	c1 := v1.client()
	var chase sim.Duration
	v1.run(t, func(p *sim.Proc) {
		start := p.Now()
		if _, err := c1.ChaseGet(key); err != nil {
			t.Fatal(err)
		}
		chase = p.Now().Sub(start)
	})

	v2 := newChainEnv(t, opts, model.SoftwarePRISM)
	c2 := v2.client()
	var hops sim.Duration
	v2.run(t, func(p *sim.Proc) {
		start := p.Now()
		if _, err := c2.HopGet(key); err != nil {
			t.Fatal(err)
		}
		hops = p.Now().Sub(start)
	})

	if chase >= hops {
		t.Fatalf("depth-4 chase %v not faster than per-hop %v", chase, hops)
	}
	t.Logf("depth-4 tail lookup: chase=%v per-hop=%v", chase, hops)
}

func TestChaseRejectedOnHardwareRDMA(t *testing.T) {
	opts := ChainOptions{Buckets: 1, Depth: 2, MaxValue: 8}
	v := newChainEnv(t, opts, model.HardwareRDMA)
	c := v.client()
	v.run(t, func(p *sim.Proc) {
		if _, err := c.ChaseGet(0); err == nil {
			t.Fatal("CHASE succeeded on classic hardware RDMA")
		}
	})
}

func TestHashScanCollectsAllEntries(t *testing.T) {
	opts := DefaultOptions(32, 64)
	v := newKVEnv(t, opts, model.SoftwarePRISM)
	loaded := map[int64][]byte{}
	for k := int64(0); k < 32; k += 3 { // every third slot, gaps between
		loaded[k] = chainValue(k)
		if err := v.srv.Load(k, loaded[k]); err != nil {
			t.Fatal(err)
		}
	}
	c := v.client(1)
	v.run(t, func(p *sim.Proc) {
		got := map[int64][]byte{}
		for cursor := int64(0); cursor < opts.NSlots; {
			next, err := c.Scan(cursor, 256, func(key int64, value []byte) error {
				got[key] = append([]byte(nil), value...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if next <= cursor {
				t.Fatalf("scan cursor stuck at %d", cursor)
			}
			cursor = next
		}
		if len(got) != len(loaded) {
			t.Fatalf("scanned %d entries, want %d", len(got), len(loaded))
		}
		for k, want := range loaded {
			if !bytes.Equal(got[k], want) {
				t.Fatalf("key %d: scanned %v, want %v", k, got[k], want)
			}
		}
	})
}

// --- Sim-vs-live byte identity for the program opcodes ---

// abResult is one issued op's observable outcome, with Data copied out
// of transport-owned storage.
type abResult struct {
	Status wire.Status
	Addr   memory.Addr
	Data   []byte
}

func copyResult(r wire.Result) abResult {
	return abResult{Status: r.Status, Addr: r.Addr, Data: append([]byte(nil), r.Data...)}
}

// TestProgramSimLiveByteIdentity builds identical stores on the
// simulated NIC and a live socket server, issues identical CHASE/SCAN
// wire ops through both, and requires bitwise-identical results —
// status, cursor address, and payload bytes. This is the A/B that keeps
// the two executors' program semantics from drifting.
func TestProgramSimLiveByteIdentity(t *testing.T) {
	kvOpts := DefaultOptions(32, 64)
	chOpts := ChainOptions{Buckets: 2, Depth: 6, MaxValue: 16}
	loadKV := func(load func(k int64, v []byte) error) {
		for k := int64(0); k < 20; k++ {
			if err := load(k, chainValue(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	loadChain := func(load func(k int64, v []byte) error) {
		for k := int64(0); k < chOpts.Buckets*chOpts.Depth; k++ {
			if err := load(k, chainValue(k)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Sim servers.
	simKV := newKVEnv(t, kvOpts, model.SoftwarePRISM)
	loadKV(simKV.srv.Load)
	simChain := newChainEnv(t, chOpts, model.SoftwarePRISM)
	meta, chainMeta := simKV.srv.Meta(), simChain.srv.Meta()

	// Live servers, one per store, each serving a unix socket.
	startLive := func(provision func(*transport.Server)) *transport.Conn {
		t.Helper()
		ts := transport.NewServer()
		provision(ts)
		tc, err := transport.Dial(serveUnix(t, ts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tc.Close() })
		conn, err := tc.Connect()
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	kvConn := startLive(func(ts *transport.Server) {
		srv, err := NewServerOn(ts, kvOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(srv.Meta(), meta) {
			t.Fatalf("live kv meta %+v != sim %+v", srv.Meta(), meta)
		}
		loadKV(srv.Load)
	})
	chainConn := startLive(func(ts *transport.Server) {
		srv, err := NewChainStoreOn(ts, chOpts)
		if err != nil {
			t.Fatal(err)
		}
		if srv.Meta() != chainMeta {
			t.Fatalf("live chain meta %+v != sim %+v", srv.Meta(), chainMeta)
		}
		loadChain(srv.Load)
	})

	// The op set: budget-windowed scans of the table, a CHASE of kind 1
	// over it (both executors NAK it), list-chase hits and a step-limited
	// list chase.
	var match [8]byte
	scanOp := func(start int64, budget uint64) wire.Op {
		return prism.Scan(meta.Key, meta.HashBase, meta.appendScanProg(nil, start), budget)
	}
	listOp := func(key int64, maxSteps uint8) wire.Op {
		prism.PutBE64(match[:], 0, uint64(key))
		p := prism.Program{Kind: prism.ProgChaseList, MaxSteps: maxSteps,
			MatchOff: chainNodeKey, NextOff: chainNodeNext}
		prog := prism.AppendProgram(nil, &p, match[:])
		bucket := key / chOpts.Depth
		return prism.Chase(chainMeta.Key, chainMeta.headAddr(bucket), prog, wire.CASEq, nil, chainMeta.nodeSize())
	}
	kind1 := prism.Program{Kind: 1, MaxSteps: 4, MatchOff: entryHeader, NextOff: 8, Stride: slotSize,
		NSlots: uint64(meta.NSlots)}
	kvOps := []wire.Op{
		prism.Chase(meta.Key, meta.HashBase, prism.AppendProgram(nil, &kind1, match[:]), wire.CASEq, nil, entrySize(meta.MaxValue)),
		scanOp(0, 256),
		scanOp(11, 512),
		scanOp(0, prism.MaxScanBudget),
	}
	chainOps := []wire.Op{
		listOp(chOpts.Depth-1, chainMeta.chaseSteps()),
		listOp(2*chOpts.Depth-1, chainMeta.chaseSteps()),
		listOp(chOpts.Depth-1, 2), // step-limited -> pointer-cell cursor
	}

	issueSim := func(cli *rdma.Client, nic *rdma.Server, e *sim.Engine, ops []wire.Op) []abResult {
		conn := cli.Connect(nic)
		out := make([]abResult, 0, len(ops))
		e.Go("ab", func(p *sim.Proc) {
			for i := range ops {
				batch := conn.Ops(1)
				batch[0] = ops[i]
				res, _ := conn.Issue(batch)
				out = append(out, copyResult(res[0]))
			}
		})
		e.Run()
		return out
	}
	issueLive := func(conn *transport.Conn, ops []wire.Op) []abResult {
		out := make([]abResult, 0, len(ops))
		for i := range ops {
			batch := conn.Ops(1)
			batch[0] = ops[i]
			res, err := conn.Issue(batch)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, copyResult(res[0]))
		}
		return out
	}

	simRes := issueSim(simKV.cli, simKV.nic, simKV.e, kvOps)
	liveRes := issueLive(kvConn, kvOps)
	for i := range kvOps {
		if !reflect.DeepEqual(simRes[i], liveRes[i]) {
			t.Errorf("kv op %d: sim %+v != live %+v", i, simRes[i], liveRes[i])
		}
	}
	if simRes[0].Status != wire.StatusNAKAccess {
		t.Errorf("a CHASE of kind 1 ended %v, want NAK_ACCESS", simRes[0].Status)
	}
	simChainRes := issueSim(simChain.cli, simChain.nic, simChain.e, chainOps)
	liveChainRes := issueLive(chainConn, chainOps)
	for i := range chainOps {
		if !reflect.DeepEqual(simChainRes[i], liveChainRes[i]) {
			t.Errorf("chain op %d: sim %+v != live %+v", i, simChainRes[i], liveChainRes[i])
		}
	}
}

// serveUnix serves ts on a unix socket in a fresh temp dir until the test
// ends and returns the socket's address.
func serveUnix(t testing.TB, ts *transport.Server) string {
	t.Helper()
	l, err := net.Listen("unix", filepath.Join(t.TempDir(), "prism.sock"))
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ts.Serve(l) }()
	t.Cleanup(func() {
		ts.Shutdown(2 * time.Second)
		<-serveErr
	})
	return l.Addr().String()
}

// TestLiveChaseBeatsHopWalk is the live half of the fig-chase claim: over
// a real unix socket, one CHASE round trip per depth-8 tail lookup takes
// less wall time than the per-hop walk's eight. The walk pays 8x the
// round trips, so the comparison has a wide margin on any host.
func TestLiveChaseBeatsHopWalk(t *testing.T) {
	opts := ChainOptions{Buckets: 16, Depth: 8, MaxValue: 16}
	ts := transport.NewServer()
	srv, err := NewChainStoreOn(ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < opts.Buckets*opts.Depth; k++ {
		if err := srv.Load(k, chainValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	var meta ChainMeta
	tc, conn, err := transport.DialMeta(serveUnix(t, ts), "chain", &meta)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChainClient(conn, meta)
	defer tc.Close()

	const lookups = 256
	walk := func(get func(int64) ([]byte, error)) time.Duration {
		start := time.Now()
		for i := int64(0); i < lookups; i++ {
			tail := (i%opts.Buckets)*opts.Depth + opts.Depth - 1
			v, err := get(tail)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v, chainValue(tail)) {
				t.Fatalf("key %d = %x", tail, v)
			}
		}
		return time.Since(start)
	}
	walk(c.ChaseGet) // warm the window, scratch and framers
	walk(c.HopGet)
	chase, hops := walk(c.ChaseGet), walk(c.HopGet)
	var log []string
	walk(NewChainClient(newRecIssuer(conn, &log), meta).HopGet)
	if l := tally(t, log, 0); l.waits != lookups*int(opts.Depth) {
		t.Fatalf("%d per-hop walks took %d round trips, want %d", lookups, l.waits, lookups*opts.Depth)
	}
	if chase >= hops {
		t.Fatalf("depth-8 chase %v not faster than per-hop walk %v", chase, hops)
	}
	t.Logf("%d depth-8 tail lookups: chase=%v per-hop=%v", lookups, chase, hops)
}
