package abd

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"math/rand"

	"prism/internal/check"
	"prism/internal/fabric"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
)

func TestTagPacking(t *testing.T) {
	tg := MakeTag(123456, 789)
	if tg.TS() != 123456 || tg.Client() != 789 {
		t.Fatalf("tag roundtrip: %v", tg)
	}
	if tg.Next(7).TS() != 123457 || tg.Next(7).Client() != 7 {
		t.Fatalf("Next: %v", tg.Next(7))
	}
}

// Property: packed-tag comparison equals lexicographic (ts, id) order.
func TestQuickTagOrder(t *testing.T) {
	f := func(ts1, ts2 uint32, id1, id2 uint16) bool {
		a := MakeTag(uint64(ts1), id1)
		b := MakeTag(uint64(ts2), id2)
		lex := ts1 < ts2 || (ts1 == ts2 && id1 < id2)
		return (a < b) == lex
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// cluster builds n PRISM-RS replicas plus a client machine.
type cluster struct {
	e        *sim.Engine
	net      *fabric.Network
	nics     []*rdma.Server // one per replica, PRISM-RS or ABDLOCK
	replicas []*Replica
	cliNIC   []*rdma.Client // one per client machine
}

func newCluster(t *testing.T, nReplicas int, opts ReplicaOptions, deploy model.Deployment, clientMachines int) *cluster {
	t.Helper()
	p := model.Default().WithNetwork(model.Rack)
	e := sim.NewEngine(5)
	net := fabric.New(e, p)
	c := &cluster{e: e, net: net}
	for i := 0; i < nReplicas; i++ {
		nic := rdma.NewServer(net, fmt.Sprintf("replica-%d", i), deploy)
		r, err := NewReplica(nic, opts)
		if err != nil {
			t.Fatal(err)
		}
		c.nics, c.replicas = append(c.nics, nic), append(c.replicas, r)
	}
	for i := 0; i < clientMachines; i++ {
		c.cliNIC = append(c.cliNIC, rdma.NewClient(net, fmt.Sprintf("cli-%d", i)))
	}
	return c
}

func (c *cluster) client(id uint16, machine int) *Client {
	conns := make([]*rdma.Conn, len(c.replicas))
	metas := make([]Meta, len(c.replicas))
	for i, r := range c.replicas {
		conns[i] = c.cliNIC[machine].Connect(c.nics[i])
		metas[i] = r.Meta()
	}
	return NewClient(id, transport.Issuers(conns), metas)
}

func TestPutGetSingleClient(t *testing.T) {
	cl := newCluster(t, 3, ReplicaOptions{NBlocks: 8, BlockSize: 32, ExtraBuffers: 64}, model.SoftwarePRISM, 1)
	c := cl.client(1, 0)
	cl.e.Go("t", func(p *sim.Proc) {
		val := bytes.Repeat([]byte{7}, 32)
		if err := c.Put(3, val); err != nil {
			t.Error(err)
			return
		}
		got, err := c.Get(3)
		if err != nil || !bytes.Equal(got, val) {
			t.Errorf("get: %v, %v", got, err)
		}
		// Initial (never-written) block reads as zeros at tag (1,0).
		tag, got, err := c.GetT(0)
		if err != nil || tag != MakeTag(1, 0) || !bytes.Equal(got, make([]byte, 32)) {
			t.Errorf("initial block: tag=%v err=%v", tag, err)
		}
	})
	cl.e.Run()
}

func TestGetWritesBack(t *testing.T) {
	// After a partial write (f+1 of n), a GET must propagate the value so
	// that it survives the failure of the original writers' quorum. We
	// simulate by checking replica state after the GET: at least f+1
	// replicas hold the latest tag.
	cl := newCluster(t, 3, ReplicaOptions{NBlocks: 4, BlockSize: 16, ExtraBuffers: 64}, model.SoftwarePRISM, 1)
	w := cl.client(1, 0)
	r := cl.client(2, 0)
	cl.e.Go("t", func(p *sim.Proc) {
		val := bytes.Repeat([]byte{9}, 16)
		tag, err := w.PutT(1, val)
		if err != nil {
			t.Error(err)
			return
		}
		if _, _, err := r.GetT(1); err != nil {
			t.Error(err)
			return
		}
		// Allow in-flight chain completions at the straggler replica.
		p.Sleep(time.Millisecond)
		holders := 0
		for i, rep := range cl.replicas {
			m := rep.Meta()
			entry, err := cl.nics[i].Space().Read(m.Key, m.entryAddr(1), metaSize)
			if err != nil {
				t.Error(err)
				return
			}
			if Tag(beU64(entry)) >= tag {
				holders++
			}
		}
		if holders < 2 {
			t.Errorf("latest tag at %d replicas, want >= 2", holders)
		}
	})
	cl.e.Run()
}

func beU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestSurvivesFMinorityFailure(t *testing.T) {
	// With one of three replicas unresponsive, GETs and PUTs still
	// complete (quorum f+1 = 2). We model failure by a replica whose NIC
	// drops every message (handler swallows requests).
	cl := newCluster(t, 3, ReplicaOptions{NBlocks: 4, BlockSize: 16, ExtraBuffers: 64}, model.SoftwarePRISM, 1)
	// Kill replica 2: replace its fabric handler with a sink.
	cl.nics[2].Node().SetHandler(func(fabric.Message) {})
	c := cl.client(1, 0)
	var done bool
	cl.e.Go("t", func(p *sim.Proc) {
		val := bytes.Repeat([]byte{3}, 16)
		if err := c.Put(0, val); err != nil {
			t.Error(err)
			return
		}
		got, err := c.Get(0)
		if err != nil || !bytes.Equal(got, val) {
			t.Errorf("get under failure: %v %v", got, err)
			return
		}
		done = true
	})
	cl.e.Run()
	if !done {
		t.Fatal("operations did not complete with f=1 failure")
	}
}

func TestBlockIndexValidation(t *testing.T) {
	cl := newCluster(t, 3, ReplicaOptions{NBlocks: 4, BlockSize: 16, ExtraBuffers: 8}, model.SoftwarePRISM, 1)
	c := cl.client(1, 0)
	cl.e.Go("t", func(p *sim.Proc) {
		if _, err := c.Get(99); err != ErrBadBlock {
			t.Errorf("oob get: %v", err)
		}
		if err := c.Put(-1, make([]byte, 16)); err != ErrBadBlock {
			t.Errorf("oob put: %v", err)
		}
		if err := c.Put(0, make([]byte, 7)); err == nil {
			t.Error("wrong-size put accepted")
		}
	})
	cl.e.Run()
}

// runConcurrentHistory drives nClients concurrent clients doing random
// reads/writes on a few hot blocks and checks linearizability.
func runConcurrentHistory(t *testing.T, makeClient func(cl *cluster, id uint16) interface {
	GetT(int64) (Tag, []byte, error)
	PutT(int64, []byte) (Tag, error)
}, cl *cluster, nClients, opsPerClient int) {
	t.Helper()
	hist := check.NewMultiRegisterHistory()
	for i := 0; i < nClients; i++ {
		id := uint16(i + 1)
		c := makeClient(cl, id)
		rng := rand.New(rand.NewSource(int64(id) * 97))
		cl.e.Go(fmt.Sprintf("c%d", id), func(p *sim.Proc) {
			for n := 0; n < opsPerClient; n++ {
				block := int64(rng.Intn(2)) // hot blocks: maximize races
				invoke := p.Now()
				if rng.Intn(2) == 0 {
					tag, _, err := c.GetT(block)
					if err != nil {
						t.Errorf("client %d get: %v", id, err)
						return
					}
					hist.Add(block, check.RegisterOp{Tag: uint64(tag), Invoke: invoke, Respond: p.Now(), Client: int(id)})
				} else {
					val := make([]byte, 16)
					rng.Read(val)
					tag, err := c.PutT(block, val)
					if err != nil {
						t.Errorf("client %d put: %v", id, err)
						return
					}
					hist.Add(block, check.RegisterOp{IsWrite: true, Tag: uint64(tag), Invoke: invoke, Respond: p.Now(), Client: int(id)})
				}
			}
		})
	}
	cl.e.Run()
	if hist.Ops() < nClients*opsPerClient {
		t.Fatalf("recorded %d ops, want %d", hist.Ops(), nClients*opsPerClient)
	}
	if err := hist.Check(uint64(MakeTag(1, 0))); err != nil {
		t.Fatalf("linearizability violation: %v", err)
	}
}

func TestPRISMRSLinearizable(t *testing.T) {
	cl := newCluster(t, 3, ReplicaOptions{NBlocks: 4, BlockSize: 16, ExtraBuffers: 4096}, model.SoftwarePRISM, 2)
	runConcurrentHistory(t, func(cl *cluster, id uint16) interface {
		GetT(int64) (Tag, []byte, error)
		PutT(int64, []byte) (Tag, error)
	} {
		return cl.client(id, int(id)%2)
	}, cl, 8, 60)
}

// lockCluster builds ABDLOCK replicas.
func newLockCluster(t *testing.T, nReplicas int, nBlocks int64, blockSize int, deploy model.Deployment, clientMachines int) (*cluster, []*LockReplica) {
	t.Helper()
	p := model.Default().WithNetwork(model.Rack)
	e := sim.NewEngine(6)
	net := fabric.New(e, p)
	c := &cluster{e: e, net: net}
	var reps []*LockReplica
	for i := 0; i < nReplicas; i++ {
		nic := rdma.NewServer(net, fmt.Sprintf("lockrep-%d", i), deploy)
		r, err := NewLockReplica(nic, nBlocks, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		c.nics, reps = append(c.nics, nic), append(reps, r)
	}
	for i := 0; i < clientMachines; i++ {
		c.cliNIC = append(c.cliNIC, rdma.NewClient(net, fmt.Sprintf("cli-%d", i)))
	}
	return c, reps
}

func lockClient(cl *cluster, reps []*LockReplica, id uint16, machine int) *LockClient {
	conns := make([]*rdma.Conn, len(reps))
	metas := make([]LockMeta, len(reps))
	for i, r := range reps {
		conns[i] = cl.cliNIC[machine].Connect(cl.nics[i])
		metas[i] = r.Meta()
	}
	rng := rand.New(rand.NewSource(int64(id)))
	return NewLockClient(id, transport.Issuers(conns), metas, rng.Float64)
}

func TestLockPutGet(t *testing.T) {
	cl, reps := newLockCluster(t, 3, 8, 32, model.HardwareRDMA, 1)
	c := lockClient(cl, reps, 1, 0)
	cl.e.Go("t", func(p *sim.Proc) {
		val := bytes.Repeat([]byte{5}, 32)
		if err := c.Put(2, val); err != nil {
			t.Error(err)
			return
		}
		got, err := c.Get(2)
		if err != nil || !bytes.Equal(got, val) {
			t.Errorf("get: %v %v", got, err)
		}
	})
	cl.e.Run()
}

func TestLockLinearizable(t *testing.T) {
	cl, reps := newLockCluster(t, 3, 4, 16, model.HardwareRDMA, 2)
	runConcurrentHistory(t, func(cl *cluster, id uint16) interface {
		GetT(int64) (Tag, []byte, error)
		PutT(int64, []byte) (Tag, error)
	} {
		return lockClient(cl, reps, id, int(id)%2)
	}, cl, 6, 40)
}

func TestLockContentionCausesRetries(t *testing.T) {
	cl, reps := newLockCluster(t, 3, 1, 16, model.HardwareRDMA, 2)
	var clients []*LockClient
	for i := 0; i < 8; i++ {
		c := lockClient(cl, reps, uint16(i+1), i%2)
		clients = append(clients, c)
		cl.e.Go(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			for n := 0; n < 20; n++ {
				if err := c.Put(0, make([]byte, 16)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		})
	}
	cl.e.Run()
	var retries int64
	for _, c := range clients {
		retries += c.LockRetries
	}
	if retries == 0 {
		t.Fatal("8 writers on one block produced zero lock retries")
	}
	t.Logf("lock retries: %d", retries)
}

func TestPRISMRSFasterThanLockUncontended(t *testing.T) {
	// Fig. 6's shape: PRISM-RS (2 round trips) beats ABDLOCK (4+) even
	// without contention.
	measure := func(run func(p *sim.Proc)) sim.Duration { return 0 }
	_ = measure

	cl1 := newCluster(t, 3, ReplicaOptions{NBlocks: 4, BlockSize: 64, ExtraBuffers: 128}, model.SoftwarePRISM, 1)
	c1 := cl1.client(1, 0)
	var prismLat sim.Duration
	cl1.e.Go("t", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 10; i++ {
			if err := c1.Put(0, make([]byte, 64)); err != nil {
				t.Error(err)
				return
			}
		}
		prismLat = p.Now().Sub(start) / 10
	})
	cl1.e.Run()

	cl2, reps := newLockCluster(t, 3, 4, 64, model.HardwareRDMA, 1)
	c2 := lockClient(cl2, reps, 1, 0)
	var lockLat sim.Duration
	cl2.e.Go("t", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 10; i++ {
			if err := c2.Put(0, make([]byte, 64)); err != nil {
				t.Error(err)
				return
			}
		}
		lockLat = p.Now().Sub(start) / 10
	})
	cl2.e.Run()

	if prismLat >= lockLat {
		t.Fatalf("PRISM-RS put %v not faster than ABDLOCK %v", prismLat, lockLat)
	}
	t.Logf("uncontended PUT: PRISM-RS=%v ABDLOCK(HW)=%v", prismLat, lockLat)
}

func TestVariableSizeBlocks(t *testing.T) {
	p := model.Default().WithNetwork(model.Rack)
	e := sim.NewEngine(31)
	net := fabric.New(e, p)
	cl := &cluster{e: e, net: net}
	for i := 0; i < 3; i++ {
		nic := rdma.NewServer(net, fmt.Sprintf("replica-%d", i), model.SoftwarePRISM)
		r, err := NewReplica(nic, ReplicaOptions{
			NBlocks: 8, BlockSize: 256, ExtraBuffers: 64, VariableSize: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.nics, cl.replicas = append(cl.nics, nic), append(cl.replicas, r)
	}
	cl.cliNIC = append(cl.cliNIC, rdma.NewClient(net, "cli"))
	c := cl.client(1, 0)
	cl.e.Go("t", func(p *sim.Proc) {
		// Values of different lengths round-trip exactly.
		for _, val := range [][]byte{
			[]byte("x"),
			[]byte("a medium sized value"),
			bytes.Repeat([]byte{9}, 256),
		} {
			if err := c.Put(2, val); err != nil {
				t.Errorf("put %d bytes: %v", len(val), err)
				return
			}
			got, err := c.Get(2)
			if err != nil || !bytes.Equal(got, val) {
				t.Errorf("get after %d-byte put: got %d bytes, err %v", len(val), len(got), err)
				return
			}
		}
		// Oversized values are rejected.
		if err := c.Put(2, make([]byte, 257)); err != ErrTooLarge {
			t.Errorf("oversized put: %v", err)
		}
		// Initial (unwritten) block reads back as the full-size zero value.
		got, err := c.Get(0)
		if err != nil || len(got) != 256 {
			t.Errorf("initial block: %d bytes, %v", len(got), err)
		}
	})
	cl.e.Run()
}

func TestVariableSizeLinearizable(t *testing.T) {
	p := model.Default().WithNetwork(model.Rack)
	e := sim.NewEngine(32)
	net := fabric.New(e, p)
	cl := &cluster{e: e, net: net}
	for i := 0; i < 3; i++ {
		nic := rdma.NewServer(net, fmt.Sprintf("replica-%d", i), model.SoftwarePRISM)
		r, err := NewReplica(nic, ReplicaOptions{
			NBlocks: 2, BlockSize: 64, ExtraBuffers: 4096, VariableSize: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.nics, cl.replicas = append(cl.nics, nic), append(cl.replicas, r)
	}
	cl.cliNIC = append(cl.cliNIC, rdma.NewClient(net, "cli-0"), rdma.NewClient(net, "cli-1"))
	runConcurrentHistory(t, func(cl *cluster, id uint16) interface {
		GetT(int64) (Tag, []byte, error)
		PutT(int64, []byte) (Tag, error)
	} {
		return cl.client(id, int(id)%2)
	}, cl, 6, 40)
}

func TestFiveReplicasToleratesTwoFailures(t *testing.T) {
	// n=5, f=2: operations survive two dead replicas and remain
	// linearizable under concurrency.
	cl := newCluster(t, 5, ReplicaOptions{NBlocks: 4, BlockSize: 16, ExtraBuffers: 2048}, model.SoftwarePRISM, 2)
	cl.nics[1].Node().SetHandler(func(fabric.Message) {})
	cl.nics[4].Node().SetHandler(func(fabric.Message) {})
	runConcurrentHistory(t, func(cl *cluster, id uint16) interface {
		GetT(int64) (Tag, []byte, error)
		PutT(int64, []byte) (Tag, error)
	} {
		return cl.client(id, int(id)%2)
	}, cl, 4, 25)
}

func TestEvenReplicaCountRejected(t *testing.T) {
	cl := newCluster(t, 3, ReplicaOptions{NBlocks: 1, BlockSize: 16, ExtraBuffers: 8}, model.SoftwarePRISM, 1)
	conns := make([]*rdma.Conn, 2)
	metas := make([]Meta, 2)
	for i := 0; i < 2; i++ {
		conns[i] = cl.cliNIC[0].Connect(cl.nics[i])
		metas[i] = cl.replicas[i].Meta()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("even replica count accepted")
		}
	}()
	NewClient(1, transport.Issuers(conns), metas)
}
