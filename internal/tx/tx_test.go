package tx

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"prism/internal/check"
	"prism/internal/fabric"
	"prism/internal/kv"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
)

func TestTimestampPacking(t *testing.T) {
	ts := MakeTimestamp(99999, 1234)
	if ts.Clock() != 99999 || ts.Client() != 1234 {
		t.Fatalf("roundtrip: %v", ts)
	}
	if !(MakeTimestamp(2, 1) > MakeTimestamp(1, 9999)) {
		t.Fatal("clock must dominate client id")
	}
}

type txEnv struct {
	e      *sim.Engine
	net    *fabric.Network
	nics   []*rdma.Server // one per shard
	shards []*Shard
	cli    []*rdma.Client
}

func newTxEnv(t *testing.T, nShards int, opts ShardOptions, deploy model.Deployment, machines int) *txEnv {
	t.Helper()
	p := model.Default().WithNetwork(model.Rack)
	e := sim.NewEngine(8)
	net := fabric.New(e, p)
	v := &txEnv{e: e, net: net}
	for i := 0; i < nShards; i++ {
		nic := rdma.NewServer(net, fmt.Sprintf("shard-%d", i), deploy)
		s, err := NewShard(nic, opts)
		if err != nil {
			t.Fatal(err)
		}
		v.nics, v.shards = append(v.nics, nic), append(v.shards, s)
	}
	for i := 0; i < machines; i++ {
		v.cli = append(v.cli, rdma.NewClient(net, fmt.Sprintf("cli-%d", i)))
	}
	return v
}

func (v *txEnv) load(t *testing.T, keys int64, valueSize int) {
	t.Helper()
	for k := int64(0); k < keys; k++ {
		sh := int(k % int64(len(v.shards)))
		val := make([]byte, valueSize)
		val[0] = byte(k)
		if err := v.shards[sh].Load(k, val); err != nil {
			t.Fatal(err)
		}
	}
}

func (v *txEnv) client(id uint16, machine int) *Client {
	conns := make([]*rdma.Conn, len(v.shards))
	metas := make([]Meta, len(v.shards))
	for i, s := range v.shards {
		conns[i] = v.cli[machine].Connect(v.nics[i])
		metas[i] = s.Meta()
	}
	return NewClient(id, transport.Issuers(conns), metas)
}

func TestReadCommitted(t *testing.T) {
	v := newTxEnv(t, 1, ShardOptions{NSlots: 16, MaxValue: 64, ExtraBuffers: 64}, model.SoftwarePRISM, 1)
	v.load(t, 8, 32)
	c := v.client(1, 0)
	v.e.Go("t", func(p *sim.Proc) {
		tx := c.Begin()
		val, err := tx.Read(3)
		if err != nil {
			t.Error(err)
			return
		}
		if val[0] != 3 {
			t.Errorf("read %v", val[0])
		}
		if _, err := tx.Commit(); err != nil {
			t.Errorf("read-only commit: %v", err)
		}
	})
	v.e.Run()
}

func TestReadMissingKey(t *testing.T) {
	v := newTxEnv(t, 1, ShardOptions{NSlots: 16, MaxValue: 64, ExtraBuffers: 64}, model.SoftwarePRISM, 1)
	c := v.client(1, 0)
	v.e.Go("t", func(p *sim.Proc) {
		tx := c.Begin()
		if _, err := tx.Read(5); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing key: %v", err)
		}
	})
	v.e.Run()
}

func TestRMWCommitAndReadBack(t *testing.T) {
	v := newTxEnv(t, 1, ShardOptions{NSlots: 16, MaxValue: 64, ExtraBuffers: 64}, model.SoftwarePRISM, 1)
	v.load(t, 8, 32)
	c := v.client(1, 0)
	v.e.Go("t", func(p *sim.Proc) {
		tx := c.Begin()
		old, err := tx.Read(2)
		if err != nil {
			t.Error(err)
			return
		}
		newVal := append([]byte(nil), old...)
		newVal[1] = 0xEE
		tx.Write(2, newVal)
		// Read-your-writes within the transaction.
		got, _ := tx.Read(2)
		if !bytes.Equal(got, newVal) {
			t.Error("read-your-writes failed")
		}
		ts, err := tx.Commit()
		if err != nil {
			t.Errorf("commit: %v", err)
			return
		}
		if ts == 0 {
			t.Error("zero commit timestamp")
		}
		// A following transaction reads the new value at version ts.
		tx2 := c.Begin()
		got2, err := tx2.Read(2)
		if err != nil || !bytes.Equal(got2, newVal) {
			t.Errorf("after commit: %v %v", got2, err)
		}
		if tx2.reads[2] != ts {
			t.Errorf("read version %v, want %v", tx2.reads[2], ts)
		}
	})
	v.e.Run()
}

func TestMultiKeyMultiShard(t *testing.T) {
	v := newTxEnv(t, 3, ShardOptions{NSlots: 16, MaxValue: 64, ExtraBuffers: 64}, model.SoftwarePRISM, 1)
	v.load(t, 12, 32)
	c := v.client(1, 0)
	v.e.Go("t", func(p *sim.Proc) {
		tx := c.Begin()
		// Keys 0,1,2 land on shards 0,1,2.
		var vals [3][]byte
		for k := int64(0); k < 3; k++ {
			val, err := tx.Read(k)
			if err != nil {
				t.Error(err)
				return
			}
			vals[k] = val
		}
		for k := int64(0); k < 3; k++ {
			nv := append([]byte(nil), vals[k]...)
			nv[2] = 0x77
			tx.Write(k, nv)
		}
		if _, err := tx.Commit(); err != nil {
			t.Errorf("multi-shard commit: %v", err)
			return
		}
		tx2 := c.Begin()
		for k := int64(0); k < 3; k++ {
			got, err := tx2.Read(k)
			if err != nil || got[2] != 0x77 {
				t.Errorf("key %d after commit: %v %v", k, got, err)
			}
		}
	})
	v.e.Run()
}

func TestConflictingRMWsSerializable(t *testing.T) {
	v := newTxEnv(t, 1, ShardOptions{NSlots: 4, MaxValue: 32, ExtraBuffers: 8192}, model.SoftwarePRISM, 2)
	v.load(t, 2, 16)
	var committed []check.CommittedTx
	var aborts int64
	const nClients, txPerClient = 8, 40
	for i := 0; i < nClients; i++ {
		id := uint16(i + 1)
		c := v.client(id, i%2)
		rng := rand.New(rand.NewSource(int64(id) * 131))
		v.e.Go(fmt.Sprintf("c%d", id), func(p *sim.Proc) {
			for n := 0; n < txPerClient; n++ {
				key := int64(rng.Intn(2))
				tx := c.Begin()
				_, err := tx.Read(key)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				rc := tx.reads[key]
				val := make([]byte, 16)
				rng.Read(val)
				tx.Write(key, val)
				ts, err := tx.Commit()
				if errors.Is(err, ErrAborted) {
					aborts++
					continue
				}
				if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				committed = append(committed, check.CommittedTx{
					TS:       uint64(ts),
					Reads:    map[int64]uint64{key: uint64(rc)},
					Writes:   map[int64]uint64{key: uint64(ts)},
					ClientID: int(id),
				})
			}
		})
	}
	v.e.Run()
	if len(committed) == 0 {
		t.Fatal("nothing committed")
	}
	if aborts == 0 {
		t.Fatal("8 clients on 2 keys produced no aborts (no contention exercised)")
	}
	if err := check.CheckSerializable(committed, uint64(InitialVersion)); err != nil {
		t.Fatalf("TS-order serializability: %v", err)
	}
	if err := check.CheckConflictSerializable(committed, uint64(InitialVersion)); err != nil {
		t.Fatalf("conflict serializability: %v", err)
	}
	t.Logf("committed=%d aborted=%d", len(committed), aborts)
}

func TestAbortsDoNotBlockWriters(t *testing.T) {
	// After an abort bumps PW, later writers (with fresh timestamps) must
	// still commit.
	v := newTxEnv(t, 1, ShardOptions{NSlots: 4, MaxValue: 32, ExtraBuffers: 256}, model.SoftwarePRISM, 1)
	v.load(t, 1, 16)
	a := v.client(1, 0)
	b := v.client(2, 0)
	v.e.Go("t", func(p *sim.Proc) {
		// Interleave two RMWs on the same key synchronously: read both,
		// then commit both — the second to validate must abort.
		t1, t2 := a.Begin(), b.Begin()
		t1.Read(0)
		t2.Read(0)
		t1.Write(0, make([]byte, 16))
		t2.Write(0, make([]byte, 16))
		_, err1 := t1.Commit()
		_, err2 := t2.Commit()
		if (err1 == nil) == (err2 == nil) {
			t.Errorf("exactly one should commit: err1=%v err2=%v", err1, err2)
		}
		// A fresh RMW must succeed despite the bumped PW.
		t3 := b.Begin()
		if _, err := t3.Read(0); err != nil {
			t.Error(err)
			return
		}
		t3.Write(0, make([]byte, 16))
		if _, err := t3.Commit(); err != nil {
			t.Errorf("post-abort RMW: %v", err)
		}
	})
	v.e.Run()
}

// --- FaRM ---

type farmEnv struct {
	e       *sim.Engine
	nics    []*rdma.Server // one per server
	servers []*FarmServer
	cli     []*rdma.Client
}

func newFarmEnv(t *testing.T, nShards int, opts ShardOptions, deploy model.Deployment, machines int) *farmEnv {
	t.Helper()
	p := model.Default().WithNetwork(model.Rack)
	e := sim.NewEngine(9)
	net := fabric.New(e, p)
	v := &farmEnv{e: e}
	for i := 0; i < nShards; i++ {
		nic := rdma.NewServer(net, fmt.Sprintf("farm-%d", i), deploy)
		s, err := NewFarmServer(nic, opts)
		if err != nil {
			t.Fatal(err)
		}
		v.nics, v.servers = append(v.nics, nic), append(v.servers, s)
	}
	for i := 0; i < machines; i++ {
		v.cli = append(v.cli, rdma.NewClient(net, fmt.Sprintf("cli-%d", i)))
	}
	return v
}

func (v *farmEnv) load(t *testing.T, keys int64, valueSize int) {
	t.Helper()
	for k := int64(0); k < keys; k++ {
		sh := int(k % int64(len(v.servers)))
		val := make([]byte, valueSize)
		val[0] = byte(k)
		if err := v.servers[sh].Load(k, val); err != nil {
			t.Fatal(err)
		}
	}
}

func (v *farmEnv) client(id uint16, machine int) *FarmClient {
	conns := make([]*rdma.Conn, len(v.servers))
	metas := make([]FarmMeta, len(v.servers))
	for i, s := range v.servers {
		conns[i] = v.cli[machine].Connect(v.nics[i])
		metas[i] = s.Meta()
	}
	return NewFarmClient(id, transport.Issuers(conns), metas)
}

func TestFarmRMWCommit(t *testing.T) {
	v := newFarmEnv(t, 1, ShardOptions{NSlots: 16, MaxValue: 64}, model.HardwareRDMA, 1)
	v.load(t, 8, 32)
	c := v.client(1, 0)
	v.e.Go("t", func(p *sim.Proc) {
		tx := c.Begin()
		old, err := tx.Read(4)
		if err != nil {
			t.Error(err)
			return
		}
		nv := append([]byte(nil), old...)
		nv[1] = 0xAB
		tx.Write(4, nv)
		if _, err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
			return
		}
		tx2 := c.Begin()
		got, err := tx2.Read(4)
		if err != nil || got[1] != 0xAB {
			t.Errorf("after commit: %v %v", got, err)
		}
	})
	v.e.Run()
}

func TestFarmConflictAborts(t *testing.T) {
	v := newFarmEnv(t, 1, ShardOptions{NSlots: 4, MaxValue: 32}, model.HardwareRDMA, 1)
	v.load(t, 1, 16)
	a, b := v.client(1, 0), v.client(2, 0)
	v.e.Go("t", func(p *sim.Proc) {
		t1, t2 := a.Begin(), b.Begin()
		t1.Read(0)
		t2.Read(0)
		t1.Write(0, make([]byte, 16))
		t2.Write(0, make([]byte, 16))
		_, err1 := t1.Commit()
		_, err2 := t2.Commit()
		if (err1 == nil) == (err2 == nil) {
			t.Errorf("exactly one should commit: %v %v", err1, err2)
		}
		// Locks must be released: a retry commits.
		t3 := a.Begin()
		if _, err := t3.Read(0); err != nil {
			t.Error(err)
			return
		}
		t3.Write(0, make([]byte, 16))
		if _, err := t3.Commit(); err != nil {
			t.Errorf("retry after conflict: %v (lock leak?)", err)
		}
	})
	v.e.Run()
}

func TestFarmConcurrentSerializable(t *testing.T) {
	v := newFarmEnv(t, 1, ShardOptions{NSlots: 4, MaxValue: 32}, model.HardwareRDMA, 2)
	v.load(t, 2, 16)
	var committed []check.CommittedTx
	var aborts int64
	const nClients, txPerClient = 6, 30
	for i := 0; i < nClients; i++ {
		id := uint16(i + 1)
		c := v.client(id, i%2)
		rng := rand.New(rand.NewSource(int64(id) * 17))
		v.e.Go(fmt.Sprintf("c%d", id), func(p *sim.Proc) {
			for n := 0; n < txPerClient; n++ {
				key := int64(rng.Intn(2))
				tx := c.Begin()
				_, err := tx.Read(key)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				rv := tx.reads[key].version
				val := make([]byte, 16)
				rng.Read(val)
				tx.Write(key, val)
				ts, err := tx.Commit()
				if errors.Is(err, ErrAborted) {
					aborts++
					continue
				}
				if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				committed = append(committed, check.CommittedTx{
					TS:       uint64(ts),
					Reads:    map[int64]uint64{key: uint64(rv)},
					Writes:   map[int64]uint64{key: uint64(ts)},
					ClientID: int(id),
				})
			}
		})
	}
	v.e.Run()
	if len(committed) == 0 || aborts == 0 {
		t.Fatalf("committed=%d aborts=%d; want both nonzero", len(committed), aborts)
	}
	if err := check.CheckConflictSerializable(committed, uint64(InitialVersion)); err != nil {
		t.Fatalf("conflict serializability: %v", err)
	}
	t.Logf("committed=%d aborted=%d", len(committed), aborts)
}

func TestPRISMTXFasterThanFarm(t *testing.T) {
	// Fig. 9's shape: PRISM-TX commits an RMW transaction ~5 µs faster
	// than FaRM (3 round trips without CPU vs 2 READs + 2 RPCs).
	v1 := newTxEnv(t, 1, ShardOptions{NSlots: 16, MaxValue: 64, ExtraBuffers: 256}, model.SoftwarePRISM, 1)
	v1.load(t, 8, 32)
	c1 := v1.client(1, 0)
	var prismLat sim.Duration
	v1.e.Go("t", func(p *sim.Proc) {
		start := p.Now()
		const n = 20
		for i := 0; i < n; i++ {
			tx := c1.Begin()
			old, err := tx.Read(int64(i % 8))
			if err != nil {
				t.Error(err)
				return
			}
			tx.Write(int64(i%8), old)
			if _, err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
		prismLat = p.Now().Sub(start) / 20
	})
	v1.e.Run()

	v2 := newFarmEnv(t, 1, ShardOptions{NSlots: 16, MaxValue: 64}, model.HardwareRDMA, 1)
	v2.load(t, 8, 32)
	c2 := v2.client(1, 0)
	var farmLat sim.Duration
	v2.e.Go("t", func(p *sim.Proc) {
		start := p.Now()
		const n = 20
		for i := 0; i < n; i++ {
			tx := c2.Begin()
			old, err := tx.Read(int64(i % 8))
			if err != nil {
				t.Error(err)
				return
			}
			tx.Write(int64(i%8), old)
			if _, err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
		farmLat = p.Now().Sub(start) / 20
	})
	v2.e.Run()

	if prismLat >= farmLat {
		t.Fatalf("PRISM-TX %v not faster than FaRM %v", prismLat, farmLat)
	}
	t.Logf("RMW txn latency: PRISM-TX=%v FaRM(HW)=%v", prismLat, farmLat)
}

func TestMultiKeyMultiShardSerializable(t *testing.T) {
	// 2-key transactions spanning 2 shards under concurrency: committed
	// history passes both oracles.
	v := newTxEnv(t, 2, ShardOptions{NSlots: 8, MaxValue: 32, ExtraBuffers: 8192}, model.SoftwarePRISM, 2)
	v.load(t, 4, 16)
	var committed []check.CommittedTx
	const nClients, txPerClient = 6, 25
	for i := 0; i < nClients; i++ {
		id := uint16(i + 1)
		c := v.client(id, i%2)
		rng := rand.New(rand.NewSource(int64(id) * 19))
		v.e.Go(fmt.Sprintf("c%d", id), func(p *sim.Proc) {
			for n := 0; n < txPerClient; n++ {
				k1 := int64(rng.Intn(4))
				k2 := int64(rng.Intn(4))
				for k2 == k1 {
					k2 = int64(rng.Intn(4))
				}
				for attempts := 0; attempts < 100; attempts++ {
					tx := c.Begin()
					reads := map[int64]uint64{}
					okRead := true
					for _, k := range []int64{k1, k2} {
						if _, err := tx.Read(k); err != nil {
							t.Errorf("read: %v", err)
							okRead = false
							break
						}
						reads[k] = uint64(tx.ReadVersion(k))
					}
					if !okRead {
						return
					}
					tx.Write(k1, make([]byte, 16))
					tx.Write(k2, make([]byte, 16))
					ts, err := tx.Commit()
					if errors.Is(err, ErrAborted) {
						continue
					}
					if err != nil {
						t.Errorf("commit: %v", err)
						return
					}
					committed = append(committed, check.CommittedTx{
						TS:    uint64(ts),
						Reads: reads,
						Writes: map[int64]uint64{
							k1: uint64(ts), k2: uint64(ts),
						},
						ClientID: int(id),
					})
					break
				}
			}
		})
	}
	v.e.Run()
	if len(committed) < 50 {
		t.Fatalf("only %d committed", len(committed))
	}
	// The TS-order oracle is the authoritative check for PRISM-TX (its
	// serialization order IS timestamp order, and the oracle understands
	// abort-time C bumps as committed no-op writes). The strict conflict
	// oracle is not applicable here: multi-key aborts bump C on keys whose
	// write check passed, and a later reader legitimately observes that
	// phantom version, which the strict oracle reports as a read of a
	// version nobody installed.
	if err := check.CheckSerializable(committed, uint64(InitialVersion)); err != nil {
		t.Fatalf("TS-order: %v", err)
	}
}

func TestReadOnlyTransactionsValidate(t *testing.T) {
	// A read-only transaction must still validate: if a writer commits
	// between its reads, it aborts rather than returning a non-serializable
	// snapshot. With no interference it commits.
	v := newTxEnv(t, 1, ShardOptions{NSlots: 8, MaxValue: 32, ExtraBuffers: 64}, model.SoftwarePRISM, 1)
	v.load(t, 2, 16)
	c := v.client(1, 0)
	w := v.client(2, 0)
	v.e.Go("t", func(p *sim.Proc) {
		// Quiet case: read-only commit succeeds.
		ro := c.Begin()
		ro.Read(0)
		ro.Read(1)
		if _, err := ro.Commit(); err != nil {
			t.Errorf("quiet read-only commit: %v", err)
		}
		// Interfering case: writer commits between the two reads of a
		// read-only transaction; doom detection or validation aborts it
		// unless its snapshot happens to still be consistent.
		ro2 := c.Begin()
		ro2.Read(0)
		wt := w.Begin()
		if _, err := wt.Read(0); err != nil {
			t.Error(err)
			return
		}
		wt.Write(0, make([]byte, 16))
		if _, err := wt.Commit(); err != nil {
			t.Errorf("writer commit: %v", err)
			return
		}
		// Re-reading key 0 now dooms ro2 (version changed between reads).
		ro2.Read(0)
		if _, err := ro2.Commit(); !errors.Is(err, ErrAborted) {
			t.Errorf("read-only txn with inconsistent reads: %v", err)
		}
	})
	v.e.Run()
}

// Load encodes into one scratch image per server: a short value loaded
// after a long one must not carry the long one's tail, and a loaded key
// must not change when the next one is loaded.
func TestLoadScratchLeavesNoResidue(t *testing.T) {
	const maxValue = 64
	long, short := bytes.Repeat([]byte{0xFF}, maxValue), []byte{1, 2, 3}
	padded := append(append([]byte(nil), short...), make([]byte, maxValue-len(short))...)
	opts := ShardOptions{NSlots: 16, MaxValue: maxValue}

	tv := newTxEnv(t, 1, opts, model.SoftwarePRISM, 1)
	fv := newFarmEnv(t, 1, opts, model.HardwareRDMA, 1)
	for _, load := range []func(int64, []byte) error{tv.shards[0].Load, fv.servers[0].Load} {
		for k, val := range [][]byte{long, short, long} {
			if err := load(int64(k), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	tc, fc := tv.client(1, 0), fv.client(1, 0)
	tv.e.Go("prismtx", func(p *sim.Proc) {
		for k, want := range [][]byte{long, short, long} {
			if got, err := tc.Begin().Read(int64(k)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("PRISM-TX key %d = %x, %v; want %x", k, got, err, want)
			}
		}
	})
	tv.e.Run()
	fv.e.Go("farm", func(p *sim.Proc) {
		for k, want := range [][]byte{long, padded, long} {
			if got, err := fc.Begin().Read(int64(k)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("FaRM key %d = %x, %v; want %x", k, got, err, want)
			}
		}
	})
	fv.e.Run()
}

// TestMixedTenants runs PRISM-KV and PRISM-TX servers on the same fabric
// with concurrent clients: no interference beyond shared bandwidth, and
// both remain correct.
func TestMixedTenants(t *testing.T) {
	p := model.Default().WithNetwork(model.Rack)
	e := sim.NewEngine(61)
	net := fabric.New(e, p)

	kvNIC := rdma.NewServer(net, "kv", model.SoftwarePRISM)
	kvSrv, err := kv.NewServerOn(kvNIC, kv.DefaultOptions(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	txNIC := rdma.NewServer(net, "tx", model.SoftwarePRISM)
	txSrv, err := NewShard(txNIC, ShardOptions{NSlots: 16, MaxValue: 64, ExtraBuffers: 256})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 8; k++ {
		if err := txSrv.Load(k, make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	machine := rdma.NewClient(net, "cli")
	kvC := kv.NewClient(machine.Connect(kvNIC), kvSrv.Meta(), 1)
	txC := NewClient(2, []transport.Issuer{machine.Connect(txNIC)}, []Meta{txSrv.Meta()})

	e.Go("kv-tenant", func(pr *sim.Proc) {
		for i := 0; i < 100; i++ {
			k := int64(i % 16)
			if err := kvC.Put(k, []byte(fmt.Sprintf("t%d", i))); err != nil {
				t.Errorf("kv put: %v", err)
				return
			}
			if v, err := kvC.Get(k); err != nil || !bytes.HasPrefix(v, []byte("t")) {
				t.Errorf("kv get: %q %v", v, err)
				return
			}
		}
	})
	e.Go("tx-tenant", func(pr *sim.Proc) {
		for i := 0; i < 100; i++ {
			for {
				txn := txC.Begin()
				old, err := txn.Read(int64(i % 8))
				if err != nil {
					t.Errorf("tx read: %v", err)
					return
				}
				nv := append([]byte(nil), old...)
				nv[0]++
				txn.Write(int64(i%8), nv)
				if _, err := txn.Commit(); err == nil {
					break
				}
			}
		}
	})
	e.Run()
}
