// Package integration runs whole-cluster scenarios across packages:
// applications on lossy networks, alternate NIC deployments, datacenter
// latency profiles, and cross-application interference — the situations a
// production deployment of PRISM would face beyond the paper's clean
// testbed.
package integration

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"prism/internal/abd"
	"prism/internal/check"
	"prism/internal/fabric"
	"prism/internal/kv"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/tx"
)

// TestKVUnderPacketLoss drives PRISM-KV over a fabric dropping 5% of
// messages: the NIC reliability layer (retransmit + replay) must make the
// store behave exactly as on a clean network.
func TestKVUnderPacketLoss(t *testing.T) {
	p := model.Default().WithNetwork(model.Rack)
	p.LossRate = 0.05
	p.RetransmitTimeout = 50 * time.Microsecond
	e := sim.NewEngine(41)
	net := fabric.New(e, p)
	nic := rdma.NewServer(net, "kv", model.SoftwarePRISM)
	srv, err := kv.NewServerOn(nic, kv.DefaultOptions(64, 128))
	if err != nil {
		t.Fatal(err)
	}
	cli := rdma.NewClient(net, "cli")
	conn := cli.Connect(nic)
	c := kv.NewClient(conn, srv.Meta(), 1)
	modelMap := map[int64]string{}
	e.Go("t", func(pr *sim.Proc) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 300; i++ {
			k := rng.Int63n(32)
			if rng.Intn(2) == 0 && modelMap[k] != "" {
				got, err := c.Get(k)
				if err != nil || string(got) != modelMap[k] {
					t.Errorf("op %d: get %d = %q (%v), want %q", i, k, got, err, modelMap[k])
					return
				}
			} else {
				v := fmt.Sprintf("v%d-%d", k, i)
				if err := c.Put(k, []byte(v)); err != nil {
					t.Errorf("op %d: put: %v", i, err)
					return
				}
				modelMap[k] = v
			}
		}
	})
	e.Run()
	if conn.Retransmissions == 0 {
		t.Fatal("5% loss produced no retransmissions — loss path not exercised")
	}
	t.Logf("retransmissions: %d", conn.Retransmissions)
}

// TestABDLinearizableUnderLoss checks the replicated store's
// linearizability oracle still passes when the fabric drops messages.
func TestABDLinearizableUnderLoss(t *testing.T) {
	p := model.Default().WithNetwork(model.Rack)
	p.LossRate = 0.03
	p.RetransmitTimeout = 50 * time.Microsecond
	e := sim.NewEngine(43)
	net := fabric.New(e, p)
	var nics []*rdma.Server
	var replicas []*abd.Replica
	for i := 0; i < 3; i++ {
		nic := rdma.NewServer(net, fmt.Sprintf("rep-%d", i), model.SoftwarePRISM)
		nics = append(nics, nic)
		r, err := abd.NewReplica(nic, abd.ReplicaOptions{NBlocks: 2, BlockSize: 16, ExtraBuffers: 4096})
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	machine := rdma.NewClient(net, "cli")
	hist := check.NewMultiRegisterHistory()
	for i := 0; i < 4; i++ {
		id := uint16(i + 1)
		conns := make([]*rdma.Conn, 3)
		metas := make([]abd.Meta, 3)
		for j, r := range replicas {
			conns[j] = machine.Connect(nics[j])
			metas[j] = r.Meta()
		}
		c := abd.NewClient(id, transport.Issuers(conns), metas)
		rng := rand.New(rand.NewSource(int64(id)))
		e.Go(fmt.Sprintf("c%d", id), func(pr *sim.Proc) {
			for n := 0; n < 30; n++ {
				block := int64(rng.Intn(2))
				invoke := pr.Now()
				if rng.Intn(2) == 0 {
					tag, _, err := c.GetT(block)
					if err != nil {
						t.Errorf("get: %v", err)
						return
					}
					hist.Add(block, check.RegisterOp{Tag: uint64(tag), Invoke: invoke, Respond: pr.Now(), Client: int(id)})
				} else {
					val := make([]byte, 16)
					rng.Read(val)
					tag, err := c.PutT(block, val)
					if err != nil {
						t.Errorf("put: %v", err)
						return
					}
					hist.Add(block, check.RegisterOp{IsWrite: true, Tag: uint64(tag), Invoke: invoke, Respond: pr.Now(), Client: int(id)})
				}
			}
		})
	}
	e.Run()
	if err := hist.Check(uint64(abd.MakeTag(1, 0))); err != nil {
		t.Fatalf("linearizability under loss: %v", err)
	}
}

// TestTXSerializableUnderLoss runs PRISM-TX transactions under loss and
// validates the committed history with both oracles.
func TestTXSerializableUnderLoss(t *testing.T) {
	p := model.Default().WithNetwork(model.Rack)
	p.LossRate = 0.03
	p.RetransmitTimeout = 50 * time.Microsecond
	e := sim.NewEngine(47)
	net := fabric.New(e, p)
	nic := rdma.NewServer(net, "shard", model.SoftwarePRISM)
	shard, err := tx.NewShard(nic, tx.ShardOptions{NSlots: 4, MaxValue: 32, ExtraBuffers: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 2; k++ {
		if err := shard.Load(k, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	machine := rdma.NewClient(net, "cli")
	var committed []check.CommittedTx
	for i := 0; i < 4; i++ {
		id := uint16(i + 1)
		c := tx.NewClient(id, []transport.Issuer{machine.Connect(nic)}, []tx.Meta{shard.Meta()})
		rng := rand.New(rand.NewSource(int64(id) * 3))
		e.Go(fmt.Sprintf("c%d", id), func(pr *sim.Proc) {
			for n := 0; n < 25; n++ {
				key := int64(rng.Intn(2))
				for attempts := 0; attempts < 50; attempts++ {
					txn := c.Begin()
					old, err := txn.Read(key)
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					rc := readVersion(txn, key)
					nv := append([]byte(nil), old...)
					nv[0]++
					txn.Write(key, nv)
					ts, err := txn.Commit()
					if errors.Is(err, tx.ErrAborted) {
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
					break
				}
			}
		})
	}
	e.Run()
	if len(committed) < 50 {
		t.Fatalf("only %d transactions committed", len(committed))
	}
	if err := check.CheckSerializable(committed, uint64(tx.InitialVersion)); err != nil {
		t.Fatalf("serializability under loss: %v", err)
	}
}

// readVersion exposes the version a transaction observed (test helper via
// the tx package's exported surface: re-reading from the read set).
func readVersion(txn *tx.Tx, key int64) tx.Timestamp {
	return txn.ReadVersion(key)
}

// TestKVOnProjectedHardware runs PRISM-KV on the projected-hardware
// deployment: everything works, ~2 µs faster per GET than the software
// stack.
func TestKVOnProjectedHardware(t *testing.T) {
	lat := func(d model.Deployment) time.Duration {
		p := model.Default().WithNetwork(model.Rack)
		e := sim.NewEngine(53)
		net := fabric.New(e, p)
		nic := rdma.NewServer(net, "kv", d)
		srv, err := kv.NewServerOn(nic, kv.DefaultOptions(32, 64))
		if err != nil {
			t.Fatal(err)
		}
		srv.Load(1, []byte("hw"))
		c := kv.NewClient(rdma.NewClient(net, "cli").Connect(nic), srv.Meta(), 1)
		var rtt time.Duration
		e.Go("t", func(pr *sim.Proc) {
			start := pr.Now()
			if v, err := c.Get(1); err != nil || string(v) != "hw" {
				t.Errorf("get: %q %v", v, err)
			}
			rtt = time.Duration(pr.Now().Sub(start))
		})
		e.Run()
		return rtt
	}
	hw := lat(model.ProjectedHardwarePRISM)
	sw := lat(model.SoftwarePRISM)
	if hw >= sw {
		t.Fatalf("projected hardware GET %v not faster than software %v", hw, sw)
	}
	if diff := sw - hw; diff < time.Microsecond || diff > 3*time.Microsecond {
		t.Fatalf("hardware advantage %v, want ≈2µs (§6.2)", diff)
	}
}

// TestKVAtDatacenterScale: the PRISM advantage grows at datacenter
// latency; a GET still completes in ~1 RTT + stack overhead.
func TestKVAtDatacenterScale(t *testing.T) {
	p := model.Default().WithNetwork(model.Datacenter)
	e := sim.NewEngine(59)
	net := fabric.New(e, p)
	nic := rdma.NewServer(net, "kv", model.SoftwarePRISM)
	srv, err := kv.NewServerOn(nic, kv.DefaultOptions(32, 512))
	if err != nil {
		t.Fatal(err)
	}
	srv.Load(1, make([]byte, 512))
	c := kv.NewClient(rdma.NewClient(net, "cli").Connect(nic), srv.Meta(), 1)
	e.Go("t", func(pr *sim.Proc) {
		start := pr.Now()
		if _, err := c.Get(1); err != nil {
			t.Error(err)
			return
		}
		rtt := time.Duration(pr.Now().Sub(start))
		// One 24 µs round trip + ~3 µs stack, not two round trips.
		if rtt < 26*time.Microsecond || rtt > 36*time.Microsecond {
			t.Errorf("datacenter GET %v, want ≈29-30µs (one round trip)", rtt)
		}
	})
	e.Run()
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
	txSrv, err := tx.NewShard(txNIC, tx.ShardOptions{NSlots: 16, MaxValue: 64, ExtraBuffers: 256})
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
	txC := tx.NewClient(2, []transport.Issuer{machine.Connect(txNIC)}, []tx.Meta{txSrv.Meta()})

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
