// Package integration runs whole-cluster scenarios across packages:
// alternate NIC deployments, datacenter latency profiles, cross-application
// interference, and the Issuer and Meta contracts on both transports. Each
// application's run on a lossy network lives in its own package
// (loss_test.go in kv, abd and tx).
package integration

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"prism/internal/fabric"
	"prism/internal/kv"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/tx"
)

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
