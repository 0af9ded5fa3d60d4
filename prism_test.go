package prism

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"prism/internal/abd"
	"prism/internal/tx"
)

func TestPublicKVRoundTrip(t *testing.T) {
	c := NewCluster(ClusterConfig{Seed: 1})
	srv := c.NewServer("kv", SoftwarePRISM)
	store, err := NewKVServer(srv, KVOptions(128, 256))
	if err != nil {
		t.Fatal(err)
	}
	cli := NewKVClient(c.NewClientMachine("m").Connect(srv), store.Meta(), 1)
	c.Go("t", func(p *Proc) {
		if err := cli.Put(p, 1, []byte("public api")); err != nil {
			t.Error(err)
			return
		}
		v, err := cli.Get(p, 1)
		if err != nil || string(v) != "public api" {
			t.Errorf("get: %q %v", v, err)
		}
		if _, err := cli.Get(p, 99); !errors.Is(err, ErrKVNotFound) {
			t.Errorf("missing: %v", err)
		}
	})
	c.Run()
}

func TestPublicRSQuorum(t *testing.T) {
	c := NewCluster(ClusterConfig{Seed: 2})
	srvs := make([]*Server, 3)
	metas := make([]abd.Meta, 3)
	for i := range srvs {
		srvs[i] = c.NewServer("rep", SoftwarePRISM)
		r, err := NewRSReplica(srvs[i], RSOptions{NBlocks: 8, BlockSize: 32, ExtraBuffers: 32})
		if err != nil {
			t.Fatal(err)
		}
		metas[i] = r.Meta()
	}
	m := c.NewClientMachine("m")
	conns := make([]*Conn, 3)
	for i, srv := range srvs {
		conns[i] = m.Connect(srv)
	}
	cli := NewRSClient(1, conns, metas)
	c.Go("t", func(p *Proc) {
		val := bytes.Repeat([]byte{0xAB}, 32)
		if err := cli.Put(5, val); err != nil {
			t.Error(err)
			return
		}
		got, err := cli.Get(5)
		if err != nil || !bytes.Equal(got, val) {
			t.Errorf("get: %v %v", got, err)
		}
	})
	c.Run()
}

func TestPublicTXCommitAbort(t *testing.T) {
	c := NewCluster(ClusterConfig{Seed: 3})
	srv := c.NewServer("shard", SoftwarePRISM)
	shard, err := NewTXShard(srv, TXOptions{NSlots: 8, MaxValue: 32, ExtraBuffers: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Load(0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	m := c.NewClientMachine("m")
	a := c.NewTXClient(1, []*Conn{m.Connect(srv)}, []tx.Meta{shard.Meta()})
	b := c.NewTXClient(2, []*Conn{m.Connect(srv)}, []tx.Meta{shard.Meta()})
	c.Go("t", func(p *Proc) {
		// Interleaved RMWs: exactly one commits.
		t1, t2 := a.Begin(), b.Begin()
		t1.Read(0)
		t2.Read(0)
		t1.Write(0, make([]byte, 16))
		t2.Write(0, make([]byte, 16))
		_, err1 := t1.Commit()
		_, err2 := t2.Commit()
		committed := 0
		for _, e := range []error{err1, err2} {
			if e == nil {
				committed++
			} else if !errors.Is(e, ErrTxAborted) {
				t.Errorf("unexpected error: %v", e)
			}
		}
		if committed != 1 {
			t.Errorf("%d committed, want 1", committed)
		}
	})
	c.Run()
}

func TestPublicDeploymentAndNetworkOptions(t *testing.T) {
	// Latency scales with the network profile and deployment choice
	// through the public configuration surface.
	lat := func(net SwitchProfile, d Deployment) time.Duration {
		c := NewCluster(ClusterConfig{Seed: 4, Network: &net})
		srv := c.NewServer("kv", d)
		store, err := NewKVServer(srv, KVOptions(16, 64))
		if err != nil {
			t.Fatal(err)
		}
		store.Load(1, []byte("x"))
		cli := NewKVClient(c.NewClientMachine("m").Connect(srv), store.Meta(), 1)
		var rtt time.Duration
		c.Go("t", func(p *Proc) {
			start := p.Now()
			if _, err := cli.Get(p, 1); err != nil {
				t.Error(err)
			}
			rtt = time.Duration(p.Now().Sub(start))
		})
		c.Run()
		return rtt
	}
	rack := lat(Rack, SoftwarePRISM)
	dc := lat(Datacenter, SoftwarePRISM)
	if dc <= rack {
		t.Fatalf("datacenter GET %v not slower than rack %v", dc, rack)
	}
	hw := lat(Rack, ProjectedHardwarePRISM)
	if hw >= rack {
		t.Fatalf("projected-hardware GET %v not faster than software %v", hw, rack)
	}
}

func TestPublicCustomParams(t *testing.T) {
	p := NewCluster(ClusterConfig{}).ParamsInEffect()
	p.RDMABaseRTT = 10 * time.Microsecond
	c := NewCluster(ClusterConfig{Seed: 5, Params: &p})
	if c.ParamsInEffect().RDMABaseRTT != 10*time.Microsecond {
		t.Fatal("params override not applied")
	}
}
