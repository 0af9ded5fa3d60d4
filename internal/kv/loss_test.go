package kv

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"prism/internal/fabric"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
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
	srv, err := NewServerOn(nic, DefaultOptions(64, 128))
	if err != nil {
		t.Fatal(err)
	}
	cli := rdma.NewClient(net, "cli")
	conn := cli.Connect(nic)
	c := NewClient(conn, srv.Meta(), 1)
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
