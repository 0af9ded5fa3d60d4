package abd

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"prism/internal/check"
	"prism/internal/fabric"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
)

// TestABDLinearizableUnderLoss checks the replicated store's
// linearizability oracle still passes when the fabric drops messages.
func TestABDLinearizableUnderLoss(t *testing.T) {
	p := model.Default().WithNetwork(model.Rack)
	p.LossRate = 0.03
	p.RetransmitTimeout = 50 * time.Microsecond
	e := sim.NewEngine(43)
	net := fabric.New(e, p)
	var nics []*rdma.Server
	var replicas []*Replica
	for i := 0; i < 3; i++ {
		nic := rdma.NewServer(net, fmt.Sprintf("rep-%d", i), model.SoftwarePRISM)
		nics = append(nics, nic)
		r, err := NewReplica(nic, ReplicaOptions{NBlocks: 2, BlockSize: 16, ExtraBuffers: 4096})
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
		metas := make([]Meta, 3)
		for j, r := range replicas {
			conns[j] = machine.Connect(nics[j])
			metas[j] = r.Meta()
		}
		c := NewClient(id, transport.Issuers(conns), metas)
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
	if err := hist.Check(uint64(MakeTag(1, 0))); err != nil {
		t.Fatalf("linearizability under loss: %v", err)
	}
}
