package rdma_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"prism/internal/abd"
	"prism/internal/fabric"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

// retired is a reclamation connection that records the buffer addresses
// each report carries instead of sending it.
type retired struct{ addrs []uint64 }

func (r *retired) Ops(n int) []wire.Op { return make([]wire.Op, n) }

func (r *retired) IssueAsync(ops []wire.Op) error {
	for rest := ops[0].Data[1:]; len(rest) >= 8; rest = rest[8:] {
		r.addrs = append(r.addrs, binary.LittleEndian.Uint64(rest))
	}
	return nil
}

func (r *retired) Issue([]wire.Op) ([]wire.Result, error) { panic("reports are fire-and-forget") }

func (r *retired) IssueBatch([][]wire.Op) ([][]wire.Result, error) {
	panic("reports are fire-and-forget")
}

func (r *retired) Temp() (memory.Addr, memory.RKey) { return 0, 0 }

func (r *retired) Sleep(time.Duration) {}

// TestWriteStragglerRetiresDisplacedBuffer: PRISM-RS's write phase returns
// at f+1 acknowledgments, so the slow replica's CAS lands after the client
// has moved on. When it does, the fan-out's completion hook still retires
// the buffer it displaced: every replica reports one buffer per PUT.
func TestWriteStragglerRetiresDisplacedBuffer(t *testing.T) {
	e := sim.NewEngine(3)
	net := fabric.New(e, model.Default().WithNetwork(model.Rack))
	cli := rdma.NewClient(net, "cli")
	deploys := []model.Deployment{model.ProjectedHardwarePRISM, model.ProjectedHardwarePRISM, model.SoftwarePRISM}
	nics := make([]*rdma.Server, len(deploys))
	conns := make([]*rdma.Conn, len(deploys))
	metas := make([]abd.Meta, len(deploys))
	for i, d := range deploys {
		nics[i] = rdma.NewServer(net, fmt.Sprintf("replica-%d", i), d)
		r, err := abd.NewReplica(nics[i], abd.ReplicaOptions{NBlocks: 1, BlockSize: 64, ExtraBuffers: 64})
		if err != nil {
			t.Fatal(err)
		}
		conns[i], metas[i] = cli.Connect(nics[i]), r.Meta()
	}
	c := abd.NewClient(1, transport.Issuers(conns), metas)
	reports := make([]*retired, len(conns))
	for i := range c.Reclaim {
		reports[i] = &retired{}
		c.Reclaim[i].Ctrl = reports[i]
	}

	const puts = 20
	stragglers := 0
	e.Go("writer", func(p *sim.Proc) {
		for n := 0; n < puts; n++ {
			tag, err := c.PutT(0, bytes.Repeat([]byte{byte(n)}, 64))
			if err != nil {
				t.Error(err)
				return
			}
			entry, err := nics[2].Space().Read(metas[2].Key, metas[2].MetaBase, 8)
			if err != nil {
				t.Error(err)
				return
			}
			if abd.Tag(binary.BigEndian.Uint64(entry)) < tag {
				stragglers++ // replica 2 has not installed this PUT yet
			}
		}
		p.Sleep(time.Millisecond) // every straggler lands
		for i := range c.Reclaim {
			if err := c.Reclaim[i].Flush(); err != nil {
				t.Error(err)
			}
		}
	})
	e.Run()
	if stragglers == 0 {
		t.Fatal("replica 2 answered inside every quorum; nothing was a straggler")
	}
	for i, r := range reports {
		seen := map[uint64]bool{}
		for _, a := range r.addrs {
			if a == 0 || seen[a] {
				t.Errorf("replica %d: buffer %#x retired twice or null", i, a)
			}
			seen[a] = true
		}
		if len(r.addrs) != puts {
			t.Errorf("replica %d retired %d buffers over %d PUTs (%d stragglers)", i, len(r.addrs), puts, stragglers)
		}
	}
}
