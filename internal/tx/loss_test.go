package tx

import (
	"errors"
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

// TestTXSerializableUnderLoss runs PRISM-TX transactions under loss and
// validates the committed history with both oracles.
func TestTXSerializableUnderLoss(t *testing.T) {
	p := model.Default().WithNetwork(model.Rack)
	p.LossRate = 0.03
	p.RetransmitTimeout = 50 * time.Microsecond
	e := sim.NewEngine(47)
	net := fabric.New(e, p)
	nic := rdma.NewServer(net, "shard", model.SoftwarePRISM)
	shard, err := NewShard(nic, ShardOptions{NSlots: 4, MaxValue: 32, ExtraBuffers: 4096})
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
		c := NewClient(id, []transport.Issuer{machine.Connect(nic)}, []Meta{shard.Meta()})
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
					rc := txn.ReadVersion(key)
					nv := append([]byte(nil), old...)
					nv[0]++
					txn.Write(key, nv)
					ts, err := txn.Commit()
					if errors.Is(err, ErrAborted) {
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
	if err := check.CheckSerializable(committed, uint64(InitialVersion)); err != nil {
		t.Fatalf("serializability under loss: %v", err)
	}
}
