package tx

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/wire"
)

// Regression tests for what a commit's fan-out must get right whatever the
// transaction's width: every chain's own results (a train past the send
// window recycles the server's replay slots while it completes,
// transport.Fanout) and a defined posting order.

// handle is the transaction surface PRISM-TX and FaRM share.
type handle interface {
	Read(key int64) ([]byte, error)
	Write(key int64, value []byte)
	Commit() (Timestamp, error)
}

// system builds nShards servers of one of the two protocols, keys loaded,
// and returns the engine, the servers' NICs and a Begin per client id.
type system struct {
	name  string
	build func(t *testing.T, nShards int, keys int64) (e *sim.Engine, nics []*rdma.Server, begin func(id uint16) func() handle)
}

var systems = []system{
	{"PRISM-TX", func(t *testing.T, nShards int, keys int64) (*sim.Engine, []*rdma.Server, func(uint16) func() handle) {
		v := newTxEnv(t, nShards, ShardOptions{NSlots: 32, MaxValue: 64, ExtraBuffers: 64}, model.SoftwarePRISM, 1)
		v.load(t, keys, 32)
		return v.e, v.nics, func(id uint16) func() handle {
			c := v.client(id, 0)
			return func() handle { return c.Begin() }
		}
	}},
	{"FaRM", func(t *testing.T, nShards int, keys int64) (*sim.Engine, []*rdma.Server, func(uint16) func() handle) {
		v := newFarmEnv(t, nShards, ShardOptions{NSlots: 32, MaxValue: 64}, model.HardwareRDMA, 1)
		v.load(t, keys, 32)
		return v.e, v.nics, func(id uint16) func() handle {
			c := v.client(id, 0)
			return func() handle { return c.Begin() }
		}
	}},
}

// TestWideTxValidatesEveryKey: client A reads keys 0..n-1 on one shard,
// client B overwrites key 0 and commits, and A's commit must abort —
// whether A writes every key it read or only the last one (so that the
// others are validated as a read set), and whether or not its n
// validation chains fit the connection's 8-deep send window. Past the
// window, chain 8's response is built in the replay slot chain 0's was
// sent from, and a commit that reads its results from the slots once the
// whole train has finished sees chain 8's verdict for key 0 and commits.
func TestWideTxValidatesEveryKey(t *testing.T) {
	for _, sys := range systems {
		for _, n := range []int64{4, 8, 9, 12} {
			for _, writes := range []string{"all", "last"} {
				t.Run(fmt.Sprintf("%s/n=%d/writes-%s", sys.name, n, writes), func(t *testing.T) {
					e, _, begin := sys.build(t, 1, n)
					beginA, beginB := begin(1), begin(2)
					e.Go("t", func(p *sim.Proc) {
						a := beginA()
						for k := int64(0); k < n; k++ {
							v, err := a.Read(k)
							if err != nil {
								t.Error(err)
								return
							}
							if writes == "all" || k == n-1 {
								a.Write(k, v)
							}
						}
						b := beginB()
						if _, err := b.Read(0); err != nil {
							t.Error(err)
							return
						}
						b.Write(0, []byte("overwritten by B"))
						if _, err := b.Commit(); err != nil {
							t.Errorf("B's commit: %v", err)
							return
						}
						if ts, err := a.Commit(); !errors.Is(err, ErrAborted) {
							t.Errorf("A committed at %v (err %v) although key 0, which it read, was overwritten and committed since", ts, err)
						}
					})
					e.Run()
				})
			}
		}
	}
}

// TestWideTxInstallsEveryKey is the commit-phase twin: a PRISM-TX
// transaction writing 12 keys of one shard installs in two waves over the
// connection's 8 temp slots; afterwards every key reads back at the
// commit's version and each of the 12 buffers it displaced has been
// retired exactly once.
func TestWideTxInstallsEveryKey(t *testing.T) {
	const n = 12
	v := newTxEnv(t, 1, ShardOptions{NSlots: 32, MaxValue: 64, ExtraBuffers: 64}, model.SoftwarePRISM, 1)
	v.load(t, n, 32)
	meta, space := v.shards[0].Meta(), v.nics[0].Space()
	fl := v.nics[0].FreeList(meta.FreeList)
	var displaced []memory.Addr
	for k := int64(0); k < n; k++ {
		addr, err := space.ReadU64(meta.Key, meta.slotAddr(k)+offAddr)
		if err != nil {
			t.Fatal(err)
		}
		displaced = append(displaced, memory.Addr(addr))
	}
	free := fl.Len()

	c := v.client(1, 0)
	c.Reclaim[0].Batch = n // the commit's end flushes exactly what it retired
	v.e.Go("t", func(p *sim.Proc) {
		tx := c.Begin()
		for k := int64(0); k < n; k++ {
			old, err := tx.Read(k)
			if err != nil {
				t.Error(err)
				return
			}
			tx.Write(k, append([]byte{0xC0}, old[1:]...))
		}
		ts, err := tx.Commit()
		if err != nil {
			t.Errorf("commit: %v", err)
			return
		}
		check := c.Begin()
		for k := int64(0); k < n; k++ {
			got, err := check.Read(k)
			if err != nil || got[0] != 0xC0 || check.ReadVersion(k) != ts {
				t.Errorf("key %d reads %x at %v (err %v), want the value committed at %v", k, got[:1], check.ReadVersion(k), err, ts)
			}
		}
	})
	v.e.Run()

	if got := fl.Len() - free + n; got != n { // the commit popped n and must have returned n
		t.Fatalf("the free list holds %d buffers, %d before the commit: %d retired, want %d", fl.Len(), free, got, n)
	}
	var posted []memory.Addr // drained: the test ends here
	for fl.Len() > 0 {
		addr, _ := fl.Pop()
		posted = append(posted, addr)
	}
	for k, addr := range displaced {
		if !slices.Contains(posted, addr) {
			t.Errorf("key %d's displaced buffer %#x was not retired", k, addr)
		}
	}
}

// TestTxFanoutOrderDeterministic: the order a commit posts its chains in
// is part of the simulation's outcome — chains to two shards leave the
// client's NIC one after the other — so it may not be Go's map order.
// Thirty identically seeded runs of a 6-key read-only transaction and of
// a transaction that also writes two of its keys, over two shards, must
// leave one server-side trace and end at one virtual instant.
func TestTxFanoutOrderDeterministic(t *testing.T) {
	const keys = 6
	run := func(sys system) string {
		e, nics, begin := sys.build(t, 2, keys)
		var image strings.Builder
		for i, nic := range nics {
			nic.SetObserver(func(req *wire.Request, j int, res *wire.Result, _ *prism.OpMeta) {
				op := &req.Ops[j]
				fmt.Fprintf(&image, "shard %d: %v conn=%d seq=%d op[%d] %v flags=%#x -> %v\n",
					i, e.Now(), req.Conn, req.Seq, j, op.Code, uint8(op.Flags), res.Status)
			})
		}
		beginTx := begin(1)
		e.Go("t", func(p *sim.Proc) {
			for _, writes := range []int64{0, 2} {
				tx := beginTx()
				for k := int64(0); k < keys; k++ {
					v, err := tx.Read(k)
					if err != nil {
						t.Error(err)
						return
					}
					if k < writes {
						tx.Write(k, v)
					}
				}
				if _, err := tx.Commit(); err != nil {
					t.Errorf("commit with %d writes: %v", writes, err)
				}
			}
		})
		e.Run()
		fmt.Fprintf(&image, "end %v\n", e.Now())
		return image.String()
	}
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			first := run(sys)
			if !strings.Contains(first, "shard 0:") || !strings.Contains(first, "shard 1:") {
				t.Fatalf("a shard stepped no op:\n%s", first)
			}
			for rep := 1; rep < 30; rep++ {
				if again := run(sys); again != first {
					t.Fatalf("repetition %d of an identically seeded run differs:\n--- first ---\n%s--- repetition ---\n%s", rep, first, again)
				}
			}
		})
	}
}
