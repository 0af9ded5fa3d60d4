// Transactions example: a bank running serializable transfers on PRISM-TX
// (the paper's §8 timestamp-OCC protocol committing in two one-sided round
// trips), sharded over two servers, with concurrent clients racing on the
// same accounts. The invariant — total balance is conserved — holds no
// matter how transfers interleave, and conflicting transactions abort and
// retry.
//
// The simulator is deterministic, so the example's output is checked:
// go test -v ./examples/transactions
package transactions_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"

	"prism"
	"prism/internal/tx"
)

const (
	nAccounts      = 32
	initialBalance = 1000
	nShards        = 2
	nTellers       = 4
	transfersEach  = 50
)

func encodeBalance(v int64) []byte {
	b := make([]byte, 64)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func decodeBalance(b []byte) int64 {
	return int64(binary.LittleEndian.Uint64(b))
}

func Example() {
	c := prism.NewCluster(prism.ClusterConfig{Seed: 23})

	servers := make([]*prism.Server, nShards)
	shards := make([]*prism.TXShard, nShards)
	metas := make([]tx.Meta, nShards)
	for i := range shards {
		servers[i] = c.NewServer(fmt.Sprintf("shard-%d", i), prism.SoftwarePRISM)
		s, err := prism.NewTXShard(servers[i], prism.TXOptions{
			NSlots: nAccounts, MaxValue: 64, ExtraBuffers: 4096,
		})
		if err != nil {
			log.Fatal(err)
		}
		shards[i] = s
		metas[i] = s.Meta()
	}
	// Accounts shard by account number modulo nShards.
	for acct := int64(0); acct < nAccounts; acct++ {
		if err := shards[acct%nShards].Load(acct, encodeBalance(initialBalance)); err != nil {
			log.Fatal(err)
		}
	}

	var totalCommits, totalAborts int64
	for t := 0; t < nTellers; t++ {
		teller := uint16(t + 1)
		machine := c.NewClientMachine(fmt.Sprintf("teller-%d", teller))
		conns := make([]*prism.Conn, nShards)
		for i, srv := range servers {
			conns[i] = machine.Connect(srv)
		}
		client := c.NewTXClient(teller, conns, metas)

		c.Go(fmt.Sprintf("teller-%d", teller), func(p *prism.Proc) {
			rng := c.Engine().Rand()
			for n := 0; n < transfersEach; n++ {
				from := rng.Int63n(nAccounts)
				to := rng.Int63n(nAccounts)
				for to == from {
					to = rng.Int63n(nAccounts)
				}
				amount := int64(1 + rng.Intn(50))
				// Retry the transfer until it commits.
				for {
					t := client.Begin()
					fb, err := t.Read(from)
					if err != nil {
						log.Fatal(err)
					}
					tb, err := t.Read(to)
					if err != nil {
						log.Fatal(err)
					}
					fromBal, toBal := decodeBalance(fb), decodeBalance(tb)
					if fromBal < amount {
						break // insufficient funds: give up this transfer
					}
					t.Write(from, encodeBalance(fromBal-amount))
					t.Write(to, encodeBalance(toBal+amount))
					if _, err := t.Commit(); err == nil {
						totalCommits++
						break
					} else if errors.Is(err, prism.ErrTxAborted) {
						totalAborts++
						continue
					} else {
						log.Fatal(err)
					}
				}
			}
		})
	}
	c.Run()

	// Audit: one read-only transaction summing every balance.
	auditor := c.NewClientMachine("auditor")
	conns := make([]*prism.Conn, nShards)
	for i, srv := range servers {
		conns[i] = auditor.Connect(srv)
	}
	audit := c.NewTXClient(uint16(nTellers+1), conns, metas)
	c.Go("audit", func(p *prism.Proc) {
		for {
			t := audit.Begin()
			var total int64
			for acct := int64(0); acct < nAccounts; acct++ {
				b, err := t.Read(acct)
				if err != nil {
					log.Fatal(err)
				}
				total += decodeBalance(b)
			}
			if _, err := t.Commit(); err != nil {
				continue // validation raced a straggler; retry
			}
			want := int64(nAccounts * initialBalance)
			fmt.Printf("committed transfers: %d (plus %d aborted+retried)\n", totalCommits, totalAborts)
			fmt.Printf("audit (read-only serializable txn over %d accounts): total=%d want=%d\n",
				nAccounts, total, want)
			if total != want {
				log.Fatal("INVARIANT VIOLATED: money created or destroyed")
			}
			fmt.Println("invariant holds: serializable transfers conserved the total balance")
			return
		}
	})
	c.Run()

	// Output:
	// committed transfers: 200 (plus 66 aborted+retried)
	// audit (read-only serializable txn over 32 accounts): total=32000 want=32000
	// invariant holds: serializable transfers conserved the total balance
}
