// Block store example: a 3-replica PRISM-RS deployment (the paper's §7
// ABD register protocol built from PRISM operations) serving concurrent
// readers and writers, then surviving the failure of one replica — the
// f=1 fault tolerance the quorum protocol guarantees — with zero
// server-side CPU involvement in the data path.
//
// The simulator is deterministic, so the example's output is checked:
// go test -v ./examples/blockstore
package blockstore_test

import (
	"bytes"
	"fmt"
	"log"

	"prism"
	"prism/internal/abd"
	"prism/internal/fabric"
)

const (
	nBlocks   = 64
	blockSize = 512
	nReplicas = 3
)

func Example() {
	c := prism.NewCluster(prism.ClusterConfig{Seed: 11})

	// A replica is provisioned on a server and from then on is memory the
	// NICs operate on: the program keeps the servers (to connect to, and
	// later to kill one) and each replica's description.
	servers := make([]*prism.Server, nReplicas)
	metas := make([]abd.Meta, nReplicas)
	for i := range servers {
		servers[i] = c.NewServer(fmt.Sprintf("replica-%d", i), prism.SoftwarePRISM)
		r, err := prism.NewRSReplica(servers[i], prism.RSOptions{
			NBlocks: nBlocks, BlockSize: blockSize, ExtraBuffers: 1024,
		})
		if err != nil {
			log.Fatal(err)
		}
		metas[i] = r.Meta()
	}

	mkClient := func(id uint16, machine *prism.ClientMachine) *prism.RSClient {
		conns := make([]*prism.Conn, nReplicas)
		for i, srv := range servers {
			conns[i] = machine.Connect(srv)
		}
		return prism.NewRSClient(id, conns, metas)
	}

	m1 := c.NewClientMachine("machine-1")
	m2 := c.NewClientMachine("machine-2")

	// Phase 1: concurrent writers and a reader on the healthy cluster.
	writer1 := mkClient(1, m1)
	writer2 := mkClient(2, m2)
	reader := mkClient(3, m1)

	pattern := func(gen byte) []byte {
		return bytes.Repeat([]byte{gen}, blockSize)
	}

	c.Go("writer-1", func(p *prism.Proc) {
		for i := 0; i < 50; i++ {
			if err := writer1.Put(int64(i%nBlocks), pattern(byte(i))); err != nil {
				log.Fatal(err)
			}
		}
	})
	c.Go("writer-2", func(p *prism.Proc) {
		for i := 0; i < 50; i++ {
			if err := writer2.Put(int64((i+32)%nBlocks), pattern(byte(100+i))); err != nil {
				log.Fatal(err)
			}
		}
	})
	c.Go("reader", func(p *prism.Proc) {
		reads := 0
		for i := 0; i < 60; i++ {
			if _, err := reader.Get(int64(i % nBlocks)); err != nil {
				log.Fatal(err)
			}
			reads++
		}
		fmt.Printf("healthy cluster: reader completed %d linearizable GETs concurrent with 100 PUTs\n", reads)
	})
	c.Run()

	// Phase 2: kill replica 2 (its NIC swallows all traffic) and keep
	// operating — the quorum protocol needs only f+1 = 2 of 3 replicas.
	// Every chain sent to replica 2 stays outstanding for good; each
	// phase moves on at the second answer, the same instant it would with
	// replica 2 alive but slow.
	fmt.Println("killing replica-2 ...")
	servers[2].Node().SetHandler(func(fabric.Message) {})

	survivor := mkClient(4, m2)
	c.Go("post-failure", func(p *prism.Proc) {
		for i := 0; i < 20; i++ {
			start := p.Now()
			if err := survivor.Put(7, pattern(byte(i))); err != nil {
				log.Fatalf("PUT after failure: %v", err)
			}
			tag, val, err := survivor.GetT(7)
			if err != nil {
				log.Fatalf("GET after failure: %v", err)
			}
			if !bytes.Equal(val, pattern(byte(i))) {
				log.Fatal("read wrong value after failure")
			}
			if i == 0 || i == 19 {
				fmt.Printf("with 1 of 3 replicas down: PUT+GET #%d linearizable in %v, version tag %v\n",
					i+1, p.Now().Sub(start), tag)
			}
		}
	})
	c.Run()

	fmt.Println("done: the ABD write chains ran entirely in the replicas' NIC data path")

	// Output:
	// healthy cluster: reader completed 60 linearizable GETs concurrent with 100 PUTs
	// killing replica-2 ...
	// with 1 of 3 replicas down: PUT+GET #1 linearizable in 26.366µs, version tag (4,4)
	// with 1 of 3 replicas down: PUT+GET #20 linearizable in 26.366µs, version tag (23,4)
	// done: the ABD write chains ran entirely in the replicas' NIC data path
}
