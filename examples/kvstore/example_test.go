// KV store example: PRISM-KV and Pilaf side by side on the same YCSB-style
// workload, showing the paper's §6 comparison — PRISM-KV's GETs are one
// indirect bounded READ and its PUTs are chained one-sided updates with no
// server CPU, while Pilaf needs two READs plus CRC checks per GET and an
// RPC per PUT. The simulator is deterministic, so the example's output is
// checked: go test ./examples/kvstore -v
package kvstore_test

import (
	"fmt"
	"log"

	"prism"
	"prism/internal/sim"
	"prism/internal/workload"
)

const (
	nKeys     = 2048
	valueSize = 512
	nOps      = 2000
)

func Example() {
	fmt.Println("Loading both stores with", nKeys, "objects of", valueSize, "bytes...")

	// --- PRISM-KV cluster ---
	c1 := prism.NewCluster(prism.ClusterConfig{Seed: 7})
	srv1 := c1.NewServer("prism-kv", prism.SoftwarePRISM)
	kvSrv, err := prism.NewKVServer(srv1, prism.KVOptions(nKeys, valueSize))
	if err != nil {
		log.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Mix{Keys: nKeys, ReadFrac: 0.5, ValueSize: valueSize}, 7)
	for k := int64(0); k < nKeys; k++ {
		if err := kvSrv.Load(k, gen.Value(k, 0)); err != nil {
			log.Fatal(err)
		}
	}
	kvCli := prism.NewKVClient(c1.NewClientMachine("cli").Connect(srv1), kvSrv.Meta(), 1)

	// --- Pilaf cluster (hardware RDMA reads, RPC writes) ---
	c2 := prism.NewCluster(prism.ClusterConfig{Seed: 7})
	srv2 := c2.NewServer("pilaf", prism.HardwareRDMA)
	pilafSrv, err := prism.NewPilafServer(srv2, prism.KVOptions(nKeys, valueSize))
	if err != nil {
		log.Fatal(err)
	}
	for k := int64(0); k < nKeys; k++ {
		if err := pilafSrv.Load(k, gen.Value(k, 0)); err != nil {
			log.Fatal(err)
		}
	}
	pilafCli := prism.NewPilafClient(c2.NewClientMachine("cli").Connect(srv2),
		pilafSrv.Meta(), c2.ParamsInEffect().PilafCRCCost)

	type store interface {
		Get(p *prism.Proc, key int64) ([]byte, error)
		Put(p *prism.Proc, key int64, value []byte) error
	}

	run := func(cluster *prism.ClusterSim, name string, st store, seed int64) {
		g := workload.NewGenerator(workload.Mix{Keys: nKeys, ReadFrac: 0.5, ValueSize: valueSize}, seed)
		var gets, puts int
		var getNS, putNS sim.Duration
		cluster.Go(name, func(p *prism.Proc) {
			for i := 0; i < nOps; i++ {
				kind, key := g.Next()
				start := p.Now()
				if kind == workload.OpGet {
					if _, err := st.Get(p, key); err != nil {
						log.Fatalf("%s GET %d: %v", name, key, err)
					}
					gets++
					getNS += p.Now().Sub(start)
				} else {
					if err := st.Put(p, key, g.Value(key, i)); err != nil {
						log.Fatalf("%s PUT %d: %v", name, key, err)
					}
					puts++
					putNS += p.Now().Sub(start)
				}
			}
		})
		cluster.Run()
		fmt.Printf("%-10s %5d GETs @ %7.2fµs avg   %5d PUTs @ %7.2fµs avg\n",
			name, gets, float64(getNS)/float64(gets)/1e3,
			puts, float64(putNS)/float64(puts)/1e3)
	}

	fmt.Printf("Running %d 50/50 read/write operations on each store:\n", nOps)
	run(c1, "PRISM-KV", kvCli, 99)
	run(c2, "Pilaf", pilafCli, 99)

	fmt.Println("\nPRISM-KV server-side CPU was touched only by the reclamation daemon;")
	fmt.Printf("Pilaf's CPU executed %d PUT RPCs.\n", pilafSrv.Puts)

	// Output:
	// Loading both stores with 2048 objects of 512 bytes...
	// Running 2000 50/50 read/write operations on each store:
	// PRISM-KV    1015 GETs @    6.26µs avg     985 PUTs @   13.81µs avg
	// Pilaf       1015 GETs @    8.41µs avg     985 PUTs @    6.90µs avg
	//
	// PRISM-KV server-side CPU was touched only by the reclamation daemon;
	// Pilaf's CPU executed 985 PUT RPCs.
}
