// Deployments example: the same PRISM-KV workload run across the paper's
// data-path options (§4) and network scales (Fig. 2), showing how the
// deployment choice shifts latency — the software stack pays dedicated-
// core overhead, the projected hardware NIC pays only PCIe indirection,
// and the BlueField pays slow off-path host-memory access — and how every
// PRISM option's advantage over two-round-trip RDMA grows with network
// latency.
//
// The simulator is deterministic, so the example's output is checked:
// go test -v ./examples/deployments
package deployments_test

import (
	"fmt"
	"log"
	"strings"
	"time"

	"prism"
	"prism/internal/sim"
)

const (
	nKeys     = 512
	valueSize = 512
	nOps      = 200
)

func measureKV(deploy prism.Deployment, network prism.SwitchProfile) (get, put time.Duration) {
	c := prism.NewCluster(prism.ClusterConfig{Seed: 9, Network: &network})
	srv := c.NewServer("kv", deploy)
	store, err := prism.NewKVServer(srv, prism.KVOptions(nKeys, valueSize))
	if err != nil {
		log.Fatal(err)
	}
	for k := int64(0); k < nKeys; k++ {
		if err := store.Load(k, make([]byte, valueSize)); err != nil {
			log.Fatal(err)
		}
	}
	cli := prism.NewKVClient(c.NewClientMachine("m").Connect(srv), store.Meta(), 1).Client
	var getNS, putNS sim.Duration
	c.Go("probe", func(p *prism.Proc) {
		for i := 0; i < nOps; i++ {
			k := int64(i % nKeys)
			start := p.Now()
			if _, err := cli.Get(k); err != nil {
				log.Fatal(err)
			}
			getNS += p.Now().Sub(start)
			start = p.Now()
			if err := cli.Put(k, make([]byte, valueSize)); err != nil {
				log.Fatal(err)
			}
			putNS += p.Now().Sub(start)
		}
	})
	c.Run()
	return getNS / nOps, putNS / nOps
}

func Example() {
	deployments := []prism.Deployment{
		prism.SoftwarePRISM,
		prism.ProjectedHardwarePRISM,
		prism.BlueFieldPRISM,
	}
	networks := []prism.SwitchProfile{prism.Rack, prism.Cluster, prism.Datacenter}

	// Rows are printed without their last column's padding.
	fmt.Println("PRISM-KV mean latency by deployment and network scale (simulated):")
	head, cols := fmt.Sprintf("%-22s", ""), fmt.Sprintf("%-22s", "")
	for _, nw := range networks {
		head += fmt.Sprintf("  %-24s", nw.Name)
		cols += fmt.Sprintf("  %-11s %-11s", "GET", "PUT")
	}
	fmt.Println(strings.TrimRight(head, " "))
	fmt.Println(strings.TrimRight(cols, " "))
	for _, d := range deployments {
		line := fmt.Sprintf("%-22s", d)
		for _, nw := range networks {
			get, put := measureKV(d, nw)
			line += fmt.Sprintf("  %-11s %-11s", get.Round(10*time.Nanosecond), put.Round(10*time.Nanosecond))
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Println()
	fmt.Println("The projected hardware NIC wins everywhere; the BlueField's host-memory")
	fmt.Println("penalty shrinks in relative terms as network latency dominates (Fig. 2).")

	// Output:
	// PRISM-KV mean latency by deployment and network scale (simulated):
	//                         rack                      cluster                   datacenter
	//                         GET         PUT          GET         PUT          GET         PUT
	// PRISM SW                6.53µs      13.52µs      8.93µs      18.32µs      29.93µs     60.32µs
	// PRISM HW (proj.)        4.63µs      9.32µs       7.03µs      14.12µs      28.03µs     56.12µs
	// PRISM BlueField         11.73µs     35.02µs      14.13µs     39.82µs      35.13µs     81.82µs
	//
	// The projected hardware NIC wins everywhere; the BlueField's host-memory
	// penalty shrinks in relative terms as network latency dominates (Fig. 2).
}
