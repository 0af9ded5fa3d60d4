package bench

import "fmt"

// Extension experiments beyond the paper's evaluation. The paper ran
// PRISM-TX on a single shard because of testbed size (§8.3); the
// simulator has no such limit, so these measure the full distributed
// commit protocol's scaling behavior.

// ExtShards measures PRISM-TX throughput as the data is partitioned over
// 1, 2, and 4 shards (uniform single-key RMW, fixed client count):
// aggregate NIC bandwidth and dedicated-core capacity scale with shards.
func ExtShards(cfg Config) *Figure {
	fig := &Figure{
		ID:     "ext-shards",
		Title:  "PRISM-TX shard scaling (extension; paper used 1 shard)",
		XLabel: "shards", YLabel: "throughput (txns/s)",
	}
	const clients = 256
	shardCounts := []int{1, 2, 4}
	sweep(cfg, fig, []string{"PRISM-TX"}, shardCounts, func(cfg Config, _, nShards int) (Point, Telemetry) {
		return runPoint(cfg, fig.ID, system{"PRISM-TX", prismTXCluster(nShards)}, load{keysPerTx: 1},
			fmt.Sprintf("shards=%d", nShards), clients)
	}, func(_, xi int, pt Point, _ Telemetry) string {
		return fmt.Sprintf("shards=%d  tput=%.0f txns/s  mean=%.2fµs",
			shardCounts[xi], pt.Throughput, float64(pt.Mean)/1e3)
	})
	return fig
}

// ExtMultiKey measures PRISM-TX with multi-key transactions spanning two
// shards: commit cost grows with the write set (validation + install
// chains per key, parallel across keys; commit still two logical phases).
func ExtMultiKey(cfg Config) *Figure {
	fig := &Figure{
		ID:     "ext-multikey",
		Title:  "PRISM-TX multi-key transactions over 2 shards (extension)",
		XLabel: "keys per transaction", YLabel: "mean latency (µs)",
	}
	const clients = 32
	keysPerTx := []int{1, 2, 4, 8}
	sys := system{"PRISM-TX", prismTXCluster(2)}
	sweep(cfg, fig, []string{sys.name}, keysPerTx, func(cfg Config, _, kpt int) (Point, Telemetry) {
		return runPoint(cfg, fig.ID, sys, load{keysPerTx: kpt}, fmt.Sprintf("keys=%d", kpt), clients)
	}, func(_, xi int, pt Point, _ Telemetry) string {
		return fmt.Sprintf("keys/txn=%d  mean=%.2fµs  tput=%.0f txns/s  aborts=%d",
			keysPerTx[xi], float64(pt.Mean)/1e3, pt.Throughput, pt.Aborts)
	})
	return fig
}
