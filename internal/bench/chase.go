package bench

import (
	"fmt"
	"math/rand"
	"time"

	"prism/internal/kv"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/workload"
)

// The fig-chase family sweeps chain depth over the linked-chain store
// (kv.ChainStore): every lookup targets the tail node of a uniformly
// chosen bucket, so it traverses exactly depth pointer hops. Three
// clients walk the same chains:
//
//   - "PRISM chase": one CHASE verb program per lookup — the NIC follows
//     the pointers and the client pays one round trip regardless of
//     depth (plus the per-step program charge).
//   - "per-hop one-sided": the classic RDMA pattern — one READ round
//     trip per hop, so latency grows linearly with depth.
//   - "RPC": one two-sided round trip; the server's host CPU walks the
//     chain (charged per hop at the same step cost as the program).
//
// The family is not part of the "all" figure order: it measures a store
// the paper figures don't use, so its points never perturb the
// paper-figure CSV artifacts.

// chaseBuckets is the bucket count of every fig-chase chain store: wide
// enough that concurrent clients rarely collide on a chain, small enough
// that a point provisions in microseconds.
const chaseBuckets = int64(128)

// chaseTune clamps the measurement windows: a handful of closed-loop
// clients per point converges in a fraction of the paper windows. Only
// tightens, never loosens, so tests can go smaller.
func chaseTune(cfg Config) Config {
	if cfg.Warmup > 50*time.Microsecond {
		cfg.Warmup = 50 * time.Microsecond
	}
	if cfg.Measure > time.Millisecond {
		cfg.Measure = time.Millisecond
	}
	return cfg
}

// chaseStrategy is one fig-chase series: a lookup strategy over the
// shared chain layout.
type chaseStrategy struct {
	name string
	get  func(c *kv.ChainClient, key int64) ([]byte, error)
}

var chaseStrategies = []chaseStrategy{
	{"PRISM chase (1 RTT)", (*kv.ChainClient).ChaseGet},
	{"per-hop one-sided", (*kv.ChainClient).HopGet},
	{"RPC (host CPU walks)", (*kv.ChainClient).RPCGet},
}

// chaseClients provisions a fresh depth-deep chain store on v's fabric
// and returns its client factory with the fleet it runs on. Chain stores
// are cheap to build (chaseBuckets*depth value writes), so there is no
// template.
func (v *env) chaseClients(depth int) (fleet, func(m *rdma.Client) *kv.ChainClient) {
	nic := rdma.NewServer(v.net, "chain-srv", model.SoftwarePRISM)
	opts := kv.ChainOptions{Buckets: chaseBuckets, Depth: int64(depth), MaxValue: v.cfg.ValueSize}
	srv, err := kv.NewChainStoreOn(nic, opts)
	must(err)
	loadKeys(v.cfg.ValueSize, opts.Buckets*opts.Depth, srv.Load)
	meta := srv.Meta()
	return v.clientMachines(), func(m *rdma.Client) *kv.ChainClient {
		return kv.NewChainClient(m.Connect(nic), meta)
	}
}

// at is the strategy's builder at one depth: every operation looks up the
// tail key of a uniformly chosen bucket — exactly depth hops.
func (st chaseStrategy) at(depth int) builder {
	return func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w)
		f, mk := v.chaseClients(depth)
		return cluster{e: v.e, client: func(id int) workload.Op {
			cl := mk(f.machine(id))
			rng := rand.New(rand.NewSource(clientSeed(seed, id)))
			return func() (int64, int64, error) {
				bucket := rng.Int63n(chaseBuckets)
				_, err := st.get(cl, bucket*int64(depth)+int64(depth)-1)
				return 1, 0, err
			}
		}}
	}
}

// chaseClients is the closed-loop client count per fig-chase point. The
// figure compares lookup latency shapes, not saturation, so a handful of
// clients suffices.
const chaseClients = 4

// chasePoint runs one ladder point: chaseClients closed-loop clients
// looking up depth-deep tail keys with st.
func chasePoint(st chaseStrategy, cfg Config, depth int) (Point, Telemetry) {
	cfg = chaseTune(cfg)
	return runPoint(cfg, "fig-chase", system{st.name, st.at(depth)}, load{},
		fmt.Sprintf("depth=%d", depth), chaseClients)
}

// FigChase sweeps chain depth across the three lookup strategies:
// lookup latency vs pointer hops. The per-point labels carry the verb-
// program counters (programs, steps, round trips saved) — they are
// virtual-time-deterministic, so the rendered CSV stays byte-identical
// at every -parallel setting.
func FigChase(cfg Config) *Figure {
	fig := &Figure{
		ID: "fig-chase", Title: "Pointer-chase depth sweep: one verb program vs k round trips",
		XLabel: "chain depth (pointer hops per lookup)", YLabel: "mean lookup latency (µs)",
	}
	series := make([]string, len(chaseStrategies))
	for i, st := range chaseStrategies {
		series[i] = st.name
	}
	sweep(cfg, fig, series, cfg.ChaseDepths, func(cfg Config, si, depth int) (Point, Telemetry) {
		return chasePoint(chaseStrategies[si], cfg, depth)
	}, func(_, di int, pt Point, tel Telemetry) string {
		return fmt.Sprintf("depth=%d  mean=%.2fµs  progs=%d steps=%d rtts_saved=%d",
			cfg.ChaseDepths[di], float64(pt.Mean)/1e3,
			tel.ProgOps, tel.ProgSteps, tel.ProgSteps-tel.ProgOps)
	})
	return fig
}
