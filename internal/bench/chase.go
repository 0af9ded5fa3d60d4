package bench

import (
	"fmt"
	"math/rand"
	"time"

	"prism/internal/kv"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
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
// Like fig-scale, the family is not part of the "all" figure order: it
// measures a store the paper figures don't use, so its points never
// perturb the paper-figure CSV artifacts.

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

// chaseSystem is one fig-chase series: a lookup strategy over the
// shared chain layout.
type chaseSystem struct {
	name string
	get  func(p *sim.Proc, c *kv.ChainClient, key int64) ([]byte, error)
}

func chaseSystems() []chaseSystem {
	return []chaseSystem{
		{"PRISM chase (1 RTT)", func(p *sim.Proc, c *kv.ChainClient, key int64) ([]byte, error) {
			return c.ChaseGet(p, key)
		}},
		{"per-hop one-sided", func(p *sim.Proc, c *kv.ChainClient, key int64) ([]byte, error) {
			return c.HopGet(p, key)
		}},
		{"RPC (host CPU walks)", func(p *sim.Proc, c *kv.ChainClient, key int64) ([]byte, error) {
			return c.RPCGet(p, key)
		}},
	}
}

// buildChase provisions a fresh depth-deep chain store and a per-client
// factory on the measurement fabric. Chain stores are cheap to build
// (chaseBuckets*depth value writes), so no template caching is needed.
func buildChase(cfg Config, seed int64, depth int) (*sim.Engine, func(id int) *kv.ChainClient, placement) {
	e, net, _ := measureNet(cfg, seed)
	nic := rdma.NewServer(net, "chain-srv", model.SoftwarePRISM)
	opts := kv.ChainOptions{Buckets: chaseBuckets, Depth: int64(depth), MaxValue: cfg.ValueSize}
	srv, err := kv.NewChainStoreOn(nic, opts)
	if err != nil {
		panic(err)
	}
	gen := workload.NewGenerator(workload.Mix{
		Keys: opts.Buckets * opts.Depth, ReadFrac: 1, ValueSize: cfg.ValueSize,
	}, 0)
	for k := int64(0); k < opts.Buckets*opts.Depth; k++ {
		if err := srv.Load(k, gen.Value(k, 0)); err != nil {
			panic(err)
		}
	}
	machines := clientMachines(cfg, net)
	meta := srv.Meta()
	return e, func(id int) *kv.ChainClient {
		m := machines[id%len(machines)]
		return kv.NewChainClient(m.Connect(nic), meta)
	}, machinePlacement(machines)
}

// chasePoint runs one ladder point: Config.ChaseClients closed-loop
// clients looking up depth-deep tail keys with sys's strategy.
func chasePoint(sys chaseSystem, cfg Config, depth int) (Point, Telemetry) {
	cfg = chaseTune(cfg)
	seed := PointSeed(cfg.Seed, "fig-chase", sys.name, fmt.Sprintf("depth=%d", depth))
	e, mkClient, place := buildChase(cfg, seed, depth)
	d := newLoadDriver(e, cfg)
	for i := 0; i < cfg.ChaseClients; i++ {
		cl := mkClient(i)
		rng := rand.New(rand.NewSource(clientSeed(seed, i)))
		d.spawn(place(i), fmt.Sprintf("c%d", i), func(p *sim.Proc) (int64, error) {
			// The tail key of a uniform bucket: exactly depth hops.
			bucket := rng.Int63n(chaseBuckets)
			key := bucket*int64(depth) + int64(depth) - 1
			_, err := sys.get(p, cl, key)
			return 0, err
		})
	}
	pt := d.run(cfg.ChaseClients)
	return pt, d.telemetry(e)
}

// FigChase sweeps chain depth across the three lookup strategies:
// lookup latency vs pointer hops. The per-point labels carry the verb-
// program counters (programs, steps, round trips saved) — they are
// virtual-time-deterministic, so the rendered CSV stays byte-identical
// at every -parallel/-intra/-affinity setting.
func FigChase(cfg Config) *Figure {
	fig := &Figure{
		ID: "fig-chase", Title: "Pointer-chase depth sweep: one verb program vs k round trips",
		XLabel: "chain depth (pointer hops per lookup)", YLabel: "mean lookup latency (µs)",
	}
	systems := chaseSystems()
	var jobs []func() (Point, Telemetry)
	for _, sys := range systems {
		for _, depth := range cfg.ChaseDepths {
			sys, depth := sys, depth
			jobs = append(jobs, func() (Point, Telemetry) { return chasePoint(sys, cfg, depth) })
		}
	}
	pts, tels, wall := runPointJobs(cfg.Parallel, jobs)
	fig.PointWall, fig.PointTel = wall, tels
	for si, sys := range systems {
		s := Series{Name: sys.name}
		for di, depth := range cfg.ChaseDepths {
			idx := si*len(cfg.ChaseDepths) + di
			pt, tel := pts[idx], tels[idx]
			s.Points = append(s.Points, pt)
			s.Labels = append(s.Labels, fmt.Sprintf(
				"depth=%d  mean=%.2fµs  progs=%d steps=%d rtts_saved=%d",
				depth, float64(pt.Mean)/1e3,
				tel.ProgramOps, tel.StepsExecuted, tel.RTTsSaved))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}
