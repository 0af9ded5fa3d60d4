package bench

import (
	"fmt"
	"time"

	"prism/internal/alloc"
	"prism/internal/fabric"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/wire"
)

// microEnv is a two-machine setup (direct link unless a profile is given)
// for single-op latency measurements.
type microEnv struct {
	e    *sim.Engine
	srv  *rdma.Server
	conn *rdma.Conn
	reg  *memory.Region
}

// microIters is how many timed ops a probe issues after its one warmup op.
const microIters = 64

// measure runs op repeatedly and returns its steady-state round-trip time.
func (m *microEnv) measure(mk func(i int) []wire.Op) time.Duration {
	var total time.Duration
	m.e.Go("probe", func(p *sim.Proc) {
		// One warmup op.
		m.conn.Issue(p, mk(0)...)
		start := p.Now()
		for i := 1; i <= microIters; i++ {
			res := m.conn.Issue(p, mk(i)...)
			for _, r := range res {
				if !r.Status.OK() && r.Status != wire.StatusCASFailed {
					panic(fmt.Sprintf("bench: micro op status %v", r.Status))
				}
			}
		}
		total = time.Duration(p.Now().Sub(start)) / microIters
	})
	m.e.Run()
	return total
}

const microValue = 512 // Fig. 1 uses 512-byte values

// Fig1 reproduces Figure 1: microbenchmark latencies of READ, WRITE,
// Indirect READ, ALLOCATE, and Enhanced-CAS (512 B values) under the four
// deployments. Stock RDMA appears only for the ops it supports.
func Fig1(cfg Config) *Figure {
	deployments := []model.Deployment{
		model.HardwareRDMA,
		model.SoftwarePRISM,
		model.BlueFieldPRISM,
		model.ProjectedHardwarePRISM,
	}
	series := make([]string, len(deployments))
	for i, d := range deployments {
		series[i] = d.String()
	}
	opNames := []string{"Read", "Write", "Indirect Read", "Allocate", "Enhanced-CAS"}
	fig := &Figure{
		ID:     "fig1",
		Title:  "PRISM microbenchmarks vs hardware RDMA (512 B, direct link)",
		XLabel: "operation",
		YLabel: "latency (µs)",
	}
	sweep(cfg, fig, series, []int{0, 1, 2, 3, 4}, func(_ Config, di, opIdx int) (Point, Telemetry) {
		env := newMicroEnv(deployments[di], model.Default().WithNetwork(model.Direct),
			PointSeed(cfg.Seed, "fig1", series[di], opNames[opIdx]))
		var lat time.Duration // stays 0 where a stock RDMA NIC cannot express the op
		if microOpSupported(deployments[di], opIdx) {
			lat = env.runOp(opIdx)
		}
		return latencyPoint(lat), worldTelemetry(env.e)
	}, func(di, opIdx int, _ Point, _ Telemetry) string {
		if !microOpSupported(deployments[di], opIdx) {
			return opNames[opIdx] + " (unsupported)"
		}
		return opNames[opIdx]
	})
	return fig
}

// newMicroEnv builds the two-machine env with value, pointer, and CAS
// cells pre-seeded. A probe addresses 4.6 KiB of its region (the value
// ends at +4096+microValue) and one measure pops microIters+1 buffers, so
// that is what the env registers and what its free list may carve:
// registering allocates and zeroes, and a megabyte of it per probe was
// most of what the figure set's 35 probes cost the host.
func newMicroEnv(d model.Deployment, p model.Params, seed int64) *microEnv {
	e := sim.NewEngine(seed)
	net := fabric.New(e, p)
	srv := rdma.NewServer(net, "srv", d)
	reg, err := srv.Space().Register(8 << 10)
	if err != nil {
		panic(err)
	}
	srv.SetConnTempKey(reg.Key)
	srv.AddFreeList(alloc.NewFreeList(1, 1024, reg.Key, srv.Space(), microIters+1))
	cli := rdma.NewClient(net, "cli")
	env := &microEnv{e: e, srv: srv, conn: cli.Connect(srv), reg: reg}

	space := srv.Space()
	// value at +4096, pointer to it at +0, CAS cell [tag|addr] at +64.
	if err := space.Write(reg.Key, reg.Base+4096, make([]byte, microValue)); err != nil {
		panic(err)
	}
	if err := space.WriteU64(reg.Key, reg.Base, uint64(reg.Base+4096)); err != nil {
		panic(err)
	}
	cell := make([]byte, 16)
	prism.PutBE64(cell, 0, 1)
	prism.PutLE64(cell, 8, uint64(reg.Base+4096))
	if err := space.Write(reg.Key, reg.Base+64, cell); err != nil {
		panic(err)
	}
	return env
}

// microOpSupported reports whether deployment d can express Fig. 1 op
// opIdx: a stock RDMA NIC has only READ and WRITE.
func microOpSupported(d model.Deployment, opIdx int) bool {
	return d != model.HardwareRDMA || opIdx < 2
}

// runOp measures one of the five Fig. 1 ops.
func (env *microEnv) runOp(opIdx int) time.Duration {
	reg := env.reg
	key := reg.Key
	var casTag uint64 = 1
	return env.measure(func(i int) []wire.Op {
		switch opIdx {
		case 0: // Read
			return []wire.Op{prism.Read(key, reg.Base+4096, microValue)}
		case 1: // Write
			return []wire.Op{prism.Write(key, reg.Base+4096, make([]byte, microValue))}
		case 2: // Indirect Read
			return []wire.Op{prism.ReadIndirect(key, reg.Base, microValue)}
		case 3: // Allocate
			return []wire.Op{prism.Allocate(1, make([]byte, microValue))}
		default: // Enhanced CAS: GT on the tag, swap tag+addr (16 B masked)
			casTag++
			data := make([]byte, 16)
			prism.PutBE64(data, 0, casTag)
			prism.PutLE64(data, 8, uint64(reg.Base+4096))
			return []wire.Op{prism.CAS(key, reg.Base+64, wire.CASGt, data,
				prism.FieldMask(16, 0, 8), prism.FullMask(16))}
		}
	})
}

// read, twoReads and indirectRead are the three ways to fetch the 512 B
// object that Fig. 2 and §2.1 compare: directly, by a pointer read then a
// data read (two dependent round trips), and by one PRISM indirect READ.
func (env *microEnv) read() time.Duration {
	return env.measure(func(int) []wire.Op {
		return []wire.Op{prism.Read(env.reg.Key, env.reg.Base+4096, microValue)}
	})
}

func (env *microEnv) twoReads() time.Duration {
	return env.measure(func(int) []wire.Op {
		return []wire.Op{prism.Read(env.reg.Key, env.reg.Base, 8)}
	}) + env.read()
}

func (env *microEnv) indirectRead() time.Duration {
	return env.measure(func(int) []wire.Op {
		return []wire.Op{prism.ReadIndirect(env.reg.Key, env.reg.Base, microValue)}
	})
}

// Fig2 reproduces Figure 2: the latency of a dependent pointer chase —
// two RDMA READs vs one PRISM indirect READ — under the rack, cluster,
// and datacenter latency profiles.
func Fig2(cfg Config) *Figure {
	profiles := []model.SwitchProfile{model.Rack, model.Cluster, model.Datacenter}
	fig := &Figure{
		ID:     "fig2",
		Title:  "Indirect read latency: 2x RDMA vs PRISM, by network scale",
		XLabel: "network profile (rack / cluster / datacenter)",
		YLabel: "latency (µs)",
	}
	variants := []struct {
		name   string
		deploy model.Deployment
		fetch  func(*microEnv) time.Duration
	}{
		{"2x RDMA", model.HardwareRDMA, (*microEnv).twoReads},
		{"PRISM SW", model.SoftwarePRISM, (*microEnv).indirectRead},
		{"PRISM BlueField", model.BlueFieldPRISM, (*microEnv).indirectRead},
		{"PRISM HW (proj)", model.ProjectedHardwarePRISM, (*microEnv).indirectRead},
	}
	series := make([]string, len(variants))
	for i, v := range variants {
		series[i] = v.name
	}
	sweep(cfg, fig, series, profiles, func(_ Config, vi int, prof model.SwitchProfile) (Point, Telemetry) {
		v := variants[vi]
		env := newMicroEnv(v.deploy, model.Default().WithNetwork(prof), PointSeed(cfg.Seed, "fig2", v.name, prof.Name))
		return latencyPoint(v.fetch(env)), worldTelemetry(env.e)
	}, func(_, pi int, _ Point, _ Telemetry) string { return profiles[pi].Name })
	return fig
}

// RPCvsRDMA reproduces the §2.1 motivating measurement: one-sided READ vs
// two-sided RPC for a 512 B object, and the two-READ pointer chase that
// motivates PRISM. §2.1's testbed (40 GbE, different NICs than §4.3's
// direct-connect setup) measures a single READ at 3.2 µs and an eRPC at
// 5.6 µs, making one RPC cheaper than two dependent READs — the paper's
// motivating crossover — so this experiment uses that base latency.
func RPCvsRDMA(cfg Config) *Figure {
	fig := &Figure{
		ID:     "rpcvsrdma",
		Title:  "§2.1: one-sided READ vs two-sided RPC (512 B, 40 GbE testbed)",
		XLabel: "mechanism",
		YLabel: "latency (µs)",
	}
	mechanisms := []struct {
		name    string
		measure func(*microEnv) time.Duration
	}{
		{"one-sided READ", (*microEnv).read},
		{"two-sided RPC", func(env *microEnv) time.Duration {
			return env.measure(func(int) []wire.Op { return []wire.Op{prism.Send([]byte{1})} })
		}},
		{"2x one-sided READs", (*microEnv).twoReads},
	}
	series := make([]string, len(mechanisms))
	for i, m := range mechanisms {
		series[i] = m.name
	}
	sweep(cfg, fig, series, []string{"512B"}, func(_ Config, mi int, size string) (Point, Telemetry) {
		p := model.Default().WithNetwork(model.Direct)
		p.RDMABaseRTT = 3200 * time.Nanosecond // §2.1's 40 GbE testbed
		env := newMicroEnv(model.HardwareRDMA, p, PointSeed(cfg.Seed, "rpcvsrdma", series[mi], size))
		env.srv.SetRPCHandler(func(payload []byte) ([]byte, time.Duration) {
			// KV-style GET handler: return the 512 B object.
			return make([]byte, microValue), 0
		})
		return latencyPoint(mechanisms[mi].measure(env)), worldTelemetry(env.e)
	}, func(mi, _ int, _ Point, _ Telemetry) string { return series[mi] })
	return fig
}
