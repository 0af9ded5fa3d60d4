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

// measure runs op repeatedly and returns its steady-state round-trip time.
func (m *microEnv) measure(mk func(i int) []wire.Op) time.Duration {
	const iters = 64
	var total time.Duration
	m.e.Go("probe", func(p *sim.Proc) {
		// One warmup op.
		m.conn.Issue(p, mk(0)...)
		start := p.Now()
		for i := 1; i <= iters; i++ {
			res := m.conn.Issue(p, mk(i)...)
			for _, r := range res {
				if !r.Status.OK() && r.Status != wire.StatusCASFailed {
					panic(fmt.Sprintf("bench: micro op status %v", r.Status))
				}
			}
		}
		total = time.Duration(p.Now().Sub(start)) / iters
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
	opNames := []string{"Read", "Write", "Indirect Read", "Allocate", "Enhanced-CAS"}

	fig := &Figure{
		ID:     "fig1",
		Title:  "PRISM microbenchmarks vs hardware RDMA (512 B, direct link)",
		XLabel: "operation",
		YLabel: "latency (µs)",
	}
	type cell struct {
		lat       time.Duration
		supported bool
	}
	var jobs []func() (cell, Telemetry)
	for _, d := range deployments {
		for opIdx, opName := range opNames {
			jobs = append(jobs, func() (cell, Telemetry) {
				seed := PointSeed(cfg.Seed, "fig1", d.String(), opName)
				env := newMicroEnvPrepared(d, model.Direct, seed)
				lat, supported := env.runOp(opIdx)
				return cell{lat, supported}, worldTelemetry(env.e)
			})
		}
	}
	cells, tels, wall := runPointJobs(cfg.Parallel, jobs)
	fig.PointWall, fig.PointTel = wall, tels
	for di, d := range deployments {
		s := Series{Name: d.String()}
		for opIdx, opName := range opNames {
			c := cells[di*len(opNames)+opIdx]
			lat, label := c.lat, opName
			if !c.supported {
				lat = 0 // not expressible on a stock RDMA NIC
				label = opName + " (unsupported)"
			}
			s.Points = append(s.Points, Point{Clients: 1, Mean: lat, Median: lat, P99: lat})
			s.Labels = append(s.Labels, label)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// newMicroEnvPrepared builds the env with value, pointer, and CAS cells
// pre-seeded.
func newMicroEnvPrepared(d model.Deployment, nw model.SwitchProfile, seed int64) *microEnv {
	return newMicroEnvWithParams(d, model.Default().WithNetwork(nw), seed)
}

func newMicroEnvWithParams(d model.Deployment, p model.Params, seed int64) *microEnv {
	e := sim.NewEngine(seed)
	net := fabric.New(e, p)
	srv := rdma.NewServer(net, "srv", d)
	reg, err := srv.Space().Register(1 << 20)
	if err != nil {
		panic(err)
	}
	srv.SetConnTempKey(reg.Key)
	srv.AddFreeList(alloc.NewFreeList(1, 1024, reg.Key, srv.Space(), 1024))
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

// runOp measures one of the five Fig. 1 ops; reports supported=false when
// the deployment cannot express it.
func (env *microEnv) runOp(opIdx int) (time.Duration, bool) {
	reg := env.reg
	key := reg.Key
	var casTag uint64 = 1
	mk := func(i int) []wire.Op {
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
	}
	if env.srv.Deployment() == model.HardwareRDMA && opIdx >= 2 {
		return 0, false
	}
	return env.measure(mk), true
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
	type variant struct {
		name   string
		deploy model.Deployment
		twoRTT bool
	}
	variants := []variant{
		{"2x RDMA", model.HardwareRDMA, true},
		{"PRISM SW", model.SoftwarePRISM, false},
		{"PRISM BlueField", model.BlueFieldPRISM, false},
		{"PRISM HW (proj)", model.ProjectedHardwarePRISM, false},
	}
	var jobs []func() (time.Duration, Telemetry)
	for _, v := range variants {
		for _, prof := range profiles {
			jobs = append(jobs, func() (time.Duration, Telemetry) {
				seed := PointSeed(cfg.Seed, "fig2", v.name, prof.Name)
				env := newMicroEnvPrepared(v.deploy, prof, seed)
				var lat time.Duration
				if v.twoRTT {
					// Pointer read, then data read: two dependent round trips.
					lat = env.measure(func(i int) []wire.Op {
						return []wire.Op{prism.Read(env.reg.Key, env.reg.Base, 8)}
					}) + env.measure(func(i int) []wire.Op {
						return []wire.Op{prism.Read(env.reg.Key, env.reg.Base+4096, microValue)}
					})
				} else {
					lat = env.measure(func(i int) []wire.Op {
						return []wire.Op{prism.ReadIndirect(env.reg.Key, env.reg.Base, microValue)}
					})
				}
				return lat, worldTelemetry(env.e)
			})
		}
	}
	lats, tels, wall := runPointJobs(cfg.Parallel, jobs)
	fig.PointWall, fig.PointTel = wall, tels
	for vi, v := range variants {
		s := Series{Name: v.name}
		for pi, prof := range profiles {
			lat := lats[vi*len(profiles)+pi]
			s.Points = append(s.Points, Point{Clients: 1, Mean: lat, Median: lat, P99: lat})
			s.Labels = append(s.Labels, prof.Name)
		}
		fig.Series = append(fig.Series, s)
	}
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
	newEnv := func(name string) *microEnv {
		p := model.Default().WithNetwork(model.Direct)
		p.RDMABaseRTT = 3200 * time.Nanosecond // §2.1's 40 GbE testbed
		env := newMicroEnvWithParams(model.HardwareRDMA, p,
			PointSeed(cfg.Seed, "rpcvsrdma", name, "512B"))
		env.srv.SetRPCHandler(func(payload []byte) ([]byte, time.Duration) {
			// KV-style GET handler: return the 512 B object.
			return make([]byte, microValue), 0
		})
		return env
	}
	names := []string{"one-sided READ", "two-sided RPC", "2x one-sided READs"}
	jobs := []func() (time.Duration, Telemetry){
		func() (time.Duration, Telemetry) {
			env := newEnv(names[0])
			lat := env.measure(func(i int) []wire.Op {
				return []wire.Op{prism.Read(env.reg.Key, env.reg.Base+4096, microValue)}
			})
			return lat, worldTelemetry(env.e)
		},
		func() (time.Duration, Telemetry) {
			env := newEnv(names[1])
			lat := env.measure(func(i int) []wire.Op {
				return []wire.Op{prism.Send([]byte{1})}
			})
			return lat, worldTelemetry(env.e)
		},
		func() (time.Duration, Telemetry) {
			env := newEnv(names[2])
			lat := env.measure(func(i int) []wire.Op {
				return []wire.Op{prism.Read(env.reg.Key, env.reg.Base, 8)}
			}) + env.measure(func(i int) []wire.Op {
				return []wire.Op{prism.Read(env.reg.Key, env.reg.Base+4096, microValue)}
			})
			return lat, worldTelemetry(env.e)
		},
	}
	lats, tels, wall := runPointJobs(cfg.Parallel, jobs)
	fig.PointWall, fig.PointTel = wall, tels
	for i, name := range names {
		lat := lats[i]
		fig.Series = append(fig.Series, Series{
			Name:   name,
			Points: []Point{{Clients: 1, Mean: lat, Median: lat, P99: lat}},
			Labels: []string{name},
		})
	}
	return fig
}
