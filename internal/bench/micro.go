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

// microIters is how many timed round trips a probe issues after its
// warm-up: on an idle simulated link each takes the same virtual time, so
// measure panics if one differs (TestMicroProbesSteady times 64).
const microIters = 2

// A microOp is the ith issue of a probe's op on env; issue 0 is the warm-up.
type microOp func(env *microEnv, i int) []wire.Op

// measure issues op's warm-up, then microIters timed round trips, and
// returns the one time they all take: the steady-state round-trip time.
func (m *microEnv) measure(op microOp) time.Duration {
	var trips [microIters]time.Duration
	m.e.Go("probe", func(p *sim.Proc) {
		m.conn.Issue(op(m, 0))
		for i := range trips {
			start := p.Now()
			res, _ := m.conn.Issue(op(m, i+1))
			trips[i] = time.Duration(p.Now().Sub(start))
			for _, r := range res {
				if !r.Status.OK() && r.Status != wire.StatusCASFailed {
					panic(fmt.Sprintf("bench: micro op status %v", r.Status))
				}
			}
		}
	})
	m.e.Run()
	for _, d := range trips {
		if d != trips[0] {
			panic(fmt.Sprintf("bench: micro round trips differ: %v", trips))
		}
	}
	return trips[0]
}

// A microPoint is one point of a micro figure: the deployment and network
// its env runs, and the dependent ops whose round trips add up to its
// latency (none where the deployment does not execute the op). The
// figures and TestMicroProbesSteady build their points the same way.
type microPoint struct {
	deploy model.Deployment
	params model.Params
	ops    []microOp
}

// run measures the point on a fresh env. A point with no ops has nothing
// to measure, so it builds no env and reports zero latency and telemetry.
func (pt microPoint) run(seed int64) (Point, Telemetry) {
	if len(pt.ops) == 0 {
		return latencyPoint(0), Telemetry{}
	}
	env := newMicroEnv(pt.deploy, pt.params, seed)
	var lat time.Duration
	for _, op := range pt.ops {
		lat += env.measure(op)
	}
	return latencyPoint(lat), engineTelemetry(env.e)
}

const microValue = 512 // Fig. 1 uses 512-byte values

var (
	fig1Deployments = []model.Deployment{
		model.HardwareRDMA,
		model.SoftwarePRISM,
		model.BlueFieldPRISM,
		model.ProjectedHardwarePRISM,
	}
	fig1Ops = []string{"Read", "Write", "Indirect Read", "Allocate", "Enhanced-CAS"}
)

// Fig1 reproduces Figure 1: microbenchmark latencies of READ, WRITE,
// Indirect READ, ALLOCATE, and Enhanced-CAS (512 B values) under the four
// deployments. Stock RDMA appears only for the ops it supports.
func Fig1(cfg Config) *Figure {
	series := make([]string, len(fig1Deployments))
	for i, d := range fig1Deployments {
		series[i] = d.String()
	}
	fig := &Figure{
		ID:     "fig1",
		Title:  "PRISM microbenchmarks vs hardware RDMA (512 B, direct link)",
		XLabel: "operation",
		YLabel: "latency (µs)",
	}
	sweep(cfg, fig, series, []int{0, 1, 2, 3, 4}, func(_ Config, di, opIdx int) (Point, Telemetry) {
		return fig1Point(di, opIdx).run(PointSeed(cfg.Seed, "fig1", series[di], fig1Ops[opIdx]))
	}, func(di, opIdx int, _ Point, _ Telemetry) string {
		if len(fig1Point(di, opIdx).ops) == 0 {
			return fig1Ops[opIdx] + " (unsupported)"
		}
		return fig1Ops[opIdx]
	})
	return fig
}

// fig1Point is Fig. 1's op opIdx under deployment di, on a direct link.
func fig1Point(di, opIdx int) microPoint {
	pt := microPoint{deploy: fig1Deployments[di], params: model.Default().WithNetwork(model.Direct)}
	if model.Executes(pt.deploy, fig1Op(0, 0, opIdx, 0)) {
		pt.ops = []microOp{func(env *microEnv, i int) []wire.Op { return fig1Op(env.reg.Key, env.reg.Base, opIdx, i) }}
	}
	return pt
}

// newMicroEnv builds the two-machine env with value, pointer, and CAS
// cells pre-seeded, and §2.1's KV-style GET handler, which returns the
// 512 B object to an RPC. A probe addresses 4.6 KiB of its region (the value
// ends at +4096+microValue) and one measure pops microIters+1 buffers, so
// that is what the env registers and what its free list may carve.
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
	srv.SetRPCHandler(func([]byte) ([]byte, time.Duration) { return make([]byte, microValue), 0 })
	env := &microEnv{e: e, srv: srv, conn: cli.Connect(srv), reg: reg}

	space := srv.Space()
	// value at +4096 (zero as registered), pointer at +0, [tag|addr] at +64.
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

// fig1Op is the ith issue of Fig. 1 op opIdx against a micro env's region
// at base under key.
func fig1Op(key memory.RKey, base memory.Addr, opIdx, i int) []wire.Op {
	switch opIdx {
	case 0: // Read
		return []wire.Op{prism.Read(key, base+4096, microValue)}
	case 1: // Write
		return []wire.Op{prism.Write(key, base+4096, make([]byte, microValue))}
	case 2: // Indirect Read
		return []wire.Op{prism.ReadIndirect(key, base, microValue)}
	case 3: // Allocate
		return []wire.Op{prism.Allocate(1, make([]byte, microValue))}
	default: // Enhanced CAS: GT on the tag, swap tag+addr (16 B masked)
		data := make([]byte, 16)
		prism.PutBE64(data, 0, uint64(i)+2) // above the cell's tag 1, rising
		prism.PutLE64(data, 8, uint64(base+4096))
		return []wire.Op{prism.CAS(key, base+64, wire.CASGt, data,
			prism.FieldMask(16, 0, 8), prism.FullMask(16))}
	}
}

// valueRead, pointerRead and indirectRead fetch the 512 B object that
// Fig. 2 and §2.1 compare: directly, by two dependent round trips
// (pointerRead, then valueRead), and by one PRISM indirect READ.
func valueRead(env *microEnv, _ int) []wire.Op {
	return []wire.Op{prism.Read(env.reg.Key, env.reg.Base+4096, microValue)}
}

func pointerRead(env *microEnv, _ int) []wire.Op {
	return []wire.Op{prism.Read(env.reg.Key, env.reg.Base, 8)}
}

func indirectRead(env *microEnv, _ int) []wire.Op {
	return []wire.Op{prism.ReadIndirect(env.reg.Key, env.reg.Base, microValue)}
}

func rpcCall(*microEnv, int) []wire.Op { return []wire.Op{prism.Send([]byte{1})} }

// A microSeries is a series of Fig. 2 or §2.1: a deployment and the ops
// that fetch the object.
type microSeries struct {
	name   string
	deploy model.Deployment
	ops    []microOp
}

func seriesNames(ss []microSeries) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.name
	}
	return out
}

var (
	fig2Profiles = []model.SwitchProfile{model.Rack, model.Cluster, model.Datacenter}
	fig2Variants = []microSeries{
		{"2x RDMA", model.HardwareRDMA, []microOp{pointerRead, valueRead}},
		{"PRISM SW", model.SoftwarePRISM, []microOp{indirectRead}},
		{"PRISM BlueField", model.BlueFieldPRISM, []microOp{indirectRead}},
		{"PRISM HW (proj)", model.ProjectedHardwarePRISM, []microOp{indirectRead}},
	}
	rpcMechanisms = []microSeries{
		{"one-sided READ", model.HardwareRDMA, []microOp{valueRead}},
		{"two-sided RPC", model.HardwareRDMA, []microOp{rpcCall}},
		{"2x one-sided READs", model.HardwareRDMA, []microOp{pointerRead, valueRead}},
	}
)

// Fig2 reproduces Figure 2: the latency of a dependent pointer chase —
// two RDMA READs vs one PRISM indirect READ — under the rack, cluster,
// and datacenter latency profiles.
func Fig2(cfg Config) *Figure {
	fig := &Figure{
		ID:     "fig2",
		Title:  "Indirect read latency: 2x RDMA vs PRISM, by network scale",
		XLabel: "network profile (rack / cluster / datacenter)",
		YLabel: "latency (µs)",
	}
	series := seriesNames(fig2Variants)
	sweep(cfg, fig, series, fig2Profiles, func(_ Config, vi int, prof model.SwitchProfile) (Point, Telemetry) {
		return fig2Point(vi, prof).run(PointSeed(cfg.Seed, "fig2", series[vi], prof.Name))
	}, func(_, pi int, _ Point, _ Telemetry) string { return fig2Profiles[pi].Name })
	return fig
}

func fig2Point(vi int, prof model.SwitchProfile) microPoint {
	v := fig2Variants[vi]
	return microPoint{v.deploy, model.Default().WithNetwork(prof), v.ops}
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
	series := seriesNames(rpcMechanisms)
	sweep(cfg, fig, series, []string{"512B"}, func(_ Config, mi int, size string) (Point, Telemetry) {
		return rpcPoint(mi).run(PointSeed(cfg.Seed, "rpcvsrdma", series[mi], size))
	}, func(mi, _ int, _ Point, _ Telemetry) string { return series[mi] })
	return fig
}

func rpcPoint(mi int) microPoint {
	p := model.Default().WithNetwork(model.Direct)
	p.RDMABaseRTT = 3200 * time.Nanosecond // §2.1's 40 GbE testbed
	return microPoint{rpcMechanisms[mi].deploy, p, rpcMechanisms[mi].ops}
}
