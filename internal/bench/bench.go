// Package bench is the benchmark harness that regenerates every figure in
// the paper's evaluation (Figures 1–4, 6, 7, 9, 10, plus the §2.1
// RPC-vs-RDMA motivation measurement). Each Fig* function builds the
// corresponding simulated cluster, drives closed-loop clients through the
// paper's workload, and returns the same rows/series the paper plots.
//
// Scale note: the paper uses 8 M x 512 B objects (4 GB per store). The
// harness defaults to a smaller keyspace with identical uniform/Zipf
// contention characteristics so figures regenerate in seconds; Config.Keys
// restores full scale when memory allows. The shapes under comparison are
// insensitive to keyspace size at uniform access (§6.2's collisionless
// hash makes every slot independent).
package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"prism/internal/sim"
	"prism/internal/stats"
)

// Config scales an experiment.
type Config struct {
	Keys      int64 // objects in the store (paper: 8M)
	ValueSize int   // bytes per object (paper: 512)
	// ClientCounts is the closed-loop client ladder for throughput-latency
	// curves.
	ClientCounts []int
	// ClientMachines is how many client machines the clients are spread
	// over (paper: up to 11).
	ClientMachines int
	// Warmup and Measure are virtual-time windows.
	Warmup  time.Duration
	Measure time.Duration
	// MaxOps caps measured operations per point (0 = no cap) so high
	// throughput points do not dominate wall-clock time. The cap is
	// detected at window barriers, so a run may slightly overshoot it.
	MaxOps int64
	Seed   int64
	// Parallel is the worker count for the point runner: each figure point
	// is an independent simulation, and up to Parallel of them execute
	// concurrently. <= 1 runs points serially in declaration order. Output
	// is byte-identical either way (see PointSeed).
	Parallel int
	// Intra is the worker count inside one simulation: event domains (one
	// per simulated machine) execute lookahead windows on up to Intra
	// goroutines. <= 1 runs domains serially. Output is byte-identical at
	// any setting — cross-domain deliveries merge in a fixed total order at
	// window barriers. Composes with Parallel (points x domains).
	Intra int
	// ClientsPerDomain co-locates client machines into shared event
	// domains (affinity groups): machine i joins group i/ClientsPerDomain,
	// so a fleet of tiny client machines barriers as a few domains instead
	// of one each, and intra-group traffic skips the window barrier. <= 1
	// keeps one domain per machine. Output is byte-identical at any
	// grouping — delivery order is decided by (time, source node, send
	// sequence), never by domain layout.
	ClientsPerDomain int
	// CrossRack places the client machines in a different rack than the
	// servers and charges this much extra one-way latency per rack
	// crossing (the paper's §8 topology: clients and servers in distinct
	// racks). 0 keeps the fabric flat; the paper figures use the flat
	// default, the topology benchmark uses a nonzero value to demonstrate
	// per-pair lookahead.
	CrossRack time.Duration

	// ScaleClients is the client ladder for the fig-scale connection
	// sweep (clients == connections per server for its GET-only
	// workload); it deliberately overshoots the modeled QP cache so the
	// Storm-style cliff appears inside the sweep.
	ScaleClients []int
	// ScaleMachines is the fixed client-machine fleet fig-scale spreads
	// clients over: constant across the ladder, so low-count points run
	// mostly-idle domains (most barrier sweeps elided) and high-count points
	// pack hundreds of clients per machine.
	ScaleMachines int
	// QPCacheEntries overrides the hardware-class QP context cache
	// capacity used by fig-scale (0 = the calibrated
	// model.WithConnScaling default). Moving it moves the cliff; the
	// scale bench test asserts exactly that.
	QPCacheEntries int

	// ChaseDepths is the chain-depth ladder for the fig-chase verb-
	// program sweep: every lookup walks exactly depth pointer hops, so
	// the x axis is the round trips a per-hop client pays and a CHASE
	// program collapses.
	ChaseDepths []int
	// ChaseClients is the closed-loop client count per fig-chase point.
	// The figure compares lookup latency shapes, not saturation, so a
	// handful of clients suffices.
	ChaseClients int

	// templates is the loaded images the running sweep shares among its
	// points; sweep sets it on the Config it hands each point. nil outside
	// a sweep: every point builds its own.
	templates *templateSet
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		Keys:           16384,
		ValueSize:      512,
		ClientCounts:   []int{1, 2, 4, 8, 16, 32, 64, 128, 192, 288},
		ClientMachines: 11,
		Warmup:         200 * time.Microsecond,
		Measure:        4 * time.Millisecond,
		MaxOps:         0,
		Seed:           42,
		Parallel:       1,
		Intra:          1,

		ClientsPerDomain: 1,

		ScaleClients:  []int{16, 64, 256, 1024, 4096, 16384},
		ScaleMachines: 256,

		ChaseDepths:  []int{1, 2, 4, 8, 16},
		ChaseClients: 4,
	}
}

// ---------------------------------------------------------------------------
// Point runner
//
// Every figure point (one simulated cluster driven through one measurement
// window) is a self-contained job: it builds its own engine, seeds every
// RNG from PointSeed, and shares no state with other points. Jobs are
// declared in figure order and executed by runJobs — serially or on a
// worker pool — with results reassembled in declaration order, so the
// rendered figure is byte-identical regardless of worker count or
// scheduling.

// PointSeed derives the deterministic seed for one figure point from the
// run seed and the point's identity (figure ID, series name, and a point
// key such as "clients=64" or "theta=0.80"). Because the seed depends only
// on identity — never on execution order — serial and parallel runs
// produce identical measurements.
func PointSeed(base int64, figID, series, point string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(figID))
	h.Write([]byte{0})
	h.Write([]byte(series))
	h.Write([]byte{0})
	h.Write([]byte(point))
	return int64(h.Sum64())
}

// clientSeed derives the workload-generator seed for client i of a point
// (a SplitMix64 step, so per-client streams are decorrelated).
func clientSeed(pointSeed int64, i int) int64 {
	z := uint64(pointSeed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// runJobs executes jobs on up to workers goroutines and returns each
// job's wall-clock duration in declaration order (harness-side timing, not
// simulated time). workers <= 1 runs them serially on the calling
// goroutine. Jobs deliver their results by writing to their own slot of a
// slice the caller owns.
func runJobs(workers int, jobs []func()) []time.Duration {
	wall := make([]time.Duration, len(jobs))
	timed := func(i int) {
		start := time.Now()
		jobs[i]()
		wall[i] = time.Since(start)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			timed(i)
		}
		return wall
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				timed(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return wall
}

// Telemetry is one point's scheduler counters, read from the simulation
// world after the point has run: how many conservative time windows it
// took, how many barriers fired (each barrier synchronizes every domain),
// how many deliveries crossed a domain boundary (intra-group traffic does
// not), and the mean bounded window length in simulated time. It is read
// by prismbench -v and benchmark/ and never rendered into the text/CSV
// figures, whose bytes must stay independent of scheduler configuration
// (fig-scale and fig-chase label their points with the QP-cache and
// program counters, which are virtual-time-deterministic).
type Telemetry struct {
	Domains         int
	Windows         int64
	Barriers        int64
	CrossDeliveries int64
	MeanWindowNanos int64
	// Sparse-scheduler counters: barrier crossings whose hook sweep was
	// elided because no producer requested it (Barriers counts the sweeps
	// that ran), and idle domains skipped by the active-set window scan
	// (one per idle domain per executed window).
	BarrierSkips int64
	IdleSkips    int64
	// Burst/wheel counters (see sim.WorldStats): events fired, drained
	// instants (EventsExecuted/Bursts is the amortization ratio), fired
	// events that transited the timer wheel, timers cancelled before
	// firing, and wheel cascade re-files.
	EventsExecuted int64
	Bursts         int64
	MeanBurstLen   float64
	TimerFires     int64
	TimerStops     int64
	WheelCascades  int64
	// NIC connection-state cache counters (zero unless the point enabled
	// the QP model — the fig-scale family does).
	QPCacheHits      int64
	QPCacheMisses    int64
	QPCacheEvictions int64
	// Verb-program counters (zero unless the point issues CHASE/SCAN —
	// the fig-chase family does): programs executed on the servers, the
	// loop iterations they ran, and the round trips they collapsed
	// (steps - programs: a k-step program replaces k dependent verbs
	// with one).
	ProgramOps    int64
	StepsExecuted int64
	RTTsSaved     int64
	// AllocsPerOp and BytesPerOp are the harness-process heap allocation
	// deltas across the point's drive phase (warmup + measure + drain),
	// divided by measured operations — the datapath's allocation cost as
	// seen by the Go runtime. The counters are process-wide, so they are
	// only attributable when points run serially (-parallel 1); under a
	// point pool, concurrent points bleed into each other's deltas and
	// the numbers are upper bounds. Zero for points that run no load
	// driver (microbenchmarks).
	AllocsPerOp float64
	BytesPerOp  float64
}

// telemetry snapshots e's scheduler counters and attributes the heap
// allocation delta recorded by run to the point's measured operations.
// Point runners that drive a loadDriver report through this; runners
// without one use worldTelemetry and leave the allocation fields zero.
func (d *loadDriver) telemetry(e *sim.Engine) Telemetry {
	tel := worldTelemetry(e)
	if d.totalOps > 0 {
		tel.AllocsPerOp = float64(d.deltaMallocs) / float64(d.totalOps)
		tel.BytesPerOp = float64(d.deltaBytes) / float64(d.totalOps)
	}
	return tel
}

// worldTelemetry snapshots e's world scheduler counters.
func worldTelemetry(e *sim.Engine) Telemetry {
	st := e.World().Stats()
	return Telemetry{
		Domains:          st.Domains,
		Windows:          st.Windows,
		Barriers:         st.Barriers,
		CrossDeliveries:  st.CrossDeliveries,
		MeanWindowNanos:  int64(st.MeanWindow()),
		BarrierSkips:     st.BarrierSkips,
		IdleSkips:        st.IdleSkips,
		EventsExecuted:   st.EventsExecuted,
		Bursts:           st.Bursts,
		MeanBurstLen:     st.MeanBurstLen(),
		TimerFires:       st.TimerFires,
		TimerStops:       st.TimerStops,
		WheelCascades:    st.WheelCascades,
		QPCacheHits:      st.ConnCacheHits,
		QPCacheMisses:    st.ConnCacheMisses,
		QPCacheEvictions: st.ConnCacheEvictions,
		ProgramOps:       st.ProgramOps,
		StepsExecuted:    st.ProgramSteps,
		RTTsSaved:        st.ProgramSteps - st.ProgramOps,
	}
}

// Point is one measured point of a curve.
type Point = stats.Summary

// Series is a named curve (one line in a paper figure). For categorical
// figures (Fig. 1, Fig. 2), Labels names each point instead of a client
// count.
type Series struct {
	Name   string
	Points []Point
	Labels []string
}

// Figure is a reproduced figure: a set of series plus axis descriptions.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// PointWall is the harness wall-clock time of each figure point in
	// job-declaration order. Diagnostic only: benchmark/ reads it, and it
	// is never rendered into the text/CSV figures, whose output must stay
	// machine-independent.
	PointWall []time.Duration
	// PointTel is each point's scheduler telemetry in job-declaration
	// order (empty for figures that run no simulation). Diagnostic only,
	// like PointWall.
	PointTel []Telemetry
}

// Fprint renders the figure as aligned text tables.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(w, "   (%s vs %s)\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "-- %s\n", s.Name)
		for i, pt := range s.Points {
			if i < len(s.Labels) {
				fmt.Fprintf(w, "   %-28s %8.2fµs\n", s.Labels[i], float64(pt.Mean)/1e3)
			} else {
				fmt.Fprintf(w, "   %s\n", pt)
			}
		}
	}
}

// FprintCSV renders the figure as CSV rows for external plotting:
// figure,series,label,clients,throughput_ops,mean_us,p50_us,p99_us,aborts,errors
func (f *Figure) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "figure,series,label,clients,throughput_ops,mean_us,p50_us,p99_us,aborts,errors")
	for _, s := range f.Series {
		for i, pt := range s.Points {
			label := ""
			if i < len(s.Labels) {
				label = strings.ReplaceAll(s.Labels[i], ",", ";")
			}
			fmt.Fprintf(w, "%s,%s,%s,%d,%.0f,%.3f,%.3f,%.3f,%d,%d\n",
				f.ID, strings.ReplaceAll(s.Name, ",", ";"), label,
				pt.Clients, pt.Throughput,
				float64(pt.Mean)/1e3, float64(pt.Median)/1e3, float64(pt.P99)/1e3,
				pt.Aborts, pt.Errors)
		}
	}
}

// loadDriver runs a closed-loop client population against op, measuring
// completed ops and latencies in the virtual measurement window.
//
// op is invoked repeatedly per client; it returns the number of logical
// operations completed (usually 1; transactions may retry internally and
// still count 1) or an error to stop that client.
//
// Measurements are sharded per event domain: each client process records
// into the shard of the machine domain it was spawned on, so under
// domain-parallel execution (Config.Intra > 1) concurrent clients never
// share a recorder. Shards merge deterministically in run.
type loadDriver struct {
	e       *sim.Engine
	cfg     Config
	shards  map[*sim.Engine]*driverShard
	order   []*driverShard // first-spawn order, for a stable merge
	stopped bool           // written only between windows (barrier or run)
	// Filled by run: measured ops and the runtime heap-counter deltas
	// across the drive phase, for Telemetry's allocation fields.
	totalOps     int64
	deltaMallocs uint64
	deltaBytes   uint64
}

// driverShard is the measurement state owned by one event domain.
type driverShard struct {
	rec     *stats.LatencyRecorder
	ops     int64
	aborts  int64
	errs    int64
	lastEnd sim.Time
}

func newLoadDriver(e *sim.Engine, cfg Config) *loadDriver {
	d := &loadDriver{e: e, cfg: cfg, shards: make(map[*sim.Engine]*driverShard)}
	if cfg.Intra > 1 {
		e.World().SetWorkers(cfg.Intra)
	}
	if cfg.MaxOps > 0 {
		// The cap spans domains, so it is enforced where cross-domain
		// state may be read safely: at window barriers.
		e.World().OnBarrier(d.checkMaxOps)
	}
	return d
}

func (d *loadDriver) shard(dom *sim.Engine) *driverShard {
	sh := d.shards[dom]
	if sh == nil {
		sh = &driverShard{rec: stats.NewLatencyRecorder()}
		d.shards[dom] = sh
		d.order = append(d.order, sh)
	}
	return sh
}

// checkMaxOps is a barrier hook, so it runs only at crossings some
// producer requested (sim.World.OnBarrier). It rides on the fabric's
// requests instead of re-requesting itself, which would turn every
// crossing of a capped run (all of fig-scale) back into a sweep. That is
// sound because every op crosses domains: an op completes only through a
// delivery that a requested sweep flushed, and the closed-loop client
// that completes one sends its next request at once, which requests the
// very next crossing. So the cap is seen at the first crossing after the
// op that reached it, exactly where a hook run at every crossing would
// see it. The exception is a client that exits instead of sending — it
// is past the measurement window, where the run ends regardless.
func (d *loadDriver) checkMaxOps() {
	if d.stopped {
		return
	}
	var total int64
	for _, sh := range d.order {
		total += sh.ops
	}
	if total >= d.cfg.MaxOps {
		d.stopped = true
	}
}

// spawn starts one closed-loop client process on dom (the client's
// machine domain) running op until the driver stops.
func (d *loadDriver) spawn(dom *sim.Engine, name string, op func(p *sim.Proc) (aborts int64, err error)) {
	sh := d.shard(dom)
	dom.Go(name, func(p *sim.Proc) {
		warmEnd := sim.Time(d.cfg.Warmup)
		measureEnd := sim.Time(d.cfg.Warmup + d.cfg.Measure)
		for !d.stopped {
			start := p.Now()
			if start >= measureEnd {
				return
			}
			aborts, err := op(p)
			if err != nil {
				sh.errs++
				return
			}
			end := p.Now()
			if start >= warmEnd && end <= measureEnd {
				sh.rec.Record(end.Sub(start))
				sh.ops++
				sh.aborts += aborts
				if end > sh.lastEnd {
					sh.lastEnd = end
				}
			}
		}
	})
}

// run drives the simulation through the measurement window, drains the
// in-flight operations so client processes exit cleanly, and summarizes
// the per-domain shards.
func (d *loadDriver) run(clients int) Point {
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	d.e.RunUntil(sim.Time(d.cfg.Warmup + d.cfg.Measure))
	d.stopped = true
	d.e.Run() // drain in-flight ops; clients observe stopped and exit
	runtime.ReadMemStats(&msAfter)
	d.deltaMallocs = msAfter.Mallocs - msBefore.Mallocs
	d.deltaBytes = msAfter.TotalAlloc - msBefore.TotalAlloc
	rec := stats.NewLatencyRecorder()
	var ops, aborts, errs int64
	var lastEnd sim.Time
	for _, sh := range d.order {
		rec.Merge(sh.rec)
		ops += sh.ops
		aborts += sh.aborts
		errs += sh.errs
		if sh.lastEnd > lastEnd {
			lastEnd = sh.lastEnd
		}
	}
	// Throughput from ops completed in the effective measured window
	// (shorter than Measure when MaxOps stopped the run early).
	window := d.cfg.Measure
	if d.cfg.MaxOps > 0 && lastEnd > sim.Time(d.cfg.Warmup) {
		if span := lastEnd.Sub(sim.Time(d.cfg.Warmup)); span < window {
			window = span
		}
	}
	tput := float64(ops) / window.Seconds()
	d.totalOps = ops
	return Point{
		Clients:    clients,
		Throughput: tput,
		Mean:       rec.Mean(),
		Median:     rec.Median(),
		P99:        rec.P99(),
		Aborts:     aborts,
		Errors:     errs,
	}
}
