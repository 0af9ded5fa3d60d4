package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"prism/internal/bench"
)

// wantSimHash is the SHA-256 of the figure set's rendered CSV. The
// simulator runs on a virtual clock, so the CSV is the same bytes on any
// machine; a change to them is a change of simulated behaviour.
//
//go:embed testdata/sim_figures.sha256
var wantSimHash string

// simRep is one repetition of the figure set.
type simRep struct {
	wall, cpu  time.Duration
	figWall    []time.Duration // per figure, simFigures order
	pointWall  []time.Duration // per figure point, in declaration order
	ops        float64         // simulated client operations measured
	errors     int64           // simulated clients that stopped on an error
	hash       string
	tel        bench.Telemetry // summed over the points
	loadPoints int             // points that drove load, the base of tel.AllocsPerOp
	mallocs    uint64
	gcs        uint32
}

// runFigures runs the eight figures serially and accounts for them.
func runFigures(cfg bench.Config, rec *recorder) simRep {
	var r simRep
	var csv bytes.Buffer
	mallocs0, gcs0 := memCounters()
	cpu0 := cpuTime()
	t0 := time.Now()
	for _, f := range simFigures {
		s := time.Now()
		fig := f.fn(cfg)
		e := time.Now()
		r.figWall = append(r.figWall, e.Sub(s))
		if rec != nil {
			rec.add("bench."+f.name, s, e)
		}
		fig.FprintCSV(&csv)
		r.pointWall = append(r.pointWall, fig.PointWall...)
		// A point's measured operations are its throughput over the
		// virtual window; the latency microbenchmarks report none.
		for _, se := range fig.Series {
			for _, p := range se.Points {
				r.ops += p.Throughput * cfg.Measure.Seconds()
				r.errors += p.Errors
			}
		}
		for _, t := range fig.PointTel {
			r.tel.Windows += t.Windows
			r.tel.Barriers += t.Barriers
			r.tel.EventsExecuted += t.EventsExecuted
			r.tel.Bursts += t.Bursts
			r.tel.TimerFires += t.TimerFires
			r.tel.WheelCascades += t.WheelCascades
			if t.AllocsPerOp > 0 {
				r.tel.AllocsPerOp += t.AllocsPerOp
				r.loadPoints++
			}
		}
	}
	r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
	mallocs1, gcs1 := memCounters()
	r.mallocs, r.gcs = mallocs1-mallocs0, gcs1-gcs0
	sum := sha256.Sum256(csv.Bytes())
	r.hash = hex.EncodeToString(sum[:])
	return r
}

// simSetupPasses caps how many cold set-ups a run times below the live
// workloads' passes, because each one stays in memory.
const simSetupPasses = 9

// simTracedReps is how many repetitions a traced sim_figures run records.
const simTracedReps = 3

// simSetup times the figure set cut down to its set-up: every figure at
// one client count and a 1 µs window, on a keyspace no earlier call in
// this process has used, so every template cluster is built cold and run
// up to its first point.
func simSetup(pass int) time.Duration {
	cfg := simConfig()
	cfg.Keys = nKeys - 1 - int64(pass)
	cfg.ClientCounts = []int{1}
	cfg.ChaseDepths = []int{1}
	cfg.Warmup, cfg.Measure = time.Microsecond, time.Microsecond
	t0 := time.Now()
	for _, f := range simFigures {
		f.fn(cfg)
	}
	return time.Since(t0)
}

// runSim runs sim_figures: one discarded repetition of the figure set
// (it builds the templates), then whole repetitions until o.seconds have
// been measured (at least o.minSlices).
//
// A repetition takes seconds, longer than the host stays undisturbed, but
// its 134 figure points take milliseconds each and repeat exactly. So the
// timing metrics are built from each point's fastest wall time over the
// repetitions: their sum is the figure set's wall time on an undisturbed
// host, the analogue of the live workloads' best quartile of slices.
func runSim(o runOpts) (*result, error) {
	res := newResult(simName, o)
	cfg := simConfig()
	if o.shrink > 1 {
		// The smoke test keeps every figure but one point per curve; the
		// CSV hash then differs and is not compared.
		cfg.ClientCounts = []int{4}
		cfg.ChaseDepths = []int{2}
		cfg.Measure = 200 * time.Microsecond
	}
	want := strings.TrimSpace(wantSimHash)
	runFigures(cfg, nil)

	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	var measured time.Duration
	var last simRep
	var best []time.Duration // per point, fastest over the repetitions
	var mallocs uint64
	var gcs uint32
	hash := ""
	for n := 0; o.more(n, measured, simTracedReps); n++ {
		var root int
		if rec != nil {
			root = rec.begin("sim_figures.repetition", uint64(n))
		}
		r := runFigures(cfg, rec)
		if rec != nil {
			rec.end(root)
		}
		measured += r.wall
		last = r
		mallocs += r.mallocs
		gcs += r.gcs
		res.Attempted += int64(r.ops)
		res.Failed += r.errors
		switch {
		case hash == "":
			hash = r.hash
			if o.shrink == 1 && hash != want {
				res.FirstError = fmt.Sprintf("figure CSV sha256 %s, want %s", hash, want)
			}
		case r.hash != hash:
			res.FirstError = fmt.Sprintf("figure CSV differs between repetitions: %s then %s", hash, r.hash)
		}
		if best == nil {
			best = slices.Clone(r.pointWall)
		}
		for i, w := range r.pointWall {
			best[i] = min(best[i], w)
		}
		res.addSlice("load.slice_wall_s", r.wall.Seconds())
		res.addSlice("load.cpu_us_per_op", float64(r.cpu)/1e3/r.ops)
		res.addSlice("sim.events_per_s", float64(r.tel.EventsExecuted)/r.wall.Seconds())
		for i, f := range simFigures {
			res.addSlice("bench."+f.name+"_wall_s", r.figWall[i].Seconds())
		}
	}
	if res.FirstError != "" {
		// Wrong simulated output makes every operation of the run wrong.
		res.Failed = res.Attempted
	}
	res.Metrics["live_heap_mb"] = heapAfterGC()
	// Set-up is timed last: each pass leaves ~45 MB of templates in the
	// figure package's cache, which must not sit in the heap (and slow
	// the collector's pacing down) while the figures are measured.
	for pass := 0; pass < min(o.setupPasses, simSetupPasses); pass++ {
		ref := refPass() + refPass()
		d := simSetup(pass)
		res.addSetup(d, (ref+refPass()+refPass())/4)
	}

	res.reduce()
	var bestWall time.Duration
	for _, w := range best {
		bestWall += w
	}
	slices.Sort(best)
	res.Metrics["load.ops_per_s"] = last.ops / bestWall.Seconds()
	res.Metrics["load.p50_us"] = float64(percentileNS(best, 50)) / 1e3
	res.Metrics["load.p99_us"] = float64(percentileNS(best, 99)) / 1e3
	res.Samples["latency_samples_per_slice"] = int64(len(best))
	t := last.tel
	res.Metrics["sim.events"] = float64(t.EventsExecuted)
	res.Metrics["sim.mean_burst_len"] = ratio(float64(t.EventsExecuted), float64(t.Bursts))
	res.Metrics["sim.windows"] = float64(t.Windows)
	res.Metrics["sim.barriers"] = float64(t.Barriers)
	res.Metrics["sim.timer_fires"] = float64(t.TimerFires)
	res.Metrics["sim.wheel_cascades"] = float64(t.WheelCascades)
	res.Metrics["sim.allocs_per_op"] = ratio(t.AllocsPerOp, float64(last.loadPoints))
	res.Metrics["load.allocs_per_op"] = ratio(float64(mallocs), float64(res.Attempted))
	res.Metrics["load.gc_cycles"] = float64(gcs)
	res.Metrics["load.slice_cv"] = cv(res.Slices["load.slice_wall_s"])
	res.Metrics["load.failed_ops_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	res.Samples["slices"] = int64(len(res.Slices["load.slice_wall_s"]))

	if o.trace {
		// The same set with the point pool as wide as the machine:
		// diagnostic, it says how much of the serial wall is parallel work.
		pcfg := cfg
		pcfg.Parallel = runtime.NumCPU()
		res.Metrics["bench.parallel_wall_s"] = runFigures(pcfg, nil).wall.Seconds()
		if err := stageCosts(res.Metrics, cfg.ValueSize, kindGet, o.stageBatch()); err != nil {
			return nil, err
		}
		res.Layers, _ = layerTable([]*recorder{rec})
		if err := writeTrace(o.traceOut, res, []*recorder{rec}); err != nil {
			return nil, err
		}
	}
	return res, nil
}
