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
	// Warmup and Measure are virtual-time windows.
	Warmup  time.Duration
	Measure time.Duration
	Seed    int64
	// Parallel is the worker count for the point runner: each figure point
	// is an independent simulation, and up to Parallel of them execute
	// concurrently. <= 1 runs points serially in declaration order. Output
	// is byte-identical either way (see PointSeed).
	Parallel int
	// Intra is unread: a point runs on one engine on one goroutine. The
	// field stays until the repository benchmark stops assigning it.
	Intra int

	// ChaseDepths is the chain-depth ladder for the fig-chase verb-
	// program sweep: every lookup walks exactly depth pointer hops, so
	// the x axis is the round trips a per-hop client pays and a CHASE
	// program collapses.
	ChaseDepths []int

	// templates is the loaded images the running sweep shares among its
	// points; sweep sets it on the Config it hands each point. nil outside
	// a sweep: every point builds its own.
	templates *templateSet
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		Keys:         16384,
		ValueSize:    512,
		ClientCounts: []int{1, 2, 4, 8, 16, 32, 64, 128, 192, 288},
		Warmup:       200 * time.Microsecond,
		Measure:      4 * time.Millisecond,
		Seed:         42,
		Parallel:     1,

		ChaseDepths: []int{1, 2, 4, 8, 16},
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

// Telemetry is one point's engine counters (sim.Stats), read from the
// point's engine after it has run, plus the fields below. It is read by
// prismbench -v and benchmark/ and never rendered into the text/CSV
// figures, whose bytes must stay independent of the host (fig-chase labels
// its points with the program counters, which are virtual-time-
// deterministic).
type Telemetry struct {
	sim.Stats
	// Windows and Barriers are always zero: a point runs on one engine,
	// with no scheduling windows to synchronize. They stay because the
	// repository benchmark still reads them.
	Windows  int64
	Barriers int64
	// AllocsPerOp is the harness-process heap allocation delta across the
	// point's drive phase (warmup + measure + drain), divided by measured
	// operations — the datapath's allocation cost as seen by the Go
	// runtime. The counter is process-wide, so it is only attributable
	// when points run serially (-parallel 1); under a point pool,
	// concurrent points bleed into each other's deltas and the number is
	// an upper bound. Zero for points that run no load driver
	// (microbenchmarks).
	AllocsPerOp float64
}

// engineTelemetry snapshots e's counters.
func engineTelemetry(e *sim.Engine) Telemetry {
	return Telemetry{Stats: e.Stats()}
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
