// Command prismbench renders the paper's evaluation figures, regenerated on
// the simulated cluster, as text tables or CSV:
//
//	prismbench fig3                  # one figure (names: prismbench -h)
//	prismbench -format csv all       # the paper's figures and §2.1
//
// The figures and the order of `all` come from the registry
// bench.Figures (DESIGN.md §4 indexes them against the paper). fig-chase
// and ablation-freelist-classes are not part of `all`: fig-chase measures
// the linked-chain store, so its points are not comparable to the
// paper-figure artifacts, and the ablation isolates one design choice,
// §3.2's free-list size classes.
//
// prismbench renders; it does not measure itself. Wall-clock and per-layer
// numbers come from the repository's benchmark (`bash benchmark/run.sh`),
// profiles from `go test -bench Figure/<name> -cpuprofile ...` in the
// repository root. Flags scale the experiments; defaults regenerate every
// figure in seconds at reduced (shape-preserving) keyspace scale.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"prism/internal/bench"
	"prism/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: parse args, render the named figure (or every
// `all` member in registry order) to stdout, diagnostics to stderr, and
// return the exit status — 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	cfg := bench.DefaultConfig()
	fs := flag.NewFlagSet("prismbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&cfg.Keys, "keys", cfg.Keys, "objects per store (paper: 8388608)")
	fs.IntVar(&cfg.ValueSize, "value", cfg.ValueSize, "object size in bytes")
	fs.DurationVar(&cfg.Measure, "measure", cfg.Measure, "virtual measurement window")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "simulation seed")
	maxClients := fs.Int("max-clients", 0, "truncate the client ladder of the throughput-latency figures at this count (0 = full ladder)")
	format := fs.String("format", "text", "output format: text or csv")
	fs.IntVar(&cfg.Parallel, "parallel", 1, "figure-point worker goroutines (0 = GOMAXPROCS; output is identical at any setting)")
	verbose := fs.Bool("v", false, "print a one-line scheduler-telemetry summary per figure to stderr")
	fs.Usage = func() {
		names := make([]string, len(bench.Figures))
		for i, f := range bench.Figures {
			names[i] = f.Name
		}
		fmt.Fprintf(stderr, "usage: prismbench [flags] {%s|all}\n", strings.Join(names, "|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	var figures []bench.FigureDef
	for _, f := range bench.Figures {
		if f.Name == fs.Arg(0) || (fs.Arg(0) == "all" && f.All) {
			figures = append(figures, f)
		}
	}
	if len(figures) == 0 {
		fmt.Fprintf(stderr, "prismbench: unknown figure %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	if *maxClients > 0 {
		cfg.ClientCounts = truncate(cfg.ClientCounts, *maxClients)
	}

	for _, f := range figures {
		start := time.Now()
		fig := f.Fn(cfg)
		wall := time.Since(start).Seconds()
		if *verbose {
			summarize(stderr, fig, wall)
		}
		if *format == "csv" {
			fig.FprintCSV(stdout)
		} else {
			fig.Fprint(stdout)
			fmt.Fprintf(stdout, "   [generated in %.1fs]\n\n", wall)
		}
	}
	return 0
}

// truncate keeps the rungs of the client ladder up to max (max itself when
// every rung is above it).
func truncate(ladder []int, max int) []int {
	var kept []int
	for _, c := range ladder {
		if c <= max {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		kept = []int{max}
	}
	return kept
}

// summarize prints the -v line: the figure's per-point scheduler telemetry
// summed (burst length as a figure-wide mean), its wall clock, and the
// process's peak resident set so far — what standing the figure's stores
// up at -keys cost the host.
func summarize(w io.Writer, fig *bench.Figure, wall float64) {
	var t sim.Stats
	for _, p := range fig.PointTel {
		t.EventsExecuted += p.EventsExecuted
		t.Bursts += p.Bursts
		t.TimerFires += p.TimerFires
		t.TimerStops += p.TimerStops
		t.WheelCascades += p.WheelCascades
		t.ProgOps += p.ProgOps
		t.ProgSteps += p.ProgSteps
	}
	fmt.Fprintf(w, "prismbench: %s: %d points, events=%d mean-burst=%.2f timer-fires=%d timer-stops=%d cascades=%d progs=%d steps=%d rtts-saved=%d wall=%.1fs peak_rss_mb=%d\n",
		fig.ID, len(fig.PointTel), t.EventsExecuted, t.MeanBurstLen(), t.TimerFires, t.TimerStops, t.WheelCascades,
		t.ProgOps, t.ProgSteps, t.ProgSteps-t.ProgOps, wall, peakRSSMB())
}

// peakRSSMB is the process's peak resident set from getrusage, in the MB
// of `free -m` (2^20 bytes); ru_maxrss is in KiB on Linux. Zero if the
// call fails.
func peakRSSMB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss) >> 10
}
