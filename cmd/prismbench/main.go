// Command prismbench regenerates the paper's evaluation figures on the
// simulated cluster. Each subcommand corresponds to one figure (see
// DESIGN.md's per-experiment index):
//
//	prismbench fig1        # microbenchmark latencies (Fig. 1)
//	prismbench fig2        # indirect read vs network scale (Fig. 2)
//	prismbench fig3        # PRISM-KV vs Pilaf, 100% reads (Fig. 3)
//	prismbench fig4        # PRISM-KV vs Pilaf, 50% reads (Fig. 4)
//	prismbench fig6        # PRISM-RS vs ABDLOCK, uniform (Fig. 6)
//	prismbench fig7        # PRISM-RS vs ABDLOCK, contention (Fig. 7)
//	prismbench fig9        # PRISM-TX vs FaRM, uniform (Fig. 9)
//	prismbench fig10       # PRISM-TX vs FaRM, contention (Fig. 10)
//	prismbench rpcvsrdma   # §2.1 motivating measurement
//	prismbench ext-shards  # extension: PRISM-TX shard scaling
//	prismbench ext-multikey # extension: multi-key transactions
//	prismbench fig-scale   # extension: connection scaling to the QP-cache cliff
//	prismbench fig-chase   # extension: CHASE verb programs vs per-hop walks
//	prismbench all         # everything above except fig-scale and fig-chase
//
// fig-scale and fig-chase are not part of "all": fig-scale enables the
// connection-scaling cost model (model.Params.WithConnScaling) and
// fig-chase measures the linked-chain store, so neither's points are
// comparable to the paper-figure artifacts.
//
// Flags scale the experiments; defaults regenerate every figure in
// seconds at reduced (shape-preserving) keyspace scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"prism/internal/bench"
)

// figRecord is one figure's wall-clock entry in the -json output.
// PointWallSeconds is the host wall clock of each figure point in
// generation order — the per-point cost the domain scheduler and the
// point pool are amortizing (diagnostic only; never part of the CSV).
// PointTelemetry is the scheduler telemetry of each point in the same
// order: window/barrier counts are what demonstrate the lookahead
// matrix and affinity grouping on hosts where wall clock cannot. The
// burst/wheel counters (events, bursts, timer fires/stops, cascades)
// are summed over points; MeanBurstLen is the figure-wide ratio.
// MeanAllocsPerOp/MeanBytesPerOp average the load-driver points'
// harness-heap allocation cost (zero-valued points — microbenchmarks —
// are excluded); attributable only under -parallel 1.
type figRecord struct {
	ID               string            `json:"id"`
	WallSeconds      float64           `json:"wall_seconds"`
	Series           int               `json:"series"`
	Points           int               `json:"points"`
	Windows          int64             `json:"windows"`
	Barriers         int64             `json:"barriers"`
	CrossDeliveries  int64             `json:"cross_deliveries"`
	EventsExecuted   int64             `json:"events_executed"`
	Bursts           int64             `json:"bursts"`
	MeanBurstLen     float64           `json:"mean_burst_len"`
	BarrierSkips     int64             `json:"barrier_skips"`
	IdleSkips        int64             `json:"idle_skips"`
	TimerFires       int64             `json:"timer_fires"`
	TimerStops       int64             `json:"timer_stops"`
	WheelCascades    int64             `json:"wheel_cascades"`
	QPCacheHits      int64             `json:"qp_cache_hits,omitempty"`
	QPCacheMisses    int64             `json:"qp_cache_misses,omitempty"`
	QPCacheEvictions int64             `json:"qp_cache_evictions,omitempty"`
	ProgramOps       int64             `json:"program_ops,omitempty"`
	StepsExecuted    int64             `json:"steps_executed,omitempty"`
	RTTsSaved        int64             `json:"rtts_saved,omitempty"`
	MeanAllocsPerOp  float64           `json:"mean_allocs_per_op,omitempty"`
	MeanBytesPerOp   float64           `json:"mean_bytes_per_op,omitempty"`
	PointWallSeconds []float64         `json:"point_wall_seconds,omitempty"`
	PointTelemetry   []bench.Telemetry `json:"point_telemetry,omitempty"`
}

// benchRecord is the perf record written by -json: enough to compare
// serial vs parallel runs and to rerun the exact command. Intra is the
// effective domain-worker count; IntraRequested is recorded only when
// the requested -intra exceeded the CPU count and was clamped.
type benchRecord struct {
	Command          string      `json:"command"`
	Seed             int64       `json:"seed"`
	Parallel         int         `json:"parallel"`
	Intra            int         `json:"intra"`
	IntraRequested   int         `json:"intra_requested,omitempty"`
	Affinity         int         `json:"affinity,omitempty"`
	CrossRackNanos   int64       `json:"crossrack_ns,omitempty"`
	ScaleMachines    int         `json:"scale_machines,omitempty"`
	QPCacheEntries   int         `json:"qp_cache_entries,omitempty"`
	GOMAXPROCS       int         `json:"gomaxprocs"`
	NumCPU           int         `json:"num_cpu"`
	Keys             int64       `json:"keys"`
	ValueSize        int         `json:"value_size"`
	Figures          []figRecord `json:"figures"`
	TotalWallSeconds float64     `json:"total_wall_seconds"`
}

func main() {
	cfg := bench.DefaultConfig()
	keys := flag.Int64("keys", cfg.Keys, "objects per store (paper: 8388608)")
	valueSize := flag.Int("value", cfg.ValueSize, "object size in bytes")
	machines := flag.Int("machines", cfg.ClientMachines, "client machines")
	measure := flag.Duration("measure", cfg.Measure, "virtual measurement window")
	warmup := flag.Duration("warmup", cfg.Warmup, "virtual warmup window")
	seed := flag.Int64("seed", cfg.Seed, "simulation seed")
	maxClients := flag.Int("max-clients", 0, "truncate the client ladder at this count (0 = full ladder)")
	format := flag.String("format", "text", "output format: text or csv")
	parallel := flag.Int("parallel", 1, "figure-point worker goroutines (0 = GOMAXPROCS; output is identical at any setting)")
	intra := flag.Int("intra", 1, "domain worker goroutines inside each figure point (0 = GOMAXPROCS, clamped to NumCPU; output is identical at any setting)")
	affinity := flag.Int("affinity", 1, "client machines per event domain (affinity groups; <=1 = one domain each; output is identical at any setting)")
	crossRack := flag.Duration("crossrack", 0, "extra one-way latency between the client and server racks (0 = flat fabric, the paper's figures; nonzero changes the physics)")
	scaleMachines := flag.Int("scale-machines", cfg.ScaleMachines, "fixed client-machine fleet for fig-scale")
	qpEntries := flag.Int("qp-entries", 0, "override the hardware-class QP context cache capacity for fig-scale (0 = calibrated default; moving it moves the cliff)")
	verbose := flag.Bool("v", false, "print a one-line scheduler-telemetry summary per figure to stderr")
	jsonPath := flag.String("json", "", "write a wall-clock/throughput record to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: prismbench [flags] {fig1|fig2|fig3|fig4|fig6|fig7|fig9|fig10|rpcvsrdma|ext-shards|ext-multikey|fig-scale|fig-chase|all}\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	cfg.Keys = *keys
	cfg.ValueSize = *valueSize
	cfg.ClientMachines = *machines
	cfg.Measure = *measure
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.Parallel = *parallel
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	cfg.Intra = *intra
	if cfg.Intra <= 0 {
		cfg.Intra = runtime.GOMAXPROCS(0)
	}
	intraRequested := 0
	if n := runtime.NumCPU(); cfg.Intra > n {
		fmt.Fprintf(os.Stderr, "prismbench: -intra %d exceeds the %d available CPUs; clamping to %d (output is identical, extra workers only oversubscribe)\n",
			cfg.Intra, n, n)
		intraRequested = cfg.Intra
		cfg.Intra = n
	}
	cfg.ClientsPerDomain = *affinity
	cfg.CrossRack = *crossRack
	cfg.ScaleMachines = *scaleMachines
	cfg.QPCacheEntries = *qpEntries
	if *maxClients > 0 {
		truncate := func(full []int) []int {
			var ladder []int
			for _, c := range full {
				if c <= *maxClients {
					ladder = append(ladder, c)
				}
			}
			if len(ladder) == 0 {
				ladder = []int{*maxClients}
			}
			return ladder
		}
		cfg.ClientCounts = truncate(cfg.ClientCounts)
		cfg.ScaleClients = truncate(cfg.ScaleClients)
	}

	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	figures := map[string]func(bench.Config) *bench.Figure{
		"fig1":         bench.Fig1,
		"fig2":         bench.Fig2,
		"fig3":         bench.Fig3,
		"fig4":         bench.Fig4,
		"fig6":         bench.Fig6,
		"fig7":         bench.Fig7,
		"fig9":         bench.Fig9,
		"fig10":        bench.Fig10,
		"rpcvsrdma":    bench.RPCvsRDMA,
		"ext-shards":   bench.ExtShards,
		"ext-multikey": bench.ExtMultiKey,
		"fig-scale":    bench.FigScale,
		"fig-chase":    bench.FigChase,
	}
	order := []string{"rpcvsrdma", "fig1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig9", "fig10", "ext-shards", "ext-multikey"}

	// Validate the name before any profile starts: os.Exit skips the
	// deferred StopCPUProfile/Close.
	names := order
	if name := flag.Arg(0); name != "all" {
		if figures[name] == nil {
			fmt.Fprintf(os.Stderr, "prismbench: unknown figure %q\n", name)
			os.Exit(2)
		}
		names = []string{name}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prismbench: creating %s: %v\n", *cpuProfile, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "prismbench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "prismbench: creating %s: %v\n", path, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live setup-vs-measurement splits
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "prismbench: writing heap profile: %v\n", err)
			}
		}()
	}

	rec := benchRecord{
		Command:        "prismbench " + strings.Join(os.Args[1:], " "),
		Seed:           cfg.Seed,
		Parallel:       cfg.Parallel,
		Intra:          cfg.Intra,
		IntraRequested: intraRequested,
		Affinity:       cfg.ClientsPerDomain,
		CrossRackNanos: cfg.CrossRack.Nanoseconds(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		Keys:           cfg.Keys,
		ValueSize:      cfg.ValueSize,
	}

	run := func(name string) {
		start := time.Now()
		fig := figures[name](cfg)
		wall := time.Since(start).Seconds()
		points := 0
		for _, s := range fig.Series {
			points += len(s.Points)
		}
		fr := figRecord{
			ID: fig.ID, WallSeconds: wall, Series: len(fig.Series), Points: points,
		}
		for _, w := range fig.PointWall {
			fr.PointWallSeconds = append(fr.PointWallSeconds, w.Seconds())
		}
		var meanSum int64
		var allocSum, byteSum float64
		allocPts := 0
		for _, tel := range fig.PointTel {
			fr.Windows += tel.Windows
			fr.Barriers += tel.Barriers
			fr.CrossDeliveries += tel.CrossDeliveries
			fr.EventsExecuted += tel.EventsExecuted
			fr.Bursts += tel.Bursts
			fr.BarrierSkips += tel.BarrierSkips
			fr.IdleSkips += tel.IdleSkips
			fr.TimerFires += tel.TimerFires
			fr.TimerStops += tel.TimerStops
			fr.WheelCascades += tel.WheelCascades
			fr.QPCacheHits += tel.QPCacheHits
			fr.QPCacheMisses += tel.QPCacheMisses
			fr.QPCacheEvictions += tel.QPCacheEvictions
			fr.ProgramOps += tel.ProgramOps
			fr.StepsExecuted += tel.StepsExecuted
			fr.RTTsSaved += tel.RTTsSaved
			meanSum += tel.MeanWindowNanos
			if tel.AllocsPerOp > 0 {
				allocSum += tel.AllocsPerOp
				byteSum += tel.BytesPerOp
				allocPts++
			}
		}
		if fr.Bursts > 0 {
			fr.MeanBurstLen = float64(fr.EventsExecuted) / float64(fr.Bursts)
		}
		if allocPts > 0 {
			fr.MeanAllocsPerOp = allocSum / float64(allocPts)
			fr.MeanBytesPerOp = byteSum / float64(allocPts)
		}
		fr.PointTelemetry = fig.PointTel
		if *verbose {
			meanWin := time.Duration(0)
			if n := len(fig.PointTel); n > 0 {
				meanWin = time.Duration(meanSum / int64(n))
			}
			fmt.Fprintf(os.Stderr, "prismbench: %s: %d points, windows=%d barriers=%d barrier-skips=%d idle-skips=%d cross-deliveries=%d mean-window=%v events=%d mean-burst=%.2f timer-fires=%d timer-stops=%d cascades=%d qp-hit/miss/evict=%d/%d/%d progs=%d steps=%d rtts-saved=%d wall=%.1fs\n",
				fig.ID, len(fig.PointTel), fr.Windows, fr.Barriers, fr.BarrierSkips, fr.IdleSkips, fr.CrossDeliveries, meanWin,
				fr.EventsExecuted, fr.MeanBurstLen, fr.TimerFires, fr.TimerStops, fr.WheelCascades,
				fr.QPCacheHits, fr.QPCacheMisses, fr.QPCacheEvictions,
				fr.ProgramOps, fr.StepsExecuted, fr.RTTsSaved, wall)
		}
		rec.Figures = append(rec.Figures, fr)
		rec.TotalWallSeconds += wall
		if *format == "csv" {
			fig.FprintCSV(os.Stdout)
		} else {
			fig.Fprint(os.Stdout)
			fmt.Printf("   [generated in %.1fs]\n\n", wall)
		}
	}

	for _, name := range names {
		run(name)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "prismbench: encoding record: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "prismbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}
