// Command benchmark is the repository's one benchmark: it builds the
// live server in-process and drives it over a unix socket through the
// public kv/transport API (four live workloads), runs the simulator
// through the public figure functions (sim_figures), checks every
// result, and prints every metric by name with its unit. README.md
// defines the workloads and metrics.
//
//	go run ./benchmark -seed 1                      all five workloads, untraced
//	go run ./benchmark -seed 1 -trace 1             the traced run: per-layer metrics, span files
//	bash benchmark/run.sh --workload live_get_rtt --seed 3 --seconds 12 --trace 0    what BENCHMARK.json's driver runs
//	go run ./benchmark -check A.jsonl B.jsonl       compare two result sets written with -out
//
// The last line of standard output is one JSON object summarising the
// last workload run, for the benchmark driver.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tmpRoot holds everything a run writes: sockets (removed at exit) and
// span files. It is relative so unix socket paths stay short.
const tmpRoot = ".bench_tmp"

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the generated keys and values")
	seconds := flag.Float64("seconds", 14, "measure whole slices until this many seconds have been measured")
	trace := flag.Int("trace", 0, "1: traced run (per-layer metrics and a span file); 0: untraced run (end-to-end metrics)")
	out := flag.String("out", "", "append one JSON record per workload to this file")
	doCheck := flag.Bool("check", false, "compare two result files (arguments: A B) against the bounds instead of running")
	flag.Parse()

	if *doCheck {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -check needs two result files")
			os.Exit(2)
		}
		ok, err := check(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	names := workloadNames()
	if *workload != "all" {
		names = []string{*workload}
	}
	dir := filepath.Join(tmpRoot, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	code := run(names, runOpts{seed: *seed, seconds: *seconds, minSlices: 3, setupPasses: 120, shrink: 1, trace: *trace != 0, dir: dir}, *out)
	os.RemoveAll(dir)
	os.Exit(code)
}

// run runs the named workloads in order and returns the exit code.
func run(names []string, o runOpts, out string) int {
	code := 0
	var last *result
	for _, name := range names {
		o.traceOut = filepath.Join(tmpRoot, "trace_"+name+".json")
		start := time.Now()
		res, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res.print(os.Stdout)
		fmt.Printf("(%s took %.1f s)\n", name, time.Since(start).Seconds())
		if o.trace {
			fmt.Printf("spans written to %s\n", o.traceOut)
		}
		if !res.correct() {
			code = 1
		}
		if out != "" {
			if err := appendRecord(out, res); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		last = res
	}
	fmt.Println(last.driverLine())
	return code
}

// runWorkload runs one workload by name.
func runWorkload(name string, o runOpts) (*result, error) {
	if name == simName {
		return runSim(o)
	}
	for _, spec := range liveSpecs {
		if spec.name == name {
			return runLive(spec, o)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}
