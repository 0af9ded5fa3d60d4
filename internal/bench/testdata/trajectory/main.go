// Command trajectory appends a PR's records to BENCH_trajectory.json from
// two files of alternating benchmark runs (go run ./benchmark -out), the
// parent's and the change's: per workload and metric, both medians and
// quartiles, the pairs (run i against run i) and the pairs the change won.
// The metrics are BENCHMARK.json's end-to-end ones and the per-layer rows
// the benchmark's -check also judges. Its commit stays empty, since a file
// cannot hold the hash of the commit that adds it; the next PR fills it
// in. Each record's host also names the runs' GOMAXPROCS, the CPU model
// (read from /proc/cpuinfo at append time: run it on the host that ran
// the benchmark) and the ping-pong floor, the median ns/op of the
// -pingpong file's `go test -run '^$' -bench UnixPingPong -count 1
// ./internal/transport` runs, one after each benchmark run of either side,
// with their quartiles: one run reads the floor within a spread that
// matters. -trend prints the trajectory PR by PR instead, every µs row
// also in units of its PR's floor. From the repository root:
//
//	go run ./internal/bench/testdata/trajectory -pr N -parent HASH -pingpong pp.txt parent.jsonl change.jsonl
//	go run ./internal/bench/testdata/trajectory -trend
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// judged are the per-layer rows -check judges beside the end-to-end ones.
var judged = []string{"load.ops_per_s", "load.p50_us", "load.p99_us", "load.cpu_us_per_op"}

type run struct {
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	NumCPU   int                `json:"num_cpu"`
	MaxProcs int                `json:"gomaxprocs"`
	Go       string             `json:"go_version"`
	Metrics  map[string]float64 `json:"metrics"`
}

func main() {
	pr := flag.Int("pr", 0, "the change's PR number")
	parent := flag.String("parent", "", "the parent's commit hash")
	pingpong := flag.String("pingpong", "", "go test -bench UnixPingPong output from beside the benchmark runs")
	trend := flag.Bool("trend", false, "print the trajectory PR by PR instead of appending")
	flag.Parse()
	if *trend {
		printTrend()
		return
	}
	if flag.NArg() != 2 || *pr <= 0 || *parent == "" || *pingpong == "" {
		check(fmt.Errorf("usage: -pr N -parent HASH -pingpong FILE parent.jsonl change.jsonl, or -trend"))
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	var recs []json.RawMessage
	check(json.Unmarshal(read("BENCHMARK.json"), &spec))
	check(json.Unmarshal(read("BENCH_trajectory.json"), &recs))
	metrics := append(spec.EndToEnd, slices.DeleteFunc(spec.PerLayer, func(m metric) bool { return !slices.Contains(judged, m.Name) })...)
	base, change := runs(flag.Arg(0)), runs(flag.Arg(1))
	cpu, floor := cpuModel(), pingPongNS(*pingpong)
	for _, wl := range spec.Workloads {
		w := wl.Name
		for _, m := range metrics {
			var p, c []float64
			won := 0
			for i := 0; i < min(len(base[w]), len(change[w])); i++ {
				p, c = append(p, base[w][i].Metrics[m.Name]), append(c, change[w][i].Metrics[m.Name])
				if m.Better == "lower" && c[i] < p[i] || m.Better == "higher" && c[i] > p[i] {
					won++
				}
			}
			if len(p) == 0 {
				continue
			}
			b, err := json.Marshal(map[string]any{
				"pr": *pr, "workload": w, "metric": m.Name, "unit": m.Unit, "commit": "", "parent": *parent,
				"parent_median": quantile(p, 0.5), "parent_q1": quantile(p, 0.25), "parent_q3": quantile(p, 0.75),
				"median": quantile(c, 0.5), "q1": quantile(c, 0.25), "q3": quantile(c, 0.75),
				"pairs": len(p), "pairs_won": won,
				"host": map[string]any{"nproc": change[w][0].NumCPU, "go": change[w][0].Go, "cpu": cpu, "gomaxprocs": change[w][0].MaxProcs,
					"pingpong_ns": floor[1], "pingpong_q1_ns": floor[0], "pingpong_q3_ns": floor[2]},
			})
			check(err)
			recs = append(recs, b)
		}
	}
	lines := make([]string, len(recs))
	for i, r := range recs {
		lines[i] = string(r)
	}
	check(os.WriteFile("BENCH_trajectory.json", []byte("[\n  "+strings.Join(lines, ",\n  ")+"\n]\n"), 0o644))
}

// runs reads a results file's untraced runs by workload, in file order.
func runs(path string) map[string][]run {
	by := map[string][]run{}
	dec := json.NewDecoder(bytes.NewReader(read(path)))
	for dec.More() {
		var r run
		check(dec.Decode(&r))
		if !r.Trace {
			by[r.Workload] = append(by[r.Workload], r)
		}
	}
	return by
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	for _, line := range strings.Split(string(read("/proc/cpuinfo")), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	check(fmt.Errorf("no model name in /proc/cpuinfo"))
	return ""
}

// pingPongNS is the first quartile, median and third quartile of the
// ns/op of the BenchmarkUnixPingPong lines in a file of go test -bench
// output.
func pingPongNS(path string) [3]float64 {
	var ns []float64
	for _, m := range regexp.MustCompile(`(?m)^BenchmarkUnixPingPong(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`).FindAllStringSubmatch(string(read(path)), -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		check(err)
		ns = append(ns, v)
	}
	if len(ns) == 0 {
		check(fmt.Errorf("%s: no BenchmarkUnixPingPong result", path))
	}
	return [3]float64{quantile(ns, 0.25), quantile(ns, 0.5), quantile(ns, 0.75)}
}

// record is what -trend reads of a trajectory record.
type record struct {
	PR                     int
	Workload, Metric, Unit string
	Median                 float64
	Host                   struct {
		NProc, GOMAXPROCS int
		Go, CPU           string
		PingPongNS        float64 `json:"pingpong_ns"`
		PingPongQ1NS      float64 `json:"pingpong_q1_ns"`
		PingPongQ3NS      float64 `json:"pingpong_q3_ns"`
	}
}

// printTrend prints each workload's and metric's medians in PR order.
// The host is named at the first PR and wherever it changes; the
// ping-pong floor is a measurement of the host, not part of its name, and
// is printed with its quartiles where a PR recorded them.
func printTrend() {
	var recs []record
	check(json.Unmarshal(read("BENCH_trajectory.json"), &recs))
	series := map[[2]string][]record{}
	var order [][2]string
	for _, r := range recs {
		k := [2]string{r.Workload, r.Metric}
		if series[k] == nil {
			order = append(order, k)
		}
		series[k] = append(series[k], r)
	}
	for _, k := range order {
		fmt.Printf("%s %s (%s)\n", k[0], k[1], series[k][0].Unit)
		last := ""
		for _, r := range series[k] {
			line := fmt.Sprintf("  PR %-4d %12.6g", r.PR, r.Median)
			if f := r.Host.PingPongNS; f > 0 && r.Unit == "us" {
				line += fmt.Sprintf("  %6.3f floors of %.0f ns", r.Median*1e3/f, f)
				if h := r.Host; h.PingPongQ3NS > 0 {
					line += fmt.Sprintf(" (q1–q3 %.0f–%.0f)", h.PingPongQ1NS, h.PingPongQ3NS)
				}
			}
			h := r.Host
			host := fmt.Sprintf("nproc=%d %s, %s, GOMAXPROCS=%d", h.NProc, h.Go, h.CPU, h.GOMAXPROCS)
			if h.CPU == "" {
				host = fmt.Sprintf("nproc=%d %s, CPU and GOMAXPROCS unknown", h.NProc, h.Go)
			}
			if last == "" {
				line += "  host: " + host
			} else if host != last {
				line += "  host change: " + host
			}
			last = host
			fmt.Println(line)
		}
	}
}

// quantile interpolates between sorted values, as the benchmark's -check.
func quantile(vs []float64, q float64) float64 {
	s := slices.Sorted(slices.Values(vs))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 == len(s) {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func read(path string) []byte {
	b, err := os.ReadFile(path)
	check(err)
	return b
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "trajectory:", err)
		os.Exit(1)
	}
}
