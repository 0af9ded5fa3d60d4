package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runOpts say how one workload is run.
type runOpts struct {
	seed        int64
	seconds     float64 // measure whole slices until this much time has been measured...
	minSlices   int     // ...and at least this many
	setupPasses int     // times the environment is set up; setup_s is the median of their corrected times
	shrink      int     // divide slice sizes by this (1 for a real run; the smoke test uses more)
	trace       bool
	dir         string // scratch directory for sockets, relative to the working directory
	traceOut    string // where a traced run writes its span file
}

// stageBatch is how long one timed batch of a stage cost runs.
func (o runOpts) stageBatch() time.Duration {
	return 10 * time.Millisecond / time.Duration(o.shrink)
}

// more reports whether a run that has measured n slices over the given
// time measures another. A traced run has a fixed plan of tracePlan slices
// instead: its time goes to the ladder and the stage costs, and its spans
// stay in memory.
func (o runOpts) more(n int, measured time.Duration, tracePlan int) bool {
	if o.trace {
		return n < tracePlan
	}
	return n < o.minSlices || measured.Seconds() < o.seconds
}

// result is what one run of one workload produced.
type result struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Attempted  int64  `json:"attempted"`
	Failed     int64  `json:"failed"`
	FirstError string `json:"first_error,omitempty"`
	// Metrics holds every reported value by name; Slices the raw
	// per-slice values reduce turns into a metric; Samples the counts
	// behind them (slices, latency samples per slice).
	Metrics map[string]float64   `json:"metrics"`
	Slices  map[string][]float64 `json:"slices"`
	Samples map[string]int64     `json:"samples"`
	// Layers is the traced run's self-time table, one row per span name.
	Layers []layerRow `json:"layers,omitempty"`
}

func newResult(workload string, o runOpts) *result {
	return &result{
		Workload: workload, Seed: o.seed, Trace: o.trace,
		Metrics: map[string]float64{}, Slices: map[string][]float64{}, Samples: map[string]int64{},
	}
}

func (r *result) addSlice(name string, v float64) {
	r.Slices[name] = append(r.Slices[name], v)
}

// reduce sets every metric that has per-slice or per-pass values to the
// run's value: their best quartile, except for setup_s, whose values the
// yardstick has corrected — interference can push a corrected value
// either way, so its centre is the median.
func (r *result) reduce() {
	for name, vs := range r.Slices {
		r.Metrics[name] = bestQuartile(name, vs)
	}
	r.Metrics["setup_s"] = median(r.Slices["setup_s"])
}

func (r *result) correct() bool { return r.Failed == 0 && r.FirstError == "" }

// print writes every metric the run has as "name unit value", the
// end-to-end ones with the quartiles of their slices.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d trace=%v\n", r.Workload, r.Seed, r.Trace)
	if !r.Trace {
		for _, d := range endToEnd {
			line := fmt.Sprintf("%-36s %-6s %.6g", d.Name, d.Unit, r.Metrics[d.Name])
			if s := r.Slices[d.Name]; len(s) > 1 {
				line += fmt.Sprintf("   [q1 %.6g  q3 %.6g  n=%d]", quantile(s, 0.25), quantile(s, 0.75), len(s))
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, d := range perLayer {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-36s %-6s %.6g\n", d.Name, d.Unit, v)
		}
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "-- self time per layer over the sampled operations (replayed stages, then what is left of the call)\n")
		for _, row := range r.Layers {
			fmt.Fprintf(w, "   %-26s spans %-8d self %10.1f us   %8.3f us/span\n", row.Name, row.Spans, row.SelfUS, row.MeanUS)
		}
	}
	names := make([]string, 0, len(r.Samples))
	for n := range r.Samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %-6s %d\n", "samples."+n, "count", r.Samples[n])
	}
	fmt.Fprintf(w, "%-36s %-6s %.6g  (%d of %d)\n", "failed_ops_share", "ratio",
		ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	if r.FirstError != "" {
		fmt.Fprintf(w, "first error: %s\n", r.FirstError)
	}
}

// driverLine is the one-object summary the benchmark driver reads from
// the last line of standard output: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *result) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.Name] = mv{r.Metrics[d.Name], d.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// record is one line of a results file: a result and the environment it
// was measured in.
type record struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	result
}

func newRecord(r *result) record {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return record{commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *r}
}

// appendRecord appends r to the JSON-lines file at path.
func appendRecord(path string, r *result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(newRecord(r))
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads the untraced records of a JSON-lines results file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace {
			recs = append(recs, rec)
		}
	}
	return recs, sc.Err()
}

// check compares result set B with result set A, every (judged metric,
// workload) pair against the metric's bound, one workload per row. A pair
// is unresolved when either set's own spread (quartile distance over
// median) is wider than the bound, regressed when B's median is worse than
// A's by more than the bound, within otherwise. It returns false if any
// pair regressed.
func check(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	values := func(recs []record, workload, metric string) []float64 {
		var vs []float64
		for _, r := range recs {
			if r.Workload == workload {
				vs = append(vs, r.Metrics[metric])
			}
		}
		return vs
	}
	ok := true
	for _, wl := range workloadNames() {
		var cells []string
		runsA, runsB := 0, 0
		for _, d := range judged {
			va, vb := values(a, wl, d.Name), values(b, wl, d.Name)
			runsA, runsB = len(va), len(vb)
			if len(va) == 0 || len(vb) == 0 {
				cells = append(cells, d.Name+"=missing")
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "within"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSED"
				ok = false
			// setup_s is bounded on its median only: it is a few
			// milliseconds of allocation and its quartiles are wide.
			case d.Name != "setup_s" && (iqrShare(va) > d.Bound || iqrShare(vb) > d.Bound):
				verdict = "unresolved"
			}
			cells = append(cells, fmt.Sprintf("%s=%s(%+.1f%% spread %.1f%%/%.1f%%)",
				d.Name, verdict, 100*worse, 100*iqrShare(va), 100*iqrShare(vb)))
		}
		fmt.Fprintf(w, "%-18s runs %d/%d  %s\n", wl, runsA, runsB, strings.Join(cells, "  "))
	}
	return ok, nil
}
