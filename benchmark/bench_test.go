package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smokeOpts are tiny slices: the whole benchmark in a few seconds.
func smokeOpts(t *testing.T, trace bool) runOpts {
	dir, err := os.MkdirTemp(".", "smoke-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return runOpts{seed: 1, minSlices: 2, setupPasses: 1, shrink: 400, trace: trace, dir: dir, traceOut: dir + "/trace.json"}
}

// TestSmoke runs every workload untraced and traced at tiny size and
// checks that every named metric appears, that nothing failed, and that
// no goroutine outlives a run.
func TestSmoke(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	before := runtime.NumGoroutine()
	for _, wl := range workloadNames() {
		if !name.MatchString(wl) {
			t.Errorf("workload name %q", wl)
		}
		for _, trace := range []bool{false, true} {
			o := smokeOpts(t, trace)
			res, err := runWorkload(wl, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.correct() || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d failed: %s", wl, trace, res.Failed, res.Attempted, res.FirstError)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var line struct {
				Correct   bool
				Attempted int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil {
				t.Fatalf("%s: driver line: %v", wl, err)
			}
			if !line.Correct || len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: driver line has %d metrics, want %d", wl, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing from the driver line", wl, trace, d.Name)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl, d.Name, m.Value)
				}
			}
			if trace {
				if fi, err := os.Stat(o.traceOut); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no span file: %v", wl, err)
				}
			}
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q", d.Name)
		}
	}
	// Sockets and servers are closed; their goroutines end soon after.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines outlive the runs (%d before):\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestOneClientCountersRepeat runs live_get_rtt twice: one request in
// flight means nothing can coalesce, and with one client the counters
// are a function of the operation count alone.
func TestOneClientCountersRepeat(t *testing.T) {
	var runs [2]map[string]float64
	for i := range runs {
		res, err := runWorkload("live_get_rtt", smokeOpts(t, false))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = map[string]float64{}
		for k, v := range res.Metrics {
			if strings.HasPrefix(k, "transport.") || strings.HasPrefix(k, "kv.") || strings.HasPrefix(k, "prism.") {
				runs[i][k] = v
			}
		}
	}
	if got := runs[0]["transport.client_frames_per_write"]; got != 1 {
		t.Errorf("live_get_rtt transport.client_frames_per_write = %v, want exactly 1", got)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("one-client counters differ between two runs:\n%v\n%v", runs[0], runs[1])
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, package has %v", names, workloadNames())
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the package's table")
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the package's table")
	}
}

// TestCheck exercises -check's three verdicts on synthetic result sets.
func TestCheck(t *testing.T) {
	write := func(scale map[string]float64, jitter float64) string {
		f, err := os.CreateTemp(t.TempDir(), "set-*.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		for i := 0; i < 10; i++ {
			for _, wl := range workloadNames() {
				r := newResult(wl, runOpts{seed: int64(i)})
				r.Attempted = 1
				for _, d := range judged {
					s := scale[d.Name]
					if s == 0 {
						s = 1
					}
					r.Metrics[d.Name] = 100 * s * (1 + jitter*float64(i-5))
				}
				if err := appendRecord(f.Name(), r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return f.Name()
	}
	base := write(nil, 0.001)
	var out strings.Builder
	if ok, err := check(&out, base, write(nil, 0.001)); err != nil || !ok || strings.Contains(out.String(), "REGRESSED") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("equal sets: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, _ := check(&out, base, write(map[string]float64{"load.ops_per_s": 0.7}, 0.001)); ok || !strings.Contains(out.String(), "load.ops_per_s=REGRESSED") {
		t.Errorf("30%% lower ops_per_s not reported as regressed:\n%s", out.String())
	}
	out.Reset()
	if ok, _ := check(&out, base, write(nil, 0.08)); !ok || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("wide spread not reported as unresolved:\n%s", out.String())
	}
}
