package bench

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

// trajectoryRecord is one record of BENCH_trajectory.json at the
// repository root: one PR's alternating parent/change pairs of one
// benchmark workload and metric.
type trajectoryRecord struct {
	PR           int     `json:"pr"`
	Workload     string  `json:"workload"`
	Metric       string  `json:"metric"`
	Unit         string  `json:"unit"`
	Commit       string  `json:"commit"`
	Parent       string  `json:"parent"`
	ParentMedian float64 `json:"parent_median"`
	ParentQ1     float64 `json:"parent_q1"`
	ParentQ3     float64 `json:"parent_q3"`
	Median       float64 `json:"median"`
	Q1           float64 `json:"q1"`
	Q3           float64 `json:"q3"`
	Pairs        int     `json:"pairs"`
	PairsWon     int     `json:"pairs_won"`
	Host         struct {
		NProc      int     `json:"nproc"`
		Go         string  `json:"go"`
		CPU        string  `json:"cpu"`         // the CPU model, from fingerprinted on
		GOMAXPROCS int     `json:"gomaxprocs"`  // from fingerprinted on
		PingPongNS float64 `json:"pingpong_ns"` // the ping-pong floor, from floored on
		// The floor's quartiles over its runs, from spread on.
		PingPongQ1NS float64 `json:"pingpong_q1_ns"`
		PingPongQ3NS float64 `json:"pingpong_q3_ns"`
	} `json:"host"`
}

// fingerprinted is the first PR whose records say which CPU model and
// GOMAXPROCS they were measured with. Earlier hosts are unknown beyond
// nproc and go: their records carry neither field. floored is the first
// PR whose records carry the host's ping-pong floor as well: the median
// BenchmarkUnixPingPong ns/op of runs beside the benchmark's. spread is
// the first PR whose records carry that floor's quartiles: one PR's runs
// of the floor spread too widely for its median alone to compare.
const fingerprinted, floored, spread = 52, 53, 54

// jsonFields lists the JSON names of a struct type's fields.
func jsonFields(t reflect.Type) []string {
	var names []string
	for i := 0; i < t.NumField(); i++ {
		names = append(names, t.Field(i).Tag.Get("json"))
	}
	slices.Sort(names)
	return names
}

// commitHash is what a record's commit and parent hold: an abbreviated or
// full git commit hash.
var commitHash = regexp.MustCompile(`^[0-9a-f]{7,40}$`)

// TestBenchTrajectory: every record of the trajectory has every field and
// no other (before PR spread, a host without the floor's quartiles, before
// PR floored, without pingpong_ns either, and before PR fingerprinted,
// without cpu and gomaxprocs either), its quartiles and the floor's
// bracket their medians, its pairs won are among its pairs, its
// commit and parent are commit hashes, and PR numbers never go down in
// file order. Only the newest PR's records may leave commit empty: a file
// cannot hold the hash of the commit that adds it, so the next PR fills it
// in.
func TestBenchTrajectory(t *testing.T) {
	b, err := os.ReadFile("../../BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw []map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("the trajectory has no records")
	}
	want := jsonFields(reflect.TypeOf(trajectoryRecord{}))
	wantHost := jsonFields(reflect.TypeOf(trajectoryRecord{}.Host))
	unspread := []string{"cpu", "go", "gomaxprocs", "nproc", "pingpong_ns"}
	unfloored := []string{"cpu", "go", "gomaxprocs", "nproc"}
	unknownHost := []string{"go", "nproc"}
	for i, r := range raw {
		var host map[string]json.RawMessage
		if err := json.Unmarshal(r["host"], &host); err != nil {
			t.Fatalf("record %d: host: %v", i, err)
		}
		var pr int
		if err := json.Unmarshal(r["pr"], &pr); err != nil {
			t.Fatalf("record %d: pr: %v", i, err)
		}
		if got := slices.Sorted(maps.Keys(r)); !slices.Equal(got, want) {
			t.Errorf("record %d has fields %v, want %v", i, got, want)
		}
		hostFields := wantHost
		switch {
		case pr < fingerprinted:
			hostFields = unknownHost
		case pr < floored:
			hostFields = unfloored
		case pr < spread:
			hostFields = unspread
		}
		if got := slices.Sorted(maps.Keys(host)); !slices.Equal(got, hostFields) {
			t.Errorf("record %d (PR %d) has host fields %v, want %v", i, pr, got, hostFields)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var recs []trajectoryRecord
	if err := dec.Decode(&recs); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if i > 0 && r.PR < recs[i-1].PR {
			t.Errorf("record %d is PR %d after PR %d", i, r.PR, recs[i-1].PR)
		}
		if r.Pairs <= 0 || r.PairsWon < 0 || r.PairsWon > r.Pairs {
			t.Errorf("record %d (PR %d %s %s): %d of %d pairs won", i, r.PR, r.Workload, r.Metric, r.PairsWon, r.Pairs)
		}
		if r.ParentQ1 > r.ParentMedian || r.ParentMedian > r.ParentQ3 || r.Q1 > r.Median || r.Median > r.Q3 ||
			r.PR >= spread && (r.Host.PingPongQ1NS > r.Host.PingPongNS || r.Host.PingPongNS > r.Host.PingPongQ3NS) {
			t.Errorf("record %d (PR %d %s %s): quartiles do not bracket the medians", i, r.PR, r.Workload, r.Metric)
		}
		if r.Workload == "" || r.Metric == "" || r.Unit == "" || r.Host.NProc <= 0 || r.Host.Go == "" ||
			r.PR >= fingerprinted && (r.Host.CPU == "" || r.Host.GOMAXPROCS <= 0) || r.PR >= floored && r.Host.PingPongNS <= 0 || r.PR >= spread && r.Host.PingPongQ1NS <= 0 {
			t.Errorf("record %d (PR %d): an empty field: %+v", i, r.PR, r)
		}
		newest := r.PR == recs[len(recs)-1].PR
		if !commitHash.MatchString(r.Parent) || !commitHash.MatchString(r.Commit) && !(newest && r.Commit == "") {
			t.Errorf("record %d (PR %d): commit %q, parent %q: want commit hashes", i, r.PR, r.Commit, r.Parent)
		}
	}
}
