package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"prism/internal/abd"
	"prism/internal/kv"
	"prism/internal/transport"
	"prism/internal/tx"
)

// serve stands a store up on an in-process live server over a unix
// socket until the test ends and returns the socket's path. load
// provisions and preloads the store.
func serve(t *testing.T, load func(ts *transport.Server) error) string {
	t.Helper()
	ts := transport.NewServer()
	if err := load(ts); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("unix", filepath.Join(t.TempDir(), "prism.sock"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ts.Serve(l) }()
	t.Cleanup(func() {
		ts.Shutdown(2 * time.Second)
		<-done
	})
	return l.Addr().String()
}

// loaded provisions a store with load and loads keys 0..n-1 through
// its Load.
func loaded[S interface{ Load(int64, []byte) error }](n int64, value []byte, load func(ts *transport.Server) (S, error)) func(ts *transport.Server) error {
	return func(ts *transport.Server) error {
		s, err := load(ts)
		for k := int64(0); err == nil && k < n; k++ {
			err = s.Load(k, value)
		}
		return err
	}
}

// Each workload runs for a short -duration against every app prismd
// serves and reports, as JSON on stdout, operations done and no client
// failed or stalled. kv's mix also runs in GetBatch trains of 16,
// live_get_batch16's shape; rs and lock run over three replicas, one
// -addr each.
func TestRunWorkloads(t *testing.T) {
	const keys = 256
	value := make([]byte, 64)
	shard := tx.ShardOptions{NSlots: keys, MaxValue: len(value), ExtraBuffers: 1024}
	kvAddr := serve(t, loaded(keys, value, func(ts *transport.Server) (*kv.Server, error) {
		return kv.NewServerOn(ts, kv.DefaultOptions(keys, len(value)))
	}))
	group := func(provision func(ts *transport.Server) error) string {
		return strings.Join([]string{serve(t, provision), serve(t, provision), serve(t, provision)}, ",")
	}
	for _, c := range []struct {
		name, workload, addr string
		batch                int
	}{
		{"mix", "mix", kvAddr, 1},
		{"mix-batch16", "mix", kvAddr, 16}, // closed-loop GetBatch trains
		{"scan", "scan", kvAddr, 1},
		{"pilaf", "mix", serve(t, loaded(keys, value, func(ts *transport.Server) (*kv.PilafServer, error) {
			return kv.NewPilafServer(ts, kv.DefaultOptions(keys, len(value)))
		})), 1},
		{"rs", "mix", group(func(ts *transport.Server) error {
			_, err := abd.NewReplica(ts, abd.ReplicaOptions{NBlocks: keys, BlockSize: len(value), ExtraBuffers: 1024})
			return err
		}), 1},
		{"lock", "mix", group(func(ts *transport.Server) error {
			_, err := abd.NewLockReplica(ts, keys, len(value))
			return err
		}), 1},
		{"tx", "mix", serve(t, loaded(keys, value, func(ts *transport.Server) (*tx.Shard, error) {
			return tx.NewShard(ts, shard)
		})), 1},
		{"farm", "mix", serve(t, loaded(keys, value, func(ts *transport.Server) (*tx.FarmServer, error) {
			return tx.NewFarmServer(ts, shard)
		})), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"-addr", c.addr, "-workload", c.workload, "-clients", "4", "-sockets", "2",
				"-keys", "256", "-value", "64", "-batch", strconv.Itoa(c.batch), "-duration", "100ms"}, &out)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			var res struct {
				Ops, Errors    int64
				Workload       string
				BatchLen       int   `json:"batch_len"`
				StalledClients int64 `json:"stalled_clients"`
			}
			if err := json.Unmarshal(out.Bytes(), &res); err != nil {
				t.Fatalf("result is not JSON: %v\n%s", err, out.String())
			}
			if res.Workload != c.workload || res.BatchLen != c.batch || res.Ops <= 0 || res.Errors != 0 || res.StalledClients != 0 {
				t.Fatalf("%s: workload %q batch %d: %d ops, %d failed, %d stalled; want ops, none failed\n%s",
					c.name, res.Workload, res.BatchLen, res.Ops, res.Errors, res.StalledClients, out.String())
			}
		})
	}
}

// A dead address is an error, not a report.
func TestRunDeadAddress(t *testing.T) {
	dead := filepath.Join(t.TempDir(), "nobody.sock")
	var out bytes.Buffer
	err := run([]string{"-addr", dead, "-duration", "10ms"}, &out)
	if err == nil || !strings.Contains(err.Error(), "dial") {
		t.Fatalf("run against a dead address: %v, want a dial error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("run against a dead address wrote %q", out.String())
	}
}

// A scan against a Pilaf server fails once the meta reply names the app,
// naming the app the server serves and the one the workload needs.
func TestRunWrongApp(t *testing.T) {
	addr := serve(t, func(ts *transport.Server) error {
		_, err := kv.NewPilafServer(ts, kv.DefaultOptions(16, 64))
		return err
	})
	var out bytes.Buffer
	err := run([]string{"-addr", addr, "-workload", "scan", "-duration", "10ms"}, &out)
	if err == nil || !strings.Contains(err.Error(), "needs a kv server, and the server serves pilaf") {
		t.Fatalf("scan against a pilaf server: %v, want the both-apps error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("a failed run wrote %q", out.String())
	}
}

// A client count below one, a negative value size, an empty key space, a
// read fraction outside [0, 1] or NaN, a workload other than mix or scan,
// and the flags of the chain workloads and of the JSON file are usage
// errors, found before dialing: the server below is live, and nothing is
// written.
func TestRunBadFlags(t *testing.T) {
	addr := serve(t, func(ts *transport.Server) error {
		_, err := kv.NewServerOn(ts, kv.DefaultOptions(16, 64))
		return err
	})
	for _, args := range [][]string{
		{"-clients", "0"},
		{"-clients", "-1"},
		{"-value", "-1"},
		{"-keys", "0"},
		{"-reads", "1.5"},
		{"-reads", "-0.1"},
		{"-reads", "NaN"},
		{"-workload", "chase"},
		{"-workload", "chasehop"},
		{"-depth", "3"},
		{"-json", "x"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-addr", addr, "-duration", "10ms"}, args...), &out)
		if !errors.Is(err, errUsage) {
			t.Errorf("%v: %v, want a usage error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v wrote %q", args, out.String())
		}
	}
}

// TestEveryFlagIsDocumented: every flag -h lists appears as -name in
// README.md or in the package doc, so no flag is there that no reader can
// find.
func TestEveryFlagIsDocumented(t *testing.T) {
	// The usage goes to the process's stderr.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	err = run([]string{"-h"}, io.Discard)
	os.Stderr = stderr
	w.Close()
	usage, _ := io.ReadAll(r)
	if err != nil {
		t.Fatalf("-h: %v", err)
	}
	flags := regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(usage), -1)
	if len(flags) == 0 {
		t.Fatalf("no flags in the usage:\n%s", usage)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	pkgDoc, _, _ := strings.Cut(string(src), "\npackage main")
	docs := string(readme) + pkgDoc
	for _, f := range flags {
		if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f[1]) + `([^\w-]|$)`).MatchString(docs) {
			t.Errorf("-%s is in the usage but neither in README.md nor in the package doc", f[1])
		}
	}
}
