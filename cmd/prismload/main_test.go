package main

import (
	"bytes"
	"encoding/json"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"prism/internal/kv"
	"prism/internal/transport"
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

// Each workload runs for a short -duration against the store it needs
// and reports, as JSON on stdout, operations done and no client failed;
// get also runs in GetBatch trains of 16, live_get_batch16's shape.
func TestRunWorkloads(t *testing.T) {
	const keys = 256
	value := make([]byte, 64)
	kvAddr := serve(t, func(ts *transport.Server) error {
		s, err := kv.NewServerOn(ts, kv.DefaultOptions(keys, len(value)))
		for k := int64(0); err == nil && k < keys; k++ {
			err = s.Load(k, value)
		}
		return err
	})
	chainAddr := serve(t, func(ts *transport.Server) error {
		s, err := kv.NewChainStoreOn(ts, kv.ChainOptions{Buckets: 32, Depth: 4, MaxValue: len(value)})
		for k := int64(0); err == nil && k < 32*4; k++ {
			err = s.Load(k, value)
		}
		return err
	})
	for _, c := range []struct {
		name, workload, addr string
		batch                int
	}{
		{"get", "get", kvAddr, 1},
		{"get-batch16", "get", kvAddr, 16}, // closed-loop GetBatch trains
		{"scan", "scan", kvAddr, 1},
		{"chase", "chase", chainAddr, 1},
		{"chasehop", "chasehop", chainAddr, 1},
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
				t.Fatalf("workload %q batch %d: %d ops, %d failed, %d stalled; want ops, none failed\n%s",
					res.Workload, res.BatchLen, res.Ops, res.Errors, res.StalledClients, out.String())
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

// A chase against a PRISM-KV server fails at the meta fetch, naming the
// app the server serves and the one the workload needs.
func TestRunWrongApp(t *testing.T) {
	addr := serve(t, func(ts *transport.Server) error {
		_, err := kv.NewServerOn(ts, kv.DefaultOptions(16, 64))
		return err
	})
	var out bytes.Buffer
	err := run([]string{"-addr", addr, "-workload", "chase", "-duration", "10ms"}, &out)
	if err == nil || !strings.Contains(err.Error(), "server serves kv, not chain") {
		t.Fatalf("chase against a kv server: %v, want the both-apps error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("a failed run wrote %q", out.String())
	}
}
