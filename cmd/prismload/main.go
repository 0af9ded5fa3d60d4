// Command prismload drives concurrent load against a live prismd
// server and reports throughput and latency percentiles. Each client is
// a goroutine owning one logical connection (queue pair); many clients
// multiplex over a small pool of sockets, RDMAvisor-style, so "-clients
// 1000 -sockets 8" means a thousand concurrent closed-loop clients on
// eight file descriptors.
//
//	prismload -addr /tmp/prism.sock -clients 1000 -duration 10s -json out.json
//
// The key space should be preloaded (prismd -load) so reads hit.
//
// -workload selects the op mix: "get" (the default read/write mix),
// "scan" (budget-bounded SCAN windows over the hash table), and — when
// the server runs a chain store (prismd -app chain:DEPTH) — "chase" (one
// CHASE verb program per lookup) against "chasehop" (the per-hop
// one-sided baseline: one round trip per pointer hop).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/kv"
	"prism/internal/stats"
	"prism/internal/transport"
)

// errUsage marks a bad invocation, which exits 2 rather than 1.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prismload:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the whole command: parse args, drive the load, and write the
// result JSON to stdout (and to -json). It fails if any client did.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("prismload", flag.ContinueOnError)
	addr := fs.String("addr", "", "server address: host:port is tcp, anything else (a path, relative or not) a unix socket")
	clients := fs.Int("clients", 100, "concurrent closed-loop clients (logical connections)")
	sockets := fs.Int("sockets", 8, "sockets to multiplex clients over")
	duration := fs.Duration("duration", 5*time.Second, "measurement duration")
	keys := fs.Int64("keys", 4096, "key space (should be preloaded)")
	valueSize := fs.Int("value", 128, "value size for writes (bytes)")
	reads := fs.Float64("reads", 0.95, "fraction of operations that are GETs")
	workloadKind := fs.String("workload", "get", "op mix: get, chase, chasehop, or scan (chase/chasehop need prismd -app chain:DEPTH)")
	depth := fs.Int64("depth", 0, "chain hops per chase/chasehop lookup (0 = the chain's full depth)")
	scanBudget := fs.Uint64("scan-budget", 4096, "byte budget per SCAN window")
	jsonPath := fs.String("json", "", "write the result JSON here (default stdout)")
	batch := fs.Int("batch", 1, "GETs per doorbell: issue reads in kv.GetBatch trains of this size")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return nil
	} else if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	if *addr == "" {
		return fmt.Errorf("%w: need -addr", errUsage)
	}
	*sockets = max(1, min(*sockets, *clients))
	*batch = max(1, *batch)
	var meta kv.Meta
	var chainMeta kv.ChainMeta
	app, target := "kv", any(&meta)
	switch *workloadKind {
	case "chase", "chasehop":
		app, target = "chain", &chainMeta
	case "get", "scan":
	default:
		return fmt.Errorf("%w: unknown -workload %q (get, chase, chasehop, or scan)", errUsage, *workloadKind)
	}

	// Dial the socket pool and open every logical connection up front so
	// the measured window is pure data path; the first fetches the store's
	// Meta.
	pool := make([]*transport.Client, *sockets)
	for i := range pool {
		tc, err := transport.Dial(*addr)
		if err != nil {
			return fmt.Errorf("dial %s: %w", *addr, err)
		}
		defer tc.Close()
		pool[i] = tc
	}
	conns := make([]*transport.Conn, *clients)
	for i := range conns {
		cn, err := pool[i%*sockets].Connect()
		if err != nil {
			return fmt.Errorf("connect client %d: %w", i, err)
		}
		conns[i] = cn
	}
	if err := transport.FetchMeta(conns[0], app, target); err != nil {
		return fmt.Errorf("fetch meta: %w", err)
	}
	if *workloadKind == "get" && *keys > meta.NSlots {
		return fmt.Errorf("-keys %d exceeds server's %d slots", *keys, meta.NSlots)
	}
	if app == "chain" && (*depth <= 0 || *depth > chainMeta.Depth) {
		*depth = chainMeta.Depth
	}

	var (
		ops      atomic.Int64
		errCount atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr atomic.Value
	)
	firstErr.Store("")
	recorders := make([]*stats.LatencyRecorder, *clients)
	finished := make([]atomic.Bool, *clients)
	value := make([]byte, *valueSize)
	for i := range value {
		value[i] = byte(i)
	}
	var scanEntries, hopCount atomic.Int64
	deadline := time.Now().Add(*duration)
	start := time.Now()
	for i := 0; i < *clients; i++ {
		rec := stats.NewLatencyRecorder()
		recorders[i] = rec
		rng := rand.New(rand.NewSource(int64(i)*7919 + 1))
		// doOp runs one operation and returns how many logical ops it
		// completed; done runs after a clean deadline exit.
		var doOp func() (int64, error)
		var done func()
		switch *workloadKind {
		case "chase", "chasehop":
			cc := kv.NewChainClient(conns[i], chainMeta)
			pos := *depth - 1
			lookup := cc.ChaseGet
			if *workloadKind == "chasehop" {
				lookup = cc.HopGet
			}
			doOp = func() (int64, error) {
				// The pos-deep key of a uniform bucket: exactly -depth hops.
				key := rng.Int63n(chainMeta.Buckets)*chainMeta.Depth + pos
				if _, err := lookup(key); err != nil && err != kv.ErrNotFound {
					return 1, err
				}
				return 1, nil
			}
			done = func() { hopCount.Add(cc.Hops) }
		case "scan":
			kvc := kv.NewClient(conns[i], meta, uint16(i+1))
			cursor := int64(0)
			var entries int64
			visit := func(_ int64, _ []byte) error { entries++; return nil }
			doOp = func() (int64, error) {
				next, err := kvc.Scan(cursor, *scanBudget, visit)
				if err != nil {
					return 1, err
				}
				cursor = next
				if cursor >= meta.NSlots {
					cursor = 0
				}
				return 1, nil
			}
			done = func() { scanEntries.Add(entries); kvc.FlushFrees() }
		default: // get
			kvc := kv.NewClient(conns[i], meta, uint16(i+1))
			var batchKeys []int64
			if *batch > 1 {
				batchKeys = make([]int64, *batch)
			}
			doOp = func() (int64, error) {
				var err error
				var n int64 = 1
				if rng.Float64() < *reads {
					if *batch > 1 {
						// One doorbell for the whole GET train; the batch's
						// latency is recorded once, its ops counted each.
						for j := range batchKeys {
							batchKeys[j] = rng.Int63n(*keys)
						}
						var keyErr error
						err = kvc.GetBatch(batchKeys, func(_ int, _ []byte, kerr error) {
							if kerr != nil && kerr != kv.ErrNotFound && keyErr == nil {
								keyErr = kerr // a miss is valid; a protocol error is not
							}
						})
						if err == nil {
							err = keyErr
						}
						n = int64(*batch)
					} else {
						_, err = kvc.Get(rng.Int63n(*keys))
						if err == kv.ErrNotFound {
							err = nil // an unloaded key is a valid miss
						}
					}
				} else {
					err = kvc.Put(rng.Int63n(*keys), value)
				}
				return n, err
			}
			done = func() { kvc.FlushFrees() }
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer finished[id].Store(true)
			for time.Now().Before(deadline) {
				opStart := time.Now()
				n, err := doOp()
				if err != nil {
					// Transport down or protocol error: stop this client but
					// keep the rest running — a mid-run server drop must
					// produce a per-client error report, not a crash.
					errCount.Add(1)
					errOnce.Do(func() { firstErr.Store(fmt.Sprintf("client %d: %v", id, err)) })
					return
				}
				rec.Record(time.Since(opStart))
				ops.Add(n)
			}
			done()
		}(i)
	}

	// A dropped server normally surfaces as per-client errors, but a
	// wedged transport (accepted socket, nothing reading) would block a
	// client mid-call forever. The watchdog bounds the wait and reports
	// partial results rather than hanging.
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	grace := *duration/2 + 5*time.Second
	select {
	case <-waited:
	case <-time.After(time.Until(deadline) + grace):
		fmt.Fprintf(os.Stderr, "prismload: clients still blocked %v past the deadline; reporting partial results\n", grace)
	}
	elapsed := time.Since(start)

	// Merge only the recorders of clients that have exited: a stalled
	// client may still be touching its recorder.
	var stalled int64
	merged := stats.NewLatencyRecorder()
	for i, rec := range recorders {
		if finished[i].Load() {
			merged.Merge(rec)
		} else {
			stalled++
		}
	}
	// Doorbell telemetry, aggregated over the socket pool: write
	// syscalls and the frames/bytes they carried (frames_per_write is
	// the realized batching factor), and the demux side's reads.
	var writes, framesOut, bytesOut, readsIn, bytesIn int64
	for _, tc := range pool {
		w, f, b := tc.FlushStats()
		r, rb := tc.ReadStats()
		writes, framesOut, bytesOut, readsIn, bytesIn = writes+w, framesOut+f, bytesOut+b, readsIn+r, bytesIn+rb
	}
	result := map[string]any{
		"addr":              *addr,
		"clients":           *clients,
		"sockets":           *sockets,
		"duration_s":        elapsed.Seconds(),
		"workload":          *workloadKind,
		"reads":             *reads,
		"value_bytes":       *valueSize,
		"ops":               ops.Load(),
		"ops_per_sec":       float64(ops.Load()) / elapsed.Seconds(),
		"p50_us":            float64(merged.Median()) / 1e3,
		"p99_us":            float64(merged.P99()) / 1e3,
		"errors":            errCount.Load(),
		"num_cpu":           runtime.NumCPU(),
		"batch_len":         *batch,
		"writes":            writes,
		"frames_per_write":  ratio(framesOut, writes),
		"bytes_per_syscall": ratio(bytesOut, writes),
		"read_syscalls":     readsIn,
		"bytes_per_read":    ratio(bytesIn, readsIn),
		// Per-client failure detail: each client errors at most once
		// before stopping, so errors == clients that dropped out.
		"clients_errored": errCount.Load(),
		"first_error":     firstErr.Load(),
		"stalled_clients": stalled,
	}
	switch *workloadKind {
	case "chase":
		result["depth"] = *depth
	case "chasehop":
		// Client-observed round trips: what a CHASE program would have
		// collapsed to one per lookup.
		result["depth"] = *depth
		result["hops"] = hopCount.Load()
	case "scan":
		result["scan_budget"] = *scanBudget
		result["scan_entries"] = scanEntries.Load()
	}
	out, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			return err
		}
	}
	if _, err := stdout.Write(out); err != nil {
		return err
	}
	if errCount.Load() > 0 || stalled > 0 {
		return fmt.Errorf("%d clients failed, %d stalled", errCount.Load(), stalled)
	}
	return nil
}

// ratio returns a/b as a float, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
