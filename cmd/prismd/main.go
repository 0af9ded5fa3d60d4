// Command prismd serves one PRISM store over real sockets: the verb
// datapath the simulator models, executed against live tcp and unix-socket
// clients speaking the internal/wire format. Thousands of logical
// connections multiplex over the accepted sockets.
//
//	prismd -unix /tmp/prism.sock            # PRISM-KV on a unix socket
//	prismd -tcp :7171 -unix /tmp/p.sock     # on tcp too
//	prismd -unix /tmp/rs.sock -app rs       # a PRISM-RS replica
//
// -app picks the store: kv (the default), chain:DEPTH (-keys buckets of
// DEPTH-node chains, what prismload -workload chase walks), pilaf, rs,
// lock (an ABDLOCK replica), tx (a PRISM-TX shard) or farm. The store
// publishes its Meta, so a client needs only the address and the app name
// (transport.DialMeta), and a client of another app is refused.
//
// -keys and -value size every store as a ceiling, not the resident size:
// free lists register a 64 KiB slab at a time as loads and PUTs need them,
// so an empty server holds little more than its index. The drain summary's
// "memory:" line says what was registered, class by class. -load N
// preloads keys 0..N-1 (kv, chain, pilaf, tx and farm), as the paper's
// experiments bulk-load before measuring. SIGINT/SIGTERM drain gracefully:
// listeners close, in-flight requests finish, and the process exits 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"prism/internal/abd"
	"prism/internal/kv"
	"prism/internal/transport"
	"prism/internal/tx"
)

// errUsage marks a bad invocation, which exits 2 rather than 1.
var errUsage = errors.New("usage")

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "prismd:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the whole command: parse args, provision the store, serve until
// a signal arrives on stop, drain, and write the summary to stdout.
func run(args []string, stdout io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("prismd", flag.ContinueOnError)
	tcpAddr := fs.String("tcp", "", "tcp listen address (e.g. 127.0.0.1:7171)")
	unixPath := fs.String("unix", "", "unix socket path")
	nKeys := fs.Int64("keys", 4096, "keys (kv and pilaf serve keys 0..keys-1), blocks or buckets; with -value, a ceiling on memory, not what is resident")
	valueSize := fs.Int("value", 1024, "largest value size accepted (bytes)")
	load := fs.Int64("load", 0, "preload keys 0..N-1 before serving")
	app := fs.String("app", "kv", "store to serve: kv, chain:DEPTH, pilaf, rs, lock, tx or farm")
	grace := fs.Duration("grace", 5*time.Second, "drain deadline on SIGTERM/SIGINT")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return nil
	} else if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *tcpAddr == "" && *unixPath == "" {
		return fmt.Errorf("%w: need -tcp and/or -unix", errUsage)
	}

	ts := transport.NewServer()
	store, err := provision(ts, *app, *nKeys, *valueSize)
	if err != nil {
		return err
	}
	if *load > 0 {
		loader, ok := store.(interface{ Load(int64, []byte) error })
		if !ok {
			return fmt.Errorf("%w: -app %s has nothing to -load", errUsage, *app)
		}
		val := make([]byte, *valueSize)
		for i := range val {
			val[i] = byte(i)
		}
		start := time.Now()
		for k := int64(0); k < *load; k++ {
			if err := loader.Load(k, val); err != nil {
				return fmt.Errorf("preload key %d: %w", k, err)
			}
		}
		fmt.Fprintf(stdout, "prismd: preloaded %d keys (%d-byte values) in %v\n", *load, *valueSize, time.Since(start).Round(time.Millisecond))
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "prismd: pprof:", err)
			}
		}()
		fmt.Fprintf(stdout, "prismd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	serveErr := make(chan error, 2)
	for _, ep := range [][2]string{{"tcp", *tcpAddr}, {"unix", *unixPath}} {
		network, addr := ep[0], ep[1]
		if addr == "" {
			continue
		}
		if network == "unix" {
			os.Remove(addr) // a previous run's stale socket file
			defer os.Remove(addr)
		}
		l, err := net.Listen(network, addr)
		if err != nil {
			ts.Shutdown(0)
			return err
		}
		fmt.Fprintf(stdout, "prismd: serving %s on %s %s (keys=%d, value=%d)\n", *app, network, addr, *nKeys, *valueSize)
		go func() { serveErr <- ts.Serve(l) }()
	}

	select {
	case sig := <-stop:
		fmt.Fprintf(stdout, "prismd: %v — draining (grace %v)\n", sig, *grace)
		ts.Shutdown(*grace)
	case err := <-serveErr:
		if err != nil && err != transport.ErrServerClosed {
			return err
		}
	}
	fmt.Fprintf(stdout, "prismd: %s served %d requests (%d ops) across %d connections\n",
		*app, ts.RequestsServed.Load(), ts.OpsExecuted.Load(), ts.ConnsAccepted.Load())
	fmt.Fprintln(stdout, memoryLine(ts))
	// Verb-program telemetry: CHASE/SCAN programs, the loop iterations
	// they ran server-side, and the round trips that collapsed.
	if progs := ts.ProgOps.Load(); progs > 0 {
		steps := ts.ProgSteps.Load()
		fmt.Fprintf(stdout, "prismd: programs: %d chase/scan ops, %d steps (%.2f steps/op, %d round trips saved)\n",
			progs, steps, ratio(steps, progs), steps-progs)
	}
	// Doorbell telemetry: realized coalescing on each side of the
	// boundary crossing.
	writes, framesOut, bytesOut := ts.Writes.Load(), ts.FramesOut.Load(), ts.BytesOut.Load()
	reads, bytesIn := ts.Reads.Load(), ts.BytesIn.Load()
	batches, batchFrames := ts.Batches.Load(), ts.BatchFrames.Load()
	fmt.Fprintf(stdout, "prismd: syscalls: %d writes (frames_per_write %.2f, bytes_per_syscall %.0f), %d reads (%.0f B/read), batch_len %.2f\n",
		writes, ratio(framesOut, writes), ratio(bytesOut, writes),
		reads, ratio(bytesIn, reads), ratio(batchFrames, batches))
	return nil
}

// provision stands app's store up on ts, sized by keys and value, and
// returns it; all but the replicas have a Load.
func provision(ts *transport.Server, app string, keys int64, value int) (any, error) {
	name, arg, _ := strings.Cut(app, ":")
	// The replicas' and shards' free lists get kv.DefaultOptions' slack of
	// 8192 buffers beyond one per key.
	shard := tx.ShardOptions{NSlots: keys, MaxValue: value, ExtraBuffers: 8192}
	switch {
	case arg != "" && name != "chain": // only chain takes an argument
	case name == "kv":
		return kv.NewServerOn(ts, kv.DefaultOptions(keys, value))
	case name == "chain":
		depth, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || depth <= 0 {
			return nil, fmt.Errorf("%w: -app chain:DEPTH needs a positive DEPTH, not %q", errUsage, arg)
		}
		return kv.NewChainStoreOn(ts, kv.ChainOptions{Buckets: keys, Depth: depth, MaxValue: value})
	case name == "pilaf":
		return kv.NewPilafServer(ts, kv.DefaultOptions(keys, value))
	case name == "rs":
		return abd.NewReplica(ts, abd.ReplicaOptions{NBlocks: keys, BlockSize: value, ExtraBuffers: 8192})
	case name == "lock":
		return abd.NewLockReplica(ts, keys, value)
	case name == "tx":
		return tx.NewShard(ts, shard)
	case name == "farm":
		return tx.NewFarmServer(ts, shard)
	}
	return nil, fmt.Errorf("%w: unknown -app %q (kv, chain:DEPTH, pilaf, rs, lock, tx or farm)", errUsage, app)
}

// memoryLine is the drain summary's account of what the store registered:
// bytes and regions in all, then every buffer class that carved a slab —
// buffer size, slabs, and how many buffers sit available and
// pending-repost (the rest hold objects or were leaked).
func memoryLine(ts *transport.Server) string {
	space := ts.Space()
	space.Guard().Lock()
	defer space.Guard().Unlock()
	var registered uint64
	for _, r := range space.Regions() {
		registered += r.Len
	}
	line := fmt.Sprintf("prismd: memory: registered=%d regions=%d", registered, len(space.Regions()))
	lists := ts.FreeLists()
	for _, id := range slices.Sorted(maps.Keys(lists)) {
		if fl := lists[id]; len(fl.Slabs()) > 0 {
			line += fmt.Sprintf(" | buf=%d slabs=%d free=%d pending=%d", fl.BufSize, len(fl.Slabs()), fl.Len(), fl.Pending())
		}
	}
	return line
}

// ratio returns a/b as a float, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
