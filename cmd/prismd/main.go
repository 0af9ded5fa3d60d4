// Command prismd serves PRISM-KV over real sockets: the same verb
// datapath the simulator models — indirect bounded READs, chains,
// ALLOCATE, enhanced CAS — executed against live tcp and unix-socket
// clients speaking the internal/wire format. One process, one store;
// thousands of logical connections multiplex over the accepted sockets.
//
// Usage:
//
//	prismd -unix /tmp/prism.sock            # unix socket
//	prismd -tcp 127.0.0.1:7171              # tcp
//	prismd -tcp :7171 -unix /tmp/p.sock     # both at once
//
// -keys and -value set a ceiling, not the resident size: they size the
// hash table and cap each buffer class at keys+8192 buffers, but buffers
// are registered a 64 KiB slab at a time as loads and PUTs need them, and
// a buffer is no larger than the largest entry, so an empty server holds
// little more than its hash table and a loaded one little more than its
// data. The drain summary's "memory:" line says what was registered,
// class by class.
//
// -load N preloads keys 0..N-1 server-side before serving, as the
// paper's experiments bulk-load before measuring. SIGINT/SIGTERM drain
// gracefully: listeners close, in-flight requests finish, then the
// process exits 0.
//
// -chain DEPTH serves the linked-chain store (kv.ChainStore) instead of
// the hash table: -keys buckets of DEPTH-node chains, the layout the
// CHASE verb-program experiments walk (prismload -workload chase).
package main

import (
	"flag"
	"fmt"
	"maps"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"prism/internal/kv"
	"prism/internal/transport"
)

func main() {
	tcpAddr := flag.String("tcp", "", "tcp listen address (e.g. 127.0.0.1:7171)")
	unixPath := flag.String("unix", "", "unix socket path")
	nKeys := flag.Int64("keys", 4096, "hash table slots; with -value, a ceiling on memory, not what is resident")
	valueSize := flag.Int("value", 1024, "largest value size accepted (bytes)")
	load := flag.Int64("load", 0, "preload keys 0..N-1 before serving")
	chainDepth := flag.Int64("chain", 0, "serve a linked-chain store of -keys buckets x DEPTH nodes instead of the hash table")
	grace := flag.Duration("grace", 5*time.Second, "drain deadline on SIGTERM/SIGINT")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
	flag.Parse()

	if *tcpAddr == "" && *unixPath == "" {
		fmt.Fprintln(os.Stderr, "prismd: need -tcp and/or -unix")
		os.Exit(2)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "prismd: pprof:", err)
			}
		}()
		fmt.Printf("prismd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	ts := transport.NewServer()
	var loadKey func(k int64, v []byte) error
	if *chainDepth > 0 {
		store, err := kv.NewChainStoreOn(ts, kv.ChainOptions{
			Buckets: *nKeys, Depth: *chainDepth, MaxValue: *valueSize,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "prismd:", err)
			os.Exit(1)
		}
		loadKey = store.Load
	} else {
		store, err := kv.NewServerOn(ts, kv.DefaultOptions(*nKeys, *valueSize))
		if err != nil {
			fmt.Fprintln(os.Stderr, "prismd:", err)
			os.Exit(1)
		}
		loadKey = store.Load
	}

	if *load > 0 {
		val := make([]byte, *valueSize)
		for i := range val {
			val[i] = byte(i)
		}
		start := time.Now()
		for k := int64(0); k < *load; k++ {
			if err := loadKey(k, val); err != nil {
				fmt.Fprintf(os.Stderr, "prismd: preload key %d: %v\n", k, err)
				os.Exit(1)
			}
		}
		fmt.Printf("prismd: preloaded %d keys (%d-byte values) in %v\n", *load, *valueSize, time.Since(start).Round(time.Millisecond))
	}

	serveErr := make(chan error, 2)
	listen := func(network, addr string) {
		if network == "unix" {
			os.Remove(addr) // a previous run's stale socket file
		}
		l, err := net.Listen(network, addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "prismd:", err)
			os.Exit(1)
		}
		if *chainDepth > 0 {
			fmt.Printf("prismd: serving chain store on %s %s (buckets=%d, depth=%d)\n",
				network, addr, *nKeys, *chainDepth)
		} else {
			fmt.Printf("prismd: serving PRISM-KV on %s %s (slots=%d)\n", network, addr, *nKeys)
		}
		go func() { serveErr <- ts.Serve(l) }()
	}
	if *tcpAddr != "" {
		listen("tcp", *tcpAddr)
	}
	if *unixPath != "" {
		listen("unix", *unixPath)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("prismd: %v — draining (grace %v)\n", sig, *grace)
		ts.Shutdown(*grace)
	case err := <-serveErr:
		if err != nil && err != transport.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "prismd:", err)
			os.Exit(1)
		}
	}
	if *unixPath != "" {
		os.Remove(*unixPath)
	}
	fmt.Printf("prismd: served %d requests (%d ops) across %d connections\n",
		ts.RequestsServed.Load(), ts.OpsExecuted.Load(), ts.ConnsAccepted.Load())
	fmt.Println(memoryLine(ts))
	// Verb-program telemetry: CHASE/SCAN programs, the loop iterations
	// they ran server-side, and the round trips that collapsed.
	if progs := ts.ProgOps.Load(); progs > 0 {
		steps := ts.ProgSteps.Load()
		fmt.Printf("prismd: programs: %d chase/scan ops, %d steps (%.2f steps/op, %d round trips saved)\n",
			progs, steps, ratio(steps, progs), steps-progs)
	}
	// Doorbell telemetry: realized coalescing on each side of the
	// boundary crossing.
	writes, framesOut, bytesOut := ts.Writes.Load(), ts.FramesOut.Load(), ts.BytesOut.Load()
	reads, bytesIn := ts.Reads.Load(), ts.BytesIn.Load()
	batches, batchFrames := ts.Batches.Load(), ts.BatchFrames.Load()
	fmt.Printf("prismd: syscalls: %d writes (frames_per_write %.2f, bytes_per_syscall %.0f), %d reads (%.0f B/read), batch_len %.2f\n",
		writes, ratio(framesOut, writes), ratio(bytesOut, writes),
		reads, ratio(bytesIn, reads), ratio(batchFrames, batches))
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
