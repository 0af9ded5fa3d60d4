// Command prismload drives closed-loop load against live prismd servers
// and reports throughput and latency percentiles. Each client owns one
// logical connection (queue pair) per server; many clients multiplex over
// a small pool of sockets, RDMAvisor-style, so "-clients 1000 -sockets 8"
// means a thousand concurrent closed-loop clients on eight file
// descriptors per server. The loop itself is workload.Driver on the wall
// clock, the one the figure harness runs on the simulator's engine.
//
//	prismload -addr /tmp/prism.sock -clients 1000 -duration 10s > out.json
//	prismload -addr /tmp/r0.sock,/tmp/r1.sock,/tmp/r2.sock   # a PRISM-RS group
//
// The app comes from the server's meta reply, so prismload drives
// whatever prismd -app serves: kv, pilaf, rs, lock, tx or farm. rs, lock
// and tx take one -addr per replica or shard, in order; every other app
// takes one. The key space should be preloaded (prismd -load) so reads
// hit.
//
// -workload selects the op mix. "mix" (the default) is the app's figure
// workload: GET/PUT at -reads on kv, pilaf, rs and lock (on kv in
// kv.GetBatch trains of -batch GETs), and YCSB-T read-modify-write
// transactions on tx and farm. "scan" runs budget-bounded SCAN windows
// over a kv hash table. The result is one JSON object on stdout.
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
	"strings"
	"time"

	"prism/internal/abd"
	"prism/internal/kv"
	"prism/internal/transport"
	"prism/internal/tx"
	"prism/internal/workload"
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

// options is the parsed command line, plus the totals the clients add to
// as they exit (under the driver's lock; read after the run).
type options struct {
	clients, sockets, value, batch int
	keys                           int64
	reads                          float64
	workload                       string
	scanBudget                     uint64

	scanEntries int64
}

// run is the whole command: parse args, drive the load, and write the
// result JSON to stdout. It fails if any client did.
func run(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("prismload", flag.ContinueOnError)
	addr := fs.String("addr", "", "server addresses, comma-separated (one per replica or shard for rs, lock and tx): host:port is tcp, anything else (a path, relative or not) a unix socket")
	fs.IntVar(&o.clients, "clients", 100, "concurrent closed-loop clients (logical connections per server)")
	fs.IntVar(&o.sockets, "sockets", 8, "sockets per server to multiplex clients over")
	duration := fs.Duration("duration", 5*time.Second, "measurement duration")
	fs.Int64Var(&o.keys, "keys", 4096, "key space (should be preloaded)")
	fs.IntVar(&o.value, "value", 128, "value size for writes (bytes)")
	fs.Float64Var(&o.reads, "reads", 0.95, "fraction of GET/PUT operations that are GETs")
	fs.StringVar(&o.workload, "workload", "mix", "op mix: mix, or scan (kv)")
	fs.Uint64Var(&o.scanBudget, "scan-budget", 4096, "byte budget per SCAN window")
	fs.IntVar(&o.batch, "batch", 1, "GETs per doorbell on kv: issue reads in kv.GetBatch trains of this size")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return nil
	} else if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	switch {
	case *addr == "":
		return fmt.Errorf("%w: need -addr", errUsage)
	case o.clients < 1 || o.keys < 1 || o.value < 0 || *duration <= 0:
		return fmt.Errorf("%w: need -clients >= 1, -keys >= 1, -value >= 0 and -duration > 0", errUsage)
	case !(o.reads >= 0 && o.reads <= 1): // NaN fails both
		return fmt.Errorf("%w: -reads %v is not a fraction in [0, 1]", errUsage, o.reads)
	case o.workload != "mix" && o.workload != "scan":
		return fmt.Errorf("%w: unknown -workload %q (mix or scan)", errUsage, o.workload)
	}
	o.sockets = max(1, min(o.sockets, o.clients))
	o.batch = max(1, o.batch)

	// Dial every server's socket pool and open every logical connection
	// up front so the measured window is pure data path; client 0's fetch
	// each server's Meta.
	addrs := strings.Split(*addr, ",")
	var pool []*transport.Client
	conns := make([][]transport.Issuer, o.clients)
	for _, a := range addrs {
		sockets := make([]*transport.Client, o.sockets)
		for i := range sockets {
			tc, err := transport.Dial(a)
			if err != nil {
				return fmt.Errorf("dial %s: %w", a, err)
			}
			defer tc.Close()
			sockets[i] = tc
		}
		for i := range conns {
			cn, err := sockets[i%o.sockets].Connect()
			if err != nil {
				return fmt.Errorf("connect client %d to %s: %w", i, a, err)
			}
			conns[i] = append(conns[i], cn)
		}
		pool = append(pool, sockets...)
	}
	replies := make([]transport.MetaReply, len(addrs))
	for i := range replies {
		var err error
		if replies[i], err = transport.FetchMetaReply(conns[0][i]); err != nil {
			return fmt.Errorf("fetch meta from %s: %w", addrs[i], err)
		}
		if app := replies[i].App; app != replies[0].App {
			return fmt.Errorf("%s serves %s, but %s serves %s", addrs[0], replies[0].App, addrs[i], app)
		}
	}
	mk, err := o.clientsOf(replies)
	if err != nil {
		return err
	}

	// A client blocked on a wedged transport (an accepted socket nobody
	// reads) is left behind after this grace and reported as stalled.
	grace := *duration/2 + 5*time.Second
	d := workload.NewDriver(workload.NewWallClock(grace), workload.Window{Measure: *duration})
	for i, cn := range conns {
		d.Go(mk(i, cn))
	}
	r := d.Run()
	if r.Stalled > 0 {
		fmt.Fprintf(os.Stderr, "prismload: %d clients still blocked %v past the deadline; reporting partial results\n",
			r.Stalled, grace)
	}
	sum := r.Summary(o.clients, *duration)

	// Doorbell telemetry, aggregated over the socket pool: write
	// syscalls and the frames/bytes they carried (frames_per_write is
	// the realized batching factor), and the read syscalls of whoever
	// held each socket's read token.
	var writes, framesOut, bytesOut, readsIn, bytesIn int64
	for _, tc := range pool {
		w, f, b := tc.FlushStats()
		rd, rb := tc.ReadStats()
		writes, framesOut, bytesOut, readsIn, bytesIn = writes+w, framesOut+f, bytesOut+b, readsIn+rd, bytesIn+rb
	}
	firstErr := ""
	if r.FirstErr != nil {
		firstErr = r.FirstErr.Error()
	}
	result := map[string]any{
		"addr":              *addr,
		"clients":           o.clients,
		"sockets":           o.sockets,
		"duration_s":        duration.Seconds(),
		"workload":          o.workload,
		"reads":             o.reads,
		"value_bytes":       o.value,
		"ops":               r.Ops,
		"ops_per_sec":       sum.Throughput,
		"p50_us":            float64(sum.Median) / 1e3,
		"p99_us":            float64(sum.P99) / 1e3,
		"errors":            r.Errors,
		"num_cpu":           runtime.NumCPU(),
		"batch_len":         o.batch,
		"writes":            writes,
		"frames_per_write":  ratio(framesOut, writes),
		"bytes_per_syscall": ratio(bytesOut, writes),
		"read_syscalls":     readsIn,
		"bytes_per_read":    ratio(bytesIn, readsIn),
		// Per-client failure detail: each client errors at most once
		// before stopping, so errors == clients that dropped out.
		"clients_errored": r.Errors,
		"first_error":     firstErr,
		"stalled_clients": r.Stalled,
	}
	if o.workload == "scan" {
		result["scan_budget"] = o.scanBudget
		result["scan_entries"] = o.scanEntries
	}
	out, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if _, err := stdout.Write(out); err != nil {
		return err
	}
	if r.Errors > 0 || r.Stalled > 0 {
		return fmt.Errorf("%d clients failed, %d stalled", r.Errors, r.Stalled)
	}
	return nil
}

// clientFunc builds client id over its connections, one per server in -addr
// order: its closed-loop op, and what it does once it leaves the loop
// cleanly (nil for nothing).
type clientFunc func(id int, conns []transport.Issuer) (workload.Op, func())

// clientsOf returns the clients of the app whose servers sent replies.
func (o *options) clientsOf(replies []transport.MetaReply) (clientFunc, error) {
	app := replies[0].App
	if o.workload == "scan" && app != "kv" {
		return nil, fmt.Errorf("-workload scan needs a kv server, and the server serves %s", app)
	}
	if group := app == "rs" || app == "lock" || app == "tx"; !group && len(replies) != 1 {
		return nil, fmt.Errorf("%w: %s takes one -addr, not %d", errUsage, app, len(replies))
	}
	seed := func(id int) int64 { return int64(id)*7919 + 1 }
	mix := func(id int) *workload.Generator {
		return workload.NewGenerator(workload.Mix{Keys: o.keys, ReadFrac: o.reads, ValueSize: o.value}, seed(id))
	}
	rmw := func(id int) *workload.TxGenerator {
		return workload.NewTxGenerator(workload.TxMix{Keys: o.keys, ValueSize: o.value, KeysPerTx: 1}, seed(id))
	}
	switch app {
	case "kv":
		ms, err := metas[kv.Meta](app, replies)
		return func(id int, conns []transport.Issuer) (workload.Op, func()) {
			c := kv.NewClient(conns[0], ms[0], uint16(id+1))
			flush := func() { c.FlushFrees() }
			switch {
			case o.workload == "scan":
				return o.scan(c, ms[0].NSlots)
			case o.batch > 1:
				return getBatch(c, mix(id), o.batch), flush
			}
			return workload.MixOp(missOK{c}, mix(id)), flush
		}, err
	case "pilaf":
		// The live CPU computes the real CRC, so none is charged.
		ms, err := metas[kv.PilafMeta](app, replies)
		return func(id int, conns []transport.Issuer) (workload.Op, func()) {
			return workload.MixOp(missOK{kv.NewPilafClient(conns[0], ms[0], 0)}, mix(id)), nil
		}, err
	case "rs":
		ms, err := metas[abd.Meta](app, replies)
		return func(id int, conns []transport.Issuer) (workload.Op, func()) {
			c := abd.NewClient(uint16(id+1), conns, ms)
			return workload.MixOp(missOK{c}, mix(id)), func() { flush(c.Reclaim) }
		}, err
	case "lock":
		ms, err := metas[abd.LockMeta](app, replies)
		return func(id int, conns []transport.Issuer) (workload.Op, func()) {
			jitter := rand.New(rand.NewSource(^seed(id))).Float64
			return workload.MixOp(missOK{abd.NewLockClient(uint16(id+1), conns, ms, jitter)}, mix(id)), nil
		}, err
	case "tx":
		ms, err := metas[tx.Meta](app, replies)
		return func(id int, conns []transport.Issuer) (workload.Op, func()) {
			c := tx.NewClient(uint16(id+1), conns, ms)
			return workload.RMWOp(func() workload.Txn[tx.Timestamp] { return c.Begin() }, rmw(id)), func() { flush(c.Reclaim) }
		}, err
	case "farm":
		ms, err := metas[tx.FarmMeta](app, replies)
		return func(id int, conns []transport.Issuer) (workload.Op, func()) {
			c := tx.NewFarmClient(uint16(id+1), conns, ms)
			return workload.RMWOp(func() workload.Txn[tx.Timestamp] { return c.Begin() }, rmw(id)), nil
		}, err
	}
	return nil, fmt.Errorf("the server serves %q, which prismload does not drive", app)
}

// metas decodes each reply's Meta as app's type M.
func metas[M any](app string, replies []transport.MetaReply) ([]M, error) {
	ms := make([]M, len(replies))
	for i, r := range replies {
		if err := r.Decode(app, &ms[i]); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// missOK is a Store whose GET of a key never written is a valid miss, not
// an error: prismd -load need not cover -keys.
type missOK struct{ workload.Store }

func (s missOK) Get(key int64) ([]byte, error) {
	v, err := s.Store.Get(key)
	if err == kv.ErrNotFound {
		err = nil
	}
	return v, err
}

// getBatch is the GET/PUT mix with every GET widened to a kv.GetBatch
// train of n keys behind one doorbell: its latency is recorded once and
// its keys counted each.
func getBatch(c *kv.Client, gen *workload.Generator, n int) workload.Op {
	keys := make([]int64, n)
	ver := 0
	return func() (int64, int64, error) {
		kind, key := gen.Next()
		if kind == workload.OpPut {
			ver++
			return 1, 0, c.Put(key, gen.Value(key, ver))
		}
		keys[0] = key
		for j := 1; j < n; j++ {
			keys[j] = gen.NextKey()
		}
		var keyErr error
		err := c.GetBatch(keys, func(_ int, _ []byte, kerr error) {
			if kerr != nil && kerr != kv.ErrNotFound && keyErr == nil {
				keyErr = kerr // a miss is valid; a protocol error is not
			}
		})
		if err == nil {
			err = keyErr
		}
		return int64(n), 0, err
	}
}

// scan walks a kv hash table of nSlots slots in SCAN windows of
// -scan-budget bytes, wrapping at the end; the entries it visits are added
// to scan_entries when it exits.
func (o *options) scan(c *kv.Client, nSlots int64) (workload.Op, func()) {
	var cursor, entries int64
	visit := func(int64, []byte) error { entries++; return nil }
	return func() (int64, int64, error) {
			next, err := c.Scan(cursor, o.scanBudget, visit)
			if err != nil {
				return 1, 0, err
			}
			if cursor = next; cursor >= nSlots {
				cursor = 0
			}
			return 1, 0, nil
		}, func() {
			o.scanEntries += entries
			c.FlushFrees()
		}
}

// flush sends every reclamation batch still queued.
func flush(rs []transport.Reclaimer) {
	for i := range rs {
		rs[i].Flush()
	}
}

// ratio returns a/b as a float, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
