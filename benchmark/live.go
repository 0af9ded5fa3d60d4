package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"prism/internal/kv"
	"prism/internal/transport"
)

// sliceTimeout bounds one slice. A slice takes a fraction of a second; a
// client still blocked after this long is stalled, and its remaining
// operations count as failed.
const sliceTimeout = 60 * time.Second

// liveEnv is the system under test, built in-process: a transport.Server
// with a preloaded PRISM-KV store serving a unix socket, and the
// closed-loop clients dialled to it. Traffic crosses the host's
// unix-domain loopback, not a link.
type liveEnv struct {
	spec    liveSpec
	seed    int64
	ts      *transport.Server
	served  chan error
	pool    []*transport.Client
	clients []*loadClient

	// Totals over the environment's whole life (warm-up included), the
	// base of every counter ratio: sockets fold their counts into the
	// server only when they close, so counters cannot be windowed.
	ops int64

	merged    []int64 // latency merge scratch, reused across slices
	closeOnce sync.Once
}

// loadClient is one closed-loop client: a goroutine that issues its next
// call only when the previous one has completed, as an RDMA client waits
// for its completion.
type loadClient struct {
	env  *liveEnv
	id   int
	kvc  kvStore
	live *kv.LiveClient // kvc when it is the system under test, for its counters
	rng  *rand.Rand

	lat      []int64 // per-call latencies of the current slice, ns
	failed   int64
	firstErr error

	val    []byte  // PUT value scratch
	seq    uint32  // this writer's PUT sequence
	keys   []int64 // train scratch
	cursor int64   // next SCAN start slot
	gets   int64
	puts   int64

	// The last call's identity, for a trace replay.
	lastKey int64 // its key, or its SCAN start slot
	lastPut bool

	tr *clientTrace // nil in untraced slices
}

// newStore builds a transport server, not yet serving, with a PRISM-KV
// store on it that holds the value of (seed, key, writer 0, sequence 0)
// for each of the nKeys keys.
func newStore(seed int64, valueSize int) (*transport.Server, *kv.Server, error) {
	ts := transport.NewServer()
	store, err := kv.NewServerOn(ts, kv.DefaultOptions(nKeys, valueSize))
	if err != nil {
		return nil, nil, err
	}
	val := make([]byte, valueSize)
	for k := int64(0); k < nKeys; k++ {
		fillValue(val, seed, k, 0, 0)
		if err := store.Load(k, val); err != nil {
			return nil, nil, err
		}
	}
	return ts, store, nil
}

// newLiveEnv builds the server, preloads it, serves it on a unix socket
// under dir and connects the clients. Everything here is set-up time.
func newLiveEnv(spec liveSpec, seed int64, dir string) (*liveEnv, error) {
	ts, _, err := newStore(seed, spec.valueSize)
	if err != nil {
		return nil, err
	}
	e := &liveEnv{spec: spec, seed: seed, ts: ts, served: make(chan error, 1)}
	// A relative path keeps the socket inside the working directory and
	// under the 108-byte sun_path limit wherever that directory is.
	path := filepath.Join(dir, "prism.sock")
	os.Remove(path)
	l, err := net.Listen("unix", path)
	if err != nil {
		return nil, err
	}
	go func() { e.served <- e.ts.Serve(l) }()

	var meta kv.Meta
	for i := 0; i < clientCount(spec.clients); i++ {
		tc, err := transport.DialNetwork("unix", path)
		if err != nil {
			e.close()
			return nil, err
		}
		e.pool = append(e.pool, tc)
		conn, err := tc.Connect()
		if err != nil {
			e.close()
			return nil, err
		}
		if i == 0 {
			if meta, err = kv.FetchMeta(conn); err != nil {
				e.close()
				return nil, err
			}
		}
		live := kv.NewLiveClient(conn, meta, uint16(i+1))
		e.clients = append(e.clients, &loadClient{
			env: e, id: i, kvc: live, live: live,
			rng:  rand.New(rand.NewSource(seed*7919 + int64(i) + 1)),
			val:  make([]byte, spec.valueSize),
			keys: make([]int64, trainLen),
			// Clients start their SCAN cursors apart so two clients do
			// not read the same window in lock-step.
			cursor: int64(i) * nKeys / int64(spec.clients),
		})
	}
	return e, nil
}

// close stops clients and server and waits for both; it is safe on a
// partly built environment and when repeated. Server-side socket
// counters are complete only after it returns.
func (e *liveEnv) close() {
	e.closeOnce.Do(func() {
		for _, c := range e.clients {
			if err := c.kvc.FlushFrees(); err != nil && c.firstErr == nil {
				c.firstErr = err
			}
		}
		for _, tc := range e.pool {
			tc.Close() // drains staged frames; always returns nil
		}
		e.ts.Shutdown(5 * time.Second)
		<-e.served
	})
}

// fail records one failed operation.
func (c *loadClient) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// call issues one call into kv and verifies what came back. Every key is
// preloaded and never deleted, so a miss is a failure like any other
// error.
func (c *loadClient) call() {
	spec := &c.env.spec
	switch spec.kind {
	case kindGet:
		c.get(c.rng.Int63n(nKeys))
	case kindGetBatch:
		for i := range c.keys {
			c.keys[i] = c.rng.Int63n(nKeys)
		}
		visited := 0
		err := c.kvc.GetBatch(c.keys, func(i int, v []byte, err error) {
			visited++
			if err == nil {
				err = checkValue(v, c.keys[i], spec.valueSize)
			}
			if err != nil {
				c.fail(err)
			}
		})
		if err != nil {
			for ; visited < len(c.keys); visited++ {
				c.fail(err)
			}
		}
		c.gets += trainLen
	case kindPutMix:
		key := c.rng.Int63n(nKeys)
		if c.lastPut = c.rng.Int63()&1 == 1; !c.lastPut {
			c.get(key)
			return
		}
		c.lastKey = key
		c.seq++
		fillValue(c.val, c.env.seed, key, uint32(c.id+1), c.seq)
		if err := c.kvc.Put(key, c.val); err != nil {
			c.fail(err)
		}
		c.puts++
	case kindScan:
		// Collisionless hashing puts key k in slot k, so a window
		// starting at slot s must hold keys s, s+1, ... in order.
		c.lastKey = c.cursor
		want := c.cursor
		next, err := c.kvc.Scan(c.cursor, scanBudget, func(k int64, v []byte) error {
			if k != want {
				return fmt.Errorf("scan from slot %d: got key %d, want %d", c.cursor, k, want)
			}
			want++
			return checkValue(v, k, spec.valueSize)
		})
		switch {
		case err != nil:
			c.fail(err)
		case next != want || next == c.cursor:
			c.fail(fmt.Errorf("scan from slot %d: cursor %d after %d entries", c.cursor, next, want-c.cursor))
		}
		c.cursor = next
		if err != nil || next >= nKeys {
			c.cursor = 0
		}
	}
}

func (c *loadClient) get(key int64) {
	c.lastKey = key
	v, err := c.kvc.Get(key)
	if err == nil {
		err = checkValue(v, key, c.env.spec.valueSize)
	}
	if err != nil {
		c.fail(err)
	}
	c.gets++
}

// run issues n calls back to back, timing each.
func (c *loadClient) run(n int64) {
	c.lat = c.lat[:0]
	for i := int64(0); i < n; i++ {
		start := time.Now()
		c.call()
		end := time.Now()
		c.lat = append(c.lat, int64(end.Sub(start)))
		if c.tr != nil {
			c.tr.afterCall(c, start, end)
		}
	}
}

// sliceResult is what one slice measured.
type sliceResult struct {
	ops, calls, failed int64
	wall, cpu          time.Duration
	p50, p99           time.Duration // per call
	mallocs            uint64
	gcs                uint32
}

func (s sliceResult) opsPerSec() float64 { return float64(s.ops) / s.wall.Seconds() }

var errStalled = errors.New("client stalled")

// slice runs one slice: ops logical operations split evenly over the
// clients, all started together. ops is rounded down to whole calls per
// client.
func (e *liveEnv) slice(ops int64) (sliceResult, error) {
	perClient := ops / int64(len(e.clients)) / e.spec.callOps()
	if perClient < 1 {
		perClient = 1
	}
	var failedBefore int64
	for _, c := range e.clients {
		failedBefore += c.failed
		if int64(cap(c.lat)) < perClient {
			c.lat = make([]int64, 0, perClient)
		}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	mallocs0, gcs0 := memCounters()
	cpu0 := cpuTime()
	t0 := time.Now()
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			c.run(perClient)
		}(c)
	}
	go func() { wg.Wait(); close(done) }()
	var stalled error
	timeout := time.NewTimer(sliceTimeout)
	defer timeout.Stop()
	select {
	case <-done:
	case <-timeout.C:
		// Closing the sockets fails the blocked issues, so the clients
		// return and the goroutines end.
		stalled = errStalled
		for _, tc := range e.pool {
			tc.Close()
		}
		<-done
	}
	r := sliceResult{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	mallocs1, gcs1 := memCounters()
	r.mallocs, r.gcs = mallocs1-mallocs0, gcs1-gcs0

	r.calls = perClient * int64(len(e.clients))
	r.ops = r.calls * e.spec.callOps()
	all := e.merged[:0]
	for _, c := range e.clients {
		r.failed += c.failed
		all = append(all, c.lat...)
	}
	e.merged = all
	r.failed -= failedBefore
	slices.Sort(all)
	r.p50 = time.Duration(percentileNS(all, 50))
	r.p99 = time.Duration(percentileNS(all, 99))
	e.ops += r.ops
	return r, stalled
}

// counters reads every exported counter of the closed environment and
// turns them into per-operation ratios. Call after close.
func (e *liveEnv) counters(m map[string]float64) {
	var cw, cf, cb, cr, crb float64
	for _, tc := range e.pool {
		w, f, b := tc.FlushStats()
		cw, cf, cb = cw+float64(w), cf+float64(f), cb+float64(b)
		r, rb := tc.ReadStats()
		cr, crb = cr+float64(r), crb+float64(rb)
	}
	var probes, casFail, gets, puts float64
	for _, c := range e.clients {
		probes += float64(c.live.Probes)
		casFail += float64(c.live.CASFail)
		gets += float64(c.gets)
		puts += float64(c.puts)
	}
	ts := e.ts
	sw, sr := float64(ts.Writes.Load()), float64(ts.Reads.Load())
	ops := float64(e.ops)
	m["transport.client_frames_per_write"] = ratio(cf, cw)
	m["transport.client_bytes_per_write"] = ratio(cb, cw)
	m["transport.client_bytes_per_read"] = ratio(crb, cr)
	m["transport.server_frames_per_write"] = ratio(float64(ts.FramesOut.Load()), sw)
	m["transport.server_batch_len"] = ratio(float64(ts.BatchFrames.Load()), float64(ts.Batches.Load()))
	m["transport.syscalls_per_op"] = ratio(cw+cr+sw+sr, ops)
	m["transport.wire_bytes_per_op"] = ratio(cb+float64(ts.BytesOut.Load()), ops)
	m["kv.round_trips_per_op"] = ratio(float64(ts.RequestsServed.Load()), ops)
	m["kv.probes_per_get"] = ratio(probes, gets)
	m["kv.cas_fail_share"] = ratio(casFail, puts)
	m["prism.ops_per_request"] = ratio(float64(ts.OpsExecuted.Load()), float64(ts.RequestsServed.Load()))
	m["prism.program_steps_per_op"] = ratio(float64(ts.ProgSteps.Load()), float64(ts.ProgOps.Load()))
}

// firstError is the first failure any client saw, for the report.
func (e *liveEnv) firstError() error {
	for _, c := range e.clients {
		if c.firstErr != nil {
			return fmt.Errorf("client %d: %w", c.id, c.firstErr)
		}
	}
	return nil
}

// runLive runs one live workload: half of the o.setupPasses set-up passes
// (the last environment built serves the run), warmSlices discarded
// slices, whole slices until o.seconds have been measured (at least
// o.minSlices), then the other half of the set-up passes — the two halves
// are the run's length apart, so a burst of host interference rarely
// covers both. Every pass is timed with the collector quiesced and
// corrected by the yardstick beside it (yardstick.go); result.reduce
// turns each timing metric's per-slice or per-pass values into the run's
// value.
func runLive(spec liveSpec, o runOpts) (*result, error) {
	res := newResult(spec.name, o)
	setup := func() (*liveEnv, error) {
		var env *liveEnv
		d, err := quiesced(func() (err error) {
			env, err = newLiveEnv(spec, o.seed, o.dir)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
		res.addSetup(d, refPass())
		return env, nil
	}
	before := (o.setupPasses + 1) / 2
	var env *liveEnv
	for i := 0; i < before; i++ {
		if env != nil {
			env.close()
		}
		var err error
		if env, err = setup(); err != nil {
			return nil, err
		}
	}
	defer env.close()
	refBuf = nil // the yardstick's memory must not sit in the heap while the workload runs

	sliceOps := spec.sliceOps / int64(o.shrink)
	for i := 0; i < warmSlices; i++ {
		if _, err := env.slice(sliceOps); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", spec.name, err)
		}
	}
	var tr *tracer
	if o.trace {
		var err error
		if tr, err = newTracer(env, o, sliceOps); err != nil {
			return nil, err
		}
	}
	var measured time.Duration
	var untracedOps int64
	var mallocs uint64
	var gcs uint32
	for n := 0; o.more(n, measured, untracedRefSlices+tracedSlices); n++ {
		// A traced run measures a few untraced slices first: their
		// throughput is what load.trace_overhead compares with.
		traced := tr != nil && n >= untracedRefSlices
		if traced {
			tr.attach()
		}
		s, err := env.slice(sliceOps)
		if traced {
			tr.detach()
		}
		res.Attempted += s.ops
		res.Failed += s.failed
		if err != nil {
			// The stalled clients' unfinished calls never completed.
			res.FirstError = err.Error()
			break
		}
		measured += s.wall
		if traced {
			tr.tracedOpsPerSec = append(tr.tracedOpsPerSec, s.opsPerSec())
			continue
		}
		untracedOps += s.ops
		mallocs += s.mallocs
		gcs += s.gcs
		res.addSlice("load.ops_per_s", s.opsPerSec())
		res.addSlice("load.p50_us", float64(s.p50)/1e3)
		res.addSlice("load.p99_us", float64(s.p99)/1e3)
		res.addSlice("load.cpu_us_per_op", float64(s.cpu)/1e3/float64(s.ops))
		res.addSlice("load.slice_wall_s", s.wall.Seconds())
		res.Samples["latency_samples_per_slice"] = s.calls
	}
	res.Metrics["live_heap_mb"] = heapAfterGC()
	env.close()
	for i := before; i < o.setupPasses; i++ {
		e, err := setup()
		if err != nil {
			return nil, err
		}
		e.close()
	}

	if err := env.firstError(); err != nil && res.FirstError == "" {
		res.FirstError = err.Error()
	}
	res.reduce()
	env.counters(res.Metrics)
	res.Metrics["load.allocs_per_op"] = ratio(float64(mallocs), float64(untracedOps))
	res.Metrics["load.gc_cycles"] = float64(gcs)
	res.Metrics["load.slice_cv"] = cv(res.Slices["load.ops_per_s"])
	res.Metrics["load.failed_ops_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	res.Samples["slices"] = int64(len(res.Slices["load.ops_per_s"]))
	if tr != nil {
		if err := tr.finish(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}
