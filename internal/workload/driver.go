package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/stats"
)

// Clock is the time a closed-loop run advances on: the simulator's engine
// for the figure harness, the wall clock for prismload. Instants are
// durations since the run's origin.
type Clock interface {
	Now() time.Duration
	// Go starts fn as one client: a simulation process or a goroutine.
	Go(fn func())
	// Run advances the clock to the instant until: the engine processes
	// every event up to it, the wall clock sleeps.
	Run(until time.Duration)
	// Drain lets the operations in flight finish: the engine runs until
	// nothing is pending, the wall clock waits at most its grace.
	Drain()
}

// Op is one closed-loop operation of one client. It returns how many
// logical operations it completed (a GET train counts each key) and the
// aborts it retried through on the way, or an error that stops the
// client.
type Op func() (ops, aborts int64, err error)

// Window is what a run measures: operations that start at or after Warmup
// and end by Warmup+Measure.
type Window struct {
	Warmup, Measure time.Duration
}

// Result is what a closed-loop run measured.
type Result struct {
	Ops, Aborts int64
	Errors      int64                  // clients that stopped on an error
	FirstErr    error                  // the first of those errors, naming its client
	Stalled     int64                  // clients still inside an operation when the drain ended
	Latency     *stats.LatencyRecorder // one sample per measured operation
}

// Summary is r as a point of a throughput–latency curve at clients, its
// operations spread over measure, the window's Measure.
func (r Result) Summary(clients int, measure time.Duration) stats.Summary {
	return stats.Summary{
		Clients:    clients,
		Throughput: float64(r.Ops) / measure.Seconds(),
		Mean:       r.Latency.Mean(),
		Median:     r.Latency.Median(),
		P99:        r.Latency.P99(),
		Aborts:     r.Aborts,
		Errors:     r.Errors,
	}
}

// Driver runs closed-loop clients (§6.3, §7.4, §8.3) on a clock through
// one window. Its counts live under one mutex, taken once per measured
// operation and once per client exit; the engine runs one client at a
// time, so on the simulator the lock changes no order.
type Driver struct {
	clock   Clock
	w       Window
	stopped atomic.Bool // clients issue no further operations

	mu       sync.Mutex
	res      Result
	started  int   // clients started, returned or not
	running  int64 // clients not yet returned
	finished bool  // Run has returned: exiting clients add nothing
}

// NewDriver returns a driver that measures w on clock.
func NewDriver(clock Clock, w Window) *Driver {
	return &Driver{clock: clock, w: w, res: Result{Latency: stats.NewLatencyRecorder()}}
}

// Go starts a client that runs op until the window closes or the driver
// stops. done, when non-nil, runs on the client once it leaves the loop
// without an error, under the driver's lock and only if Run has not
// returned: it may add to totals that the caller reads after Run.
func (d *Driver) Go(op Op, done func()) {
	d.mu.Lock()
	id := d.started
	d.started, d.running = d.started+1, d.running+1
	d.mu.Unlock()
	d.clock.Go(func() {
		err := d.loop(op)
		d.mu.Lock()
		defer d.mu.Unlock()
		d.running--
		switch {
		case d.finished:
		case err != nil:
			d.res.Errors++
			if d.res.FirstErr == nil {
				d.res.FirstErr = fmt.Errorf("client %d: %w", id, err)
			}
		case done != nil:
			done()
		}
	})
}

// loop is one client's closed loop.
func (d *Driver) loop(op Op) error {
	end := d.w.Warmup + d.w.Measure
	for !d.stopped.Load() {
		start := d.clock.Now()
		if start >= end {
			return nil
		}
		n, aborts, err := op()
		if err != nil {
			return err
		}
		if fin := d.clock.Now(); start >= d.w.Warmup && fin <= end {
			d.record(fin-start, n, aborts)
		}
	}
	return nil
}

// record counts one measured operation.
func (d *Driver) record(lat time.Duration, n, aborts int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.res.Latency.Record(lat)
	d.res.Ops += n
	d.res.Aborts += aborts
}

// Run advances the clock through the window, stops the clients, drains
// the operations in flight and returns what was measured.
func (d *Driver) Run() Result {
	d.clock.Run(d.w.Warmup + d.w.Measure)
	d.stopped.Store(true)
	d.clock.Drain()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.finished = true
	r := d.res
	r.Stalled = d.running
	return r
}

// WallClock is the Clock of a live run: instants since it was made, one
// goroutine per client, and a drain that waits at most grace.
type WallClock struct {
	origin time.Time
	grace  time.Duration
	wg     sync.WaitGroup
}

// NewWallClock returns a wall clock whose origin is now.
func NewWallClock(grace time.Duration) *WallClock {
	return &WallClock{origin: time.Now(), grace: grace}
}

func (c *WallClock) Now() time.Duration { return time.Since(c.origin) }

func (c *WallClock) Go(fn func()) {
	c.wg.Add(1)
	go func() { defer c.wg.Done(); fn() }()
}

func (c *WallClock) Run(until time.Duration) { time.Sleep(until - c.Now()) }

// Drain waits for every client to return, or for the grace to pass.
func (c *WallClock) Drain() {
	returned := make(chan struct{})
	go func() { c.wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(c.grace):
	}
}

// Store is the GET/PUT surface of the key-value and block systems
// (PRISM-KV, Pilaf, PRISM-RS, ABDLOCK).
type Store interface {
	Get(key int64) ([]byte, error)
	Put(key int64, value []byte) error
}

// MixOp is the closed-loop operation of a GET/PUT client: each call draws
// (kind, key) from gen and GETs the key or PUTs a fresh version of its
// value.
func MixOp(st Store, gen *Generator) Op {
	ver := 0
	return func() (int64, int64, error) {
		kind, key := gen.Next()
		if kind == OpGet {
			_, err := st.Get(key)
			return 1, 0, err
		}
		ver++
		return 1, 0, st.Put(key, gen.Value(key, ver))
	}
}

// Txn is one transaction of PRISM-TX or FaRM; TS is the commit timestamp.
type Txn[TS any] interface {
	Read(key int64) ([]byte, error)
	Write(key int64, value []byte)
	Commit() (TS, error)
}

// RMWOp is the closed-loop operation of a YCSB-T client: each call is one
// read-modify-write transaction over the keys gen draws, begun by begin
// and retried until it commits, with the aborts on the way.
func RMWOp[TS any](begin func() Txn[TS], gen *TxGenerator) Op {
	ver := 0
	return func() (int64, int64, error) {
		keys := gen.Next()
		var aborts int64
		for {
			t := begin()
			for _, k := range keys {
				old, err := t.Read(k)
				if err != nil {
					return 1, aborts, err
				}
				ver++
				nv := append([]byte(nil), old...)
				if len(nv) > 0 {
					nv[0] ^= byte(ver)
				}
				t.Write(k, nv)
			}
			if _, err := t.Commit(); err == nil {
				return 1, aborts, nil
			}
			aborts++
		}
	}
}
