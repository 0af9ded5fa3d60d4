package main

import (
	"runtime"
	"runtime/debug"
	"time"
)

// The yardstick. On the shared host a set-up pass — milliseconds of
// allocation, zeroing and small writes — takes 1.5 ms in one minute and
// 2.5 ms in the next, as a neighbour's memory traffic comes and goes, and
// stays there for longer than a run lasts: no quantile of a run's passes
// is immune. So every timed pass has a reference pass beside it — frozen
// code of this package doing the same kind of work on the same host in
// the same millisecond — and setup_s is the pass's time with the host's
// momentary speed divided out:
//
//	corrected = measured * refNominal / reference time beside it
//
// The correction is about 1 on an undisturbed host. Over ten minutes of
// live set-ups, cut into runs of 120 passes, the raw run medians ranged
// over 34% (get_rtt) and 82% (put_mix) of their median and the corrected
// ones over 19% and 28%; over 90 sim_figures processes the medians of ten
// consecutive runs moved by up to 29% raw and 7% corrected. The raw time
// is reported as load.setup_raw_s.
const (
	refBytes     = 16 << 20
	refValues    = 3 * nKeys
	refValueSize = 256
	// refNominal is about what refPass takes on the undisturbed 2-vCPU
	// host the benchmark was written on.
	refNominal = 2 * time.Millisecond
)

// refBuf is the reference's working memory, allocated on first use and
// kept between passes so that the reference times the host, not the Go
// runtime's page cache. A run drops it before the workload starts: it
// is the benchmark's memory and must neither pace the collector while
// the workload runs nor count in live_heap_mb.
var refBuf []byte

// quiesced runs fn from a collected heap with the collector off, and
// returns how long it took. Set-up passes run back to back, and a pass
// would otherwise time the collection of its predecessor's store, which
// costs more than the set-up does and lands wherever the collector's
// cycle happens to be: the median of 120 live set-ups read 4.6 to 10.7 ms
// from process to process with the collector on, 1.81 to 1.89 ms this way.
func quiesced(fn func() error) (time.Duration, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// refPass times the reference: zero refBytes of memory, then write
// refValues checksummed values spread evenly over it.
func refPass() time.Duration {
	if refBuf == nil {
		refBuf = make([]byte, refBytes)
		clear(refBuf) // fault the pages in before the clock starts
	}
	t0 := time.Now()
	clear(refBuf)
	const stride = refBytes / refValues
	for k := 0; k < refValues; k++ {
		fillValue(refBuf[k*stride:k*stride+refValueSize], 0, int64(k), 0, 0)
	}
	return time.Since(t0)
}

// addSetup records one set-up pass that took d, with the reference time
// ref measured beside it.
func (r *result) addSetup(d, ref time.Duration) {
	r.addSlice("load.setup_raw_s", d.Seconds())
	r.addSlice("setup_s", d.Seconds()*float64(refNominal)/float64(ref))
}
