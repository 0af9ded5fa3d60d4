// Package stats provides the latency/throughput summaries the benchmark
// harness reports: streaming histograms with percentile queries.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Histogram geometry: 64 sub-buckets per power of two of nanoseconds
// (HDR-histogram style). Values below subBuckets ns land in exact 1 ns
// buckets; above that, bucket width is value/64, so percentile queries
// carry at most ~1.6% relative error regardless of sample count. The
// whole recorder is a fixed ~29 KB regardless of how many samples it
// absorbs — paper-scale runs no longer hold millions of samples.
const (
	subBucketBits = 6
	subBuckets    = 1 << subBucketBits // 64
	// numBuckets covers durations up to 2^63-1 ns (~292 years).
	numBuckets = (63 - subBucketBits + 1) * subBuckets
)

// LatencyRecorder accumulates operation latencies in a bounded
// log-bucketed streaming histogram. Mean, Count, and Max are exact;
// other percentiles are bucket-resolution approximations clamped to the
// observed [min, max].
type LatencyRecorder struct {
	counts [numBuckets]uint32
	count  int64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{}
}

// bucketIndex maps a duration (clamped to >= 0) to its bucket.
func bucketIndex(d time.Duration) int {
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	k := bits.Len64(v) - 1 // 2^k <= v < 2^(k+1), k >= subBucketBits
	shift := uint(k - subBucketBits)
	sub := int(v>>shift) - subBuckets // 0..subBuckets-1
	return (k-subBucketBits+1)*subBuckets + sub
}

// bucketCeil returns the largest duration mapping to bucket idx.
func bucketCeil(idx int) time.Duration {
	g := idx >> subBucketBits
	sub := uint64(idx & (subBuckets - 1))
	if g == 0 {
		return time.Duration(sub)
	}
	shift := uint(g - 1)
	return time.Duration(((subBuckets+sub+1)<<shift)-1) & math.MaxInt64
}

// Record adds one sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.counts[bucketIndex(d)]++
	r.sum += d
	if r.count == 0 || d < r.min {
		r.min = d
	}
	if d > r.max {
		r.max = d
	}
	r.count++
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return int(r.count) }

// Mean returns the average latency (0 if empty). Exact.
func (r *LatencyRecorder) Mean() time.Duration {
	if r.count == 0 {
		return 0
	}
	return r.sum / time.Duration(r.count)
}

// Percentile returns the q-th percentile (0 < q <= 100) by nearest-rank
// over the histogram buckets, clamped to the observed [min, max].
func (r *LatencyRecorder) Percentile(q float64) time.Duration {
	if r.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q / 100 * float64(r.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > r.count {
		rank = r.count
	}
	var cum int64
	for idx := bucketIndex(r.min); idx < numBuckets; idx++ {
		cum += int64(r.counts[idx])
		if cum >= rank {
			v := bucketCeil(idx)
			if v < r.min {
				v = r.min
			}
			if v > r.max {
				v = r.max
			}
			return v
		}
	}
	return r.max
}

// Median is Percentile(50).
func (r *LatencyRecorder) Median() time.Duration { return r.Percentile(50) }

// P99 is Percentile(99).
func (r *LatencyRecorder) P99() time.Duration { return r.Percentile(99) }

// Max returns the largest sample. Exact.
func (r *LatencyRecorder) Max() time.Duration {
	return r.max
}

// Reset discards all samples.
func (r *LatencyRecorder) Reset() {
	r.counts = [numBuckets]uint32{}
	r.count = 0
	r.sum = 0
	r.min = 0
	r.max = 0
}

// Summary is a point on a throughput-latency curve.
type Summary struct {
	Clients    int
	Throughput float64 // operations per second
	Mean       time.Duration
	Median     time.Duration
	P99        time.Duration
	Aborts     int64 // protocol-level retries/aborts, if applicable
	Errors     int64 // clients that stopped on an operation error
}

// String formats the summary as one table row.
func (s Summary) String() string {
	row := fmt.Sprintf("clients=%4d  tput=%10.0f op/s  mean=%8.2fµs  p50=%8.2fµs  p99=%8.2fµs",
		s.Clients, s.Throughput,
		float64(s.Mean)/1e3, float64(s.Median)/1e3, float64(s.P99)/1e3)
	if s.Errors > 0 {
		row += fmt.Sprintf("  ERRORS=%d", s.Errors)
	}
	return row
}
