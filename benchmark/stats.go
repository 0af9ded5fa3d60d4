package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// median returns the middle of vs (mean of the middle two for an even
// count), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics. vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// bestQuartile is the level the best quarter of a metric's per-slice
// values reaches: the upper quartile when higher is better, the lower one
// otherwise. On a shared host interference only ever slows a slice down,
// and much of it comes and goes within seconds, so the good quartile of
// many short slices repeats from run to run at least as well as their
// median, yet still moves with every slice when the program itself gets
// slower.
func bestQuartile(metric string, vs []float64) float64 {
	if higherIsBetter(metric) {
		return quantile(vs, 0.75)
	}
	return quantile(vs, 0.25)
}

// iqrShare is the distance between the first and third quartile of vs as
// a share of its median — the spread the acceptance rule is stated in.
// It uses the exclusive method of Python's statistics.quantiles(n=4) so
// the number printed here is the number the driver computes.
func iqrShare(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(k int) float64 {
		// Exclusive quantile k/4: position k*(n+1)/4 in 1-based ranks.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}

// cv is the coefficient of variation (population standard deviation over
// mean) of vs.
func cv(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / float64(len(vs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range vs {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss/float64(len(vs))) / mean
}

// percentileNS returns the nearest-rank q-th percentile (0 < q <= 100)
// of sorted, in the same unit as the samples.
func percentileNS[T int64 | time.Duration](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far. Client and
// server share the process, so a delta of it is the whole datapath's CPU
// bill.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // getrusage(RUSAGE_SELF) cannot fail with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC forces a collection and returns the live heap in MB.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// memCounters snapshots the allocation and GC-cycle counters.
func memCounters() (mallocs uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.NumGC
}
