package telemetry

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is one bucket per value bit-length: bucket 0 holds exactly
// the value 0, bucket i (i >= 1) holds [2^(i-1), 2^i). 64 value buckets
// cover every non-negative int64 nanosecond duration (negative inputs
// clamp to 0, so a clock hiccup cannot index out of range).
const histBuckets = 65

// Histogram is a lock-free log2-bucketed latency histogram. Record is
// safe from any goroutine; Snapshot/Summary taken concurrently see a
// near-consistent view (each counter is individually atomic).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	return bits.Len64(uint64(ns))
}

// BucketUpper returns the inclusive upper bound of bucket i (0 for the
// zero bucket, 2^i - 1 otherwise; the last bucket saturates at MaxInt64).
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1) // MaxInt64
	}
	return int64(1)<<i - 1
}

// Record adds one observation in nanoseconds.
func (h *Histogram) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(ns))
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the total of all observations in nanoseconds.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max reports the largest observation.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Buckets snapshots the bucket counters.
func (h *Histogram) Buckets() [histBuckets]uint64 {
	var out [histBuckets]uint64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the
// upper edge of the first bucket whose cumulative count reaches q. An
// empty histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := uint64(q * float64(total))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= need {
			return BucketUpper(i)
		}
	}
	return h.max.Load()
}

// HistSummary is a histogram's percentile digest.
type HistSummary struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
	Max   time.Duration
}

// Summary digests the histogram into counts and percentile bounds.
func (h *Histogram) Summary() HistSummary {
	s := HistSummary{
		Count: h.count.Load(),
		P50:   time.Duration(h.Quantile(0.50)),
		P90:   time.Duration(h.Quantile(0.90)),
		P99:   time.Duration(h.Quantile(0.99)),
		P999:  time.Duration(h.Quantile(0.999)),
		Max:   time.Duration(h.max.Load()),
	}
	if s.Count > 0 {
		s.Mean = time.Duration(h.sum.Load() / s.Count)
	}
	return s
}

func (s HistSummary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%v p50<=%v p90<=%v p99<=%v p999<=%v max=%v",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
}
