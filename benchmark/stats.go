package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. No interpolation and no buckets, so the value is always a sample.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// tailBeyond is how many samples must lie beyond a percentile before it
// is printed: fewer and the number is one or two outliers, not a tail.
const tailBeyond = 10

// gatedPercentile returns the nearest-rank want-th percentile when at
// least tailBeyond samples lie beyond its rank, and otherwise the highest
// percentile that has tailBeyond samples beyond it (never below the
// median). It reports which percentile the value is.
func gatedPercentile(sorted []uint32, want float64) (v uint32, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, want
	}
	rank := min(max(int(math.Ceil(want/100*float64(n))), 1), n)
	if n-rank >= tailBeyond {
		return sorted[rank-1], want
	}
	rank = max(n-tailBeyond, (n+1)/2)
	return sorted[rank-1], 100 * float64(rank) / float64(n)
}

// median returns the middle value (mean of the two middle values for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartileSpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method) — the spread the
// driver computes over ten runs. Needs at least two values.
func quartileSpread(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((q(3) - q(1)) / med)
}

// samples holds durations in whole nanoseconds, as measured, in the chunks
// they were recorded in (one per epoch or phase), so that a run of millions
// of samples neither doubles a growing slice while it is being timed nor
// spends eight bytes on each. A sample longer than 4.29 s saturates; the
// runtime gives up on a delivery after 20 s, and that is counted as a
// failure, not as a latency.
type samples struct{ chunks [][]uint32 }

func ns32(d time.Duration) uint32 {
	return uint32(min(max(d, 0), math.MaxUint32))
}

func (s *samples) add(chunk []uint32) { s.chunks = append(s.chunks, chunk) }

// sorted flattens the chunks into one ascending slice.
func (s *samples) sorted() []uint32 {
	out := slices.Concat(s.chunks...)
	slices.Sort(out)
	return out
}

func us[T uint32 | int64](ns T) float64 { return float64(ns) / 1e3 }

// cpuAndRSS reads the process's CPU time (user+sys) and peak resident
// set from rusage.
func cpuAndRSS() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}
