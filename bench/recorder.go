package main

import (
	"math"
	"sort"
	"time"
)

// recorder keeps every latency sample of one connection and phase as raw
// nanoseconds in a slice sized before the phase starts, so recording is an
// append that never allocates and a quantile is exact. (The repository's
// metrics.LatencyHistogram has power-of-two buckets and cannot resolve a
// change of a tenth.)
type recorder struct{ ns []int64 }

func newRecorder(capacity int) *recorder { return &recorder{ns: make([]int64, 0, capacity)} }

func (r *recorder) add(d time.Duration) { r.ns = append(r.ns, int64(d)) }

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least a share q of the samples at or below it.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(parts ...[]int64) []int64 {
	var out []int64
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// topPercentile is the highest of p90, p99, p99.9 and p99.99 that still has
// at least ten of n samples beyond it; 0 when even p90 has not.
func topPercentile(n int) float64 {
	top := 0.0
	for _, tail := range []int{10, 100, 1000, 10000} { // one sample in tail lies beyond
		if n >= 10*tail {
			top = 1 - 1/float64(tail)
		}
	}
	return top
}

// quartiles returns the first quartile, the median and the third quartile
// of v as Python's statistics.quantiles(v, n=4) computes them (the
// exclusive method), which is how the driver computes a metric's spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
