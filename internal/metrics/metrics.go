// Package metrics provides the small set of measurement primitives the
// server, simulator and benchmarks share: hit/miss counters, windowed hit
// rates (Figure 9 plots hit rate over time), log-bucketed latency histograms
// (Table 6) and throughput meters (Table 7).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HitCounter counts hits and misses. It is safe for concurrent use.
type HitCounter struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// Hit records a hit.
func (c *HitCounter) Hit() { c.hits.Add(1) }

// Miss records a miss.
func (c *HitCounter) Miss() { c.misses.Add(1) }

// AddHits records n hits at once (a pipelined batch's worth).
func (c *HitCounter) AddHits(n int64) { c.hits.Add(n) }

// AddMisses records n misses at once.
func (c *HitCounter) AddMisses(n int64) { c.misses.Add(n) }

// Record records an access with the given outcome.
func (c *HitCounter) Record(hit bool) {
	if hit {
		c.Hit()
	} else {
		c.Miss()
	}
}

// Hits returns the number of hits recorded.
func (c *HitCounter) Hits() int64 { return c.hits.Load() }

// Misses returns the number of misses recorded.
func (c *HitCounter) Misses() int64 { return c.misses.Load() }

// Total returns the number of accesses recorded.
func (c *HitCounter) Total() int64 { return c.hits.Load() + c.misses.Load() }

// HitRate returns hits/total, or 0 when nothing was recorded.
func (c *HitCounter) HitRate() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// WindowedHitRate tracks the hit rate over consecutive fixed-size windows of
// requests, producing the time series used for convergence plots (Figure 9).
// It is not safe for concurrent use.
type WindowedHitRate struct {
	window  int64
	hits    int64
	total   int64
	samples []WindowSample
}

// WindowSample is one completed window.
type WindowSample struct {
	// EndRequest is the cumulative request count at the end of the window.
	EndRequest int64
	// HitRate is the hit rate within the window.
	HitRate float64
}

// NewWindowedHitRate returns a tracker with the given window size in
// requests (minimum 1).
func NewWindowedHitRate(window int64) *WindowedHitRate {
	if window < 1 {
		window = 1
	}
	return &WindowedHitRate{window: window}
}

// Record adds one access.
func (w *WindowedHitRate) Record(hit bool) {
	w.total++
	if hit {
		w.hits++
	}
	if w.total%w.window == 0 {
		w.samples = append(w.samples, WindowSample{
			EndRequest: w.total,
			HitRate:    float64(w.hits) / float64(w.window),
		})
		w.hits = 0
	}
}

// Samples returns the completed windows.
func (w *WindowedHitRate) Samples() []WindowSample { return w.samples }

// LatencyHistogram is a log-bucketed latency histogram with fixed bounds
// from 1ns to ~17s. It is safe for concurrent use.
type LatencyHistogram struct {
	buckets [64]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// Record adds one latency observation.
func (h *LatencyHistogram) Record(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	// Bucket floor(log2 ns): at most 62 for an int64, so always in range.
	h.buckets[bits.Len64(uint64(ns))-1].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of observations.
func (h *LatencyHistogram) Count() int64 { return h.count.Load() }

// Mean returns the mean latency.
func (h *LatencyHistogram) Mean() time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / c)
}

// Quantile returns an approximate latency quantile (0 <= q <= 1) using the
// bucket upper bounds.
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	target := int64(q * float64(c))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(len(h.buckets) - 1)
}

// bucketUpper is the exclusive upper bound of bucket i, 2^(i+1) ns, held to
// the largest Duration for the top buckets, whose bound does not fit one.
func bucketUpper(i int) time.Duration {
	if i >= 62 {
		return math.MaxInt64
	}
	return 1 << (i + 1)
}

// String summarizes the histogram.
func (h *LatencyHistogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
}

// Throughput counts operations and their average rate since it was created.
// It is safe for concurrent use. A rate over a window is two Ops reads apart.
type Throughput struct {
	ops   atomic.Int64
	start time.Time
}

// NewThroughput returns a meter started now.
func NewThroughput() *Throughput {
	return &Throughput{start: time.Now()}
}

// Add records n completed operations.
func (t *Throughput) Add(n int64) { t.ops.Add(n) }

// Ops returns the number of operations recorded.
func (t *Throughput) Ops() int64 { return t.ops.Load() }

// Rate returns operations per second averaged since the meter was created.
func (t *Throughput) Rate() float64 {
	elapsed := time.Since(t.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(t.ops.Load()) / elapsed
}

// Summary aggregates per-key hit statistics into sorted rows, a helper for
// the experiment harness's table output.
type Summary struct {
	mu   sync.Mutex
	rows map[string]*HitCounter
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{rows: make(map[string]*HitCounter)}
}

// Counter returns (creating if needed) the counter for the given row label.
func (s *Summary) Counter(label string) *HitCounter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.rows[label]
	if !ok {
		c = &HitCounter{}
		s.rows[label] = c
	}
	return c
}

// Labels returns the row labels in sorted order.
func (s *Summary) Labels() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	labels := make([]string, 0, len(s.rows))
	for l := range s.rows {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}
