package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// bucketOf records d into a fresh histogram and returns the bucket it landed
// in.
func bucketOf(t *testing.T, d time.Duration) int {
	t.Helper()
	var h LatencyHistogram
	h.Record(d)
	at := -1
	for i := range h.buckets {
		switch n := h.buckets[i].Load(); {
		case n == 1 && at < 0:
			at = i
		case n != 0:
			t.Fatalf("Record(%d) left bucket %d at %d (first hit in bucket %d)", d, i, n, at)
		}
	}
	if at < 0 || h.Count() != 1 {
		t.Fatalf("Record(%d): no bucket counted it, Count = %d", d, h.Count())
	}
	return at
}

func TestLatencyHistogramBucketIsFloorLog2(t *testing.T) {
	for _, c := range []struct {
		ns   int64
		want int
	}{
		{1, 0}, {2, 1}, {3, 1}, {1023, 9}, {1024, 10},
		{1<<53 + 1, 53}, {1<<62 - 1, 61}, {1 << 62, 62}, {math.MaxInt64, 62},
		{0, 0}, {-5, 0}, // non-positive observations count as 1 ns
	} {
		if got := bucketOf(t, time.Duration(c.ns)); got != c.want {
			t.Errorf("Record(%d ns) landed in bucket %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestLatencyHistogramQuantile(t *testing.T) {
	var h LatencyHistogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram: p50 = %v, mean = %v, want 0", h.Quantile(0.5), h.Mean())
	}
	for i := 0; i < 90; i++ {
		h.Record(100 * time.Nanosecond) // [64, 128)
	}
	for i := 0; i < 9; i++ {
		h.Record(10 * time.Microsecond) // [8192, 16384)
	}
	h.Record(time.Millisecond) // [524288, 1048576)
	if h.Count() != 100 || h.Mean() != 10990*time.Nanosecond {
		t.Fatalf("count = %d, mean = %v, want 100 and 10.99µs", h.Count(), h.Mean())
	}
	// Quantiles are bucket upper bounds.
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 128}, {0.5, 128}, {0.9, 128}, {0.91, 16384}, {0.99, 16384}, {1, 1 << 20}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d ns, want %d", c.q, got, c.want)
		}
	}
	var top LatencyHistogram
	top.Record(1 << 62)
	if got := top.Quantile(1); got != math.MaxInt64 {
		t.Errorf("top bucket's bound = %d, want the largest Duration", got)
	}
}

// TestLatencyHistogramConcurrentRecord is for the race detector as much as
// for the totals.
func TestLatencyHistogramConcurrentRecord(t *testing.T) {
	const goroutines, each = 8, 5000
	var h LatencyHistogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Record(time.Duration(1) << (g + i%4))
			}
		}(g)
	}
	wg.Wait()
	var inBuckets int64
	for i := range h.buckets {
		inBuckets += h.buckets[i].Load()
	}
	if h.Count() != goroutines*each || inBuckets != goroutines*each {
		t.Fatalf("count = %d, buckets hold %d, want %d", h.Count(), inBuckets, goroutines*each)
	}
}
