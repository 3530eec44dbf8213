package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// oracleQuantile is the definition quantile must match, computed the slow
// way: the smallest sample with at least a share q of all samples at or below
// it.
func oracleQuantile(samples []int64, q float64) int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for _, x := range s {
		atOrBelow := 0
		for _, y := range s {
			if y <= x {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= q*float64(len(s)) {
			return x
		}
	}
	return s[len(s)-1]
}

func TestQuantileMatchesSortedSampleOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		r := newRecorder(n)
		for i := 0; i < n; i++ {
			// A long-tailed shape with ties, like latencies.
			r.add(30000 + time.Duration(rng.Intn(50))*1000 + time.Duration(rng.ExpFloat64()*5000))
		}
		sorted := sortedCopy(r.ns)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			if got, want := quantile(sorted, q), oracleQuantile(r.ns, q); got != want {
				t.Errorf("n=%d q=%g: quantile %d, oracle %d", n, q, got, want)
			}
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

func TestTopPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10999, 0.999}, {100000, 0.9999}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPacedQuantileIgnoresOneStalledSegment(t *testing.T) {
	var w wireRun
	for i := 0; i < pacedSegments; i++ {
		var seg pacedSeg
		for j := 0; j < 300; j++ {
			seg.get = append(seg.get, 80000)
		}
		w.paced.segs = append(w.paced.segs, seg)
	}
	// A stall that swallows one whole segment.
	for j := range w.paced.segs[3].get {
		w.paced.segs[3].get[j] = 30e6
	}
	if got := w.pacedQuantile(segGet, 0.99); got != 80 {
		t.Errorf("p99 over segments = %v us, want 80: one stalled segment moved it", got)
	}
	if got := quantile(w.pooled(segGet), 0.99); got != 30e6 {
		t.Errorf("pooled p99 = %v, want the stall to show", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 3, 7], n=4) == [1.0, 3.0, 7.0]
	q1, q2, q3 = quartiles([]float64{7, 1, 3})
	if q1 != 1 || q2 != 3 || q3 != 7 {
		t.Errorf("quartiles of 1,3,7 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || math.Abs(q3-12) > 1e-12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v %v %v", q1, q2, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
