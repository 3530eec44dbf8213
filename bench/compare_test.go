package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := bound{Name: "get_p50_us", Better: "lower", Bound: 0.10}
	higher := bound{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	hitRate := bound{Name: "hit_rate", Better: "higher", Bound: 0.01, absolute: true}
	steady := []float64{100, 101, 99, 100, 100}
	hits := []float64{0.700, 0.701, 0.699, 0.700, 0.700}
	for _, c := range []struct {
		name string
		a, b []float64
		bd   bound
		want string
	}{
		{"within the bound", steady, []float64{105, 104, 106, 105, 105}, lower, "same"},
		{"latency up past the bound", steady, []float64{120, 121, 119, 120, 120}, lower, "worse"},
		{"latency down past the bound", steady, []float64{80, 81, 79, 80, 80}, lower, "better"},
		{"throughput down past the bound", steady, []float64{80, 81, 79, 80, 80}, higher, "worse"},
		{"throughput up past the bound", steady, []float64{120, 121, 119, 120, 120}, higher, "better"},
		{"spread wider than the bound", steady, []float64{90, 150, 120, 80, 160}, lower, "unresolved"},
		{"single runs compare by value", []float64{100}, []float64{120}, lower, "worse"},
		{"hit rate down 0.008", hits, []float64{0.692, 0.693, 0.691, 0.692, 0.692}, hitRate, "same"},
		{"hit rate down 0.012", hits, []float64{0.688, 0.689, 0.687, 0.688, 0.688}, hitRate, "worse"},
		{"hit rate up 0.012", hits, []float64{0.712, 0.713, 0.711, 0.712, 0.712}, hitRate, "better"},
		{"hit rate spread 0.02", hits, []float64{0.68, 0.72, 0.70, 0.69, 0.71}, hitRate, "unresolved"},
	} {
		if got, _ := verdict(c.a, c.b, c.bd); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
