package sim

import (
	"testing"

	"cliffhanger/internal/core"
	"cliffhanger/internal/store"
	"cliffhanger/internal/trace"
)

// TestAblationTable prints the paper's Table-4 ablation on the two synthetic
// traces: the stock first-come-first-serve baseline, hill climbing only,
// cliff scaling only, and the two combined. It gates nothing (the goldens and
// the cross-checks do that); it exists so that a change to the managed policy
// or to internal/core can say what it did to each algorithm by itself:
//
//	go test -count=1 -run TestAblationTable -v ./internal/sim/
//
// Run replays through the store, so the table measures the engine the daemon
// runs: 0.6831 / 0.7658 / 0.7634 / 0.7689 on Memcachier and 0.4335 / 0.5093 /
// 0.4339 / 0.4845 on facebook, whose generator gives a key a new value size
// on every request (a GET hit keeps the size the key was filled at).
func TestAblationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("eight simulations of 400 000 requests")
	}
	const requests, seed = 400000, 1
	memcachier := trace.MemcachierApps(0.25)
	traces := []struct {
		name   string
		apps   []trace.AppSpec
		source func() trace.Source
	}{
		{"memcachier", memcachier, func() trace.Source {
			return trace.NewGenerator(trace.GeneratorConfig{Apps: memcachier, Requests: requests, Seed: seed})
		}},
		{"facebook", []trace.AppSpec{{ID: 1, MemoryMB: 16, RequestShare: 1}}, func() trace.Source {
			return trace.NewFacebookGenerator(trace.FacebookConfig{Keys: 1 << 18, Requests: requests, Seed: seed})
		}},
	}
	rows := []struct {
		name string
		mode store.AllocationMode
		cfg  core.Config
	}{
		{"default", store.AllocDefault, core.Config{}},
		{"hill-only", store.AllocCliffhanger, core.DefaultConfig().HillClimbingOnly()},
		{"cliff-only", store.AllocCliffhanger, core.DefaultConfig().CliffScalingOnly()},
		{"combined", store.AllocCliffhanger, core.DefaultConfig()},
	}
	for _, tr := range traces {
		for _, row := range rows {
			res, err := Run(Config{Apps: tr.apps, Mode: row.mode, Cliffhanger: row.cfg}, tr.source())
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalRequests == 0 {
				t.Fatalf("%s/%s replayed nothing", tr.name, row.name)
			}
			t.Logf("%-10s %-10s hit rate %.4f (%d of %d)", tr.name, row.name, res.HitRate(), res.TotalHits, res.TotalRequests)
		}
	}
}
