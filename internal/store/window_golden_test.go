package store_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"cliffhanger/internal/core"
	"cliffhanger/internal/sim"
	"cliffhanger/internal/store"
	"cliffhanger/internal/trace"
)

// goldenApps is the two-application workload of sim's golden test
// (TestPolicyGoldenHitRates): app 1 a hot 64-byte class next to a huge-value
// class that cannot fit, app 2 one class whose working set exceeds its
// reservation.
func goldenApps() []trace.AppSpec {
	return []trace.AppSpec{
		{ID: 1, MemoryMB: 4, RequestShare: 0.7, Classes: []trace.ClassSpec{
			{ValueSize: 64, Keys: 40000, Weight: 0.75, Pattern: trace.PatternUniform},
			{ValueSize: 16 << 10, Keys: 60000, Weight: 0.25, Pattern: trace.PatternZipf, ZipfS: 1.01},
		}},
		{ID: 2, MemoryMB: 2, RequestShare: 0.3, Classes: []trace.ClassSpec{
			{ValueSize: 256, Keys: 12000, Weight: 1, Pattern: trace.PatternUniform},
		}},
	}
}

// TestHitWindowOffIsThePerEventPath replays sim's golden cliffhanger
// configuration with the hit window held at 0, so every GET hit emits its
// event, and pins what the engine ends with: the replay's per-class counts,
// each tenant's per-class stats and queue snapshots, and the segment every
// resident key's queue node is linked in. The constants were recorded on the
// engine before GET hits could skip their event (203 873 hits, 0.5097), which
// this path must match bit for bit.
func TestHitWindowOffIsThePerEventPath(t *testing.T) {
	defer store.SetHitWindowOff(true)()
	ch := core.DefaultConfig()
	ch.ShadowBytes = 512 << 10
	cfg := sim.Config{Apps: goldenApps(), Mode: store.AllocCliffhanger, Cliffhanger: ch}
	st, err := sim.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	src := trace.NewGenerator(trace.GeneratorConfig{Apps: cfg.Apps, Requests: 400000, Seed: 42})
	res, err := sim.Replay(cfg, st, sim.StoreEngine(st), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalHits != 203873 {
		t.Errorf("%d hits, want the golden 203873", res.TotalHits)
	}
	h := fnv.New64a()
	for _, app := range cfg.Apps {
		a := res.Apps[app.ID]
		fmt.Fprintf(h, "app%d %d %d %d\n", app.ID, a.Requests, a.Hits, a.Misses)
		classes := make([]int, 0, len(a.Classes))
		for c := range a.Classes {
			classes = append(classes, c)
		}
		slices.Sort(classes)
		for _, c := range classes {
			fmt.Fprintf(h, "%+v\n", *a.Classes[c])
		}
		tenant := sim.TenantName(app.ID)
		stats, err := st.Stats(tenant)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range stats.Classes {
			fmt.Fprintf(h, "class %d %d %d %d %d %d %d %d\n", c.Class, c.Requests, c.Hits, c.Misses, c.Evictions, c.UsedBytes, c.CapacityBytes, c.Items)
		}
		queues, free, err := st.QueueSnapshots(tenant)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "free %d\n", free)
		for _, q := range queues {
			fmt.Fprintf(h, "%+v\n", q)
		}
		for _, r := range store.ResidentSegments(st, tenant) {
			fmt.Fprintln(h, r)
		}
	}
	if got, want := h.Sum64(), uint64(0x9fe92dc093a7d509); got != want {
		t.Errorf("fingerprint %#x, want %#x", got, want)
	}
}
