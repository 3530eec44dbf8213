package sim

import (
	"testing"

	"cliffhanger/internal/core"
	"cliffhanger/internal/slab"
	"cliffhanger/internal/solver"
	"cliffhanger/internal/store"
	"cliffhanger/internal/trace"
)

// smallApps returns a compact two-application workload: app 1 is heavily
// size-skewed (a hot small class starved by a huge-value class under FCFS),
// app 2 is an over-provisioned Zipf app.
func smallApps() []trace.AppSpec {
	return []trace.AppSpec{
		{
			// The hot 64-byte class needs ~2.5 MiB but the huge-value class
			// (whose working set can never fit) grabs most of the pages
			// under first-come-first-serve — the Table 1 pathology.
			ID: 1, MemoryMB: 4, RequestShare: 0.7,
			Classes: []trace.ClassSpec{
				{ValueSize: 64, Keys: 40000, Weight: 0.75, Pattern: trace.PatternUniform},
				{ValueSize: 16 << 10, Keys: 60000, Weight: 0.25, Pattern: trace.PatternZipf, ZipfS: 1.01},
			},
		},
		{
			// A single-class app whose working set (~3 MiB) exceeds its
			// 2 MiB reservation, so less memory means a lower hit rate.
			ID: 2, MemoryMB: 2, RequestShare: 0.3,
			Classes: []trace.ClassSpec{
				{ValueSize: 256, Keys: 12000, Weight: 1, Pattern: trace.PatternUniform},
			},
		},
	}
}

// runGenerated runs cfg over the standard Memcachier-like generator of its
// apps.
func runGenerated(cfg Config, requests, seed int64) (*Result, error) {
	return Run(cfg, trace.NewGenerator(trace.GeneratorConfig{Apps: cfg.Apps, Requests: requests, Seed: seed}))
}

func runMode(t *testing.T, apps []trace.AppSpec, mode store.AllocationMode, requests int64, mutate func(*Config)) *Result {
	t.Helper()
	cfg := Config{Apps: apps, Mode: mode}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := runGenerated(cfg, requests, 42)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, trace.NewSliceSource(nil)); err == nil {
		t.Fatalf("empty app list should error")
	}
}

func TestRunCountsAreConsistent(t *testing.T) {
	apps := smallApps()
	res := runMode(t, apps, store.AllocDefault, 100000, nil)
	if res.TotalRequests != res.TotalHits+res.TotalMisses {
		t.Fatalf("hits+misses != requests: %+v", res)
	}
	var perApp int64
	for _, ar := range res.Apps {
		perApp += ar.Requests
		if ar.Requests != ar.Hits+ar.Misses {
			t.Fatalf("app %d inconsistent: %+v", ar.App, ar)
		}
		var classReqs int64
		for _, cr := range ar.Classes {
			classReqs += cr.Requests
			if cr.Hits+cr.Misses != cr.Requests {
				t.Fatalf("class counters inconsistent: %+v", cr)
			}
		}
		if classReqs != ar.Requests {
			t.Fatalf("app %d class requests %d != app requests %d", ar.App, classReqs, ar.Requests)
		}
	}
	// Misses count under the class of the request's size. The store would put
	// them under the class of the key's length (~10 bytes), which would leave
	// app 1's 16 KiB class with hits only.
	big, _ := slab.DefaultGeometry().ClassFor(16 << 10)
	if cr := res.Apps[1].Classes[big]; cr == nil || cr.Misses == 0 {
		t.Fatalf("app 1's 16 KiB class recorded no misses: %+v", cr)
	}
	if perApp != res.TotalRequests {
		t.Fatalf("per-app requests do not sum to total")
	}
	if res.HitRate() <= 0 || res.HitRate() > 1 {
		t.Fatalf("implausible hit rate %v", res.HitRate())
	}
}

// TestResizedKeyIsOneRecord replays one key asked for at 64 bytes and then at
// 16 KiB, as the facebook generator does when it draws a new value size for a
// key. A GET names no size, so the second request finds the first fill and
// hits, as it does over the wire. A replay that admitted by (key, size) would
// count a miss and hold the key in two classes at once. Per-class counts go by
// the requested size, so the hit is credited to the 16 KiB class, while the
// key's bytes stay in the 64-byte class its fill chose.
func TestResizedKeyIsOneRecord(t *testing.T) {
	src := trace.NewSliceSource([]trace.Request{
		{App: 1, Key: "resized", Size: 64, Op: trace.OpGet},
		{App: 1, Key: "resized", Size: 16 << 10, Op: trace.OpGet},
	})
	res, err := Run(Config{Apps: []trace.AppSpec{{ID: 1, MemoryMB: 4, RequestShare: 1}}}, src)
	if err != nil {
		t.Fatal(err)
	}
	ar := res.Apps[1]
	if ar.Requests != 2 || ar.Hits != 1 {
		t.Fatalf("got %d hits of %d requests, want the second request to hit", ar.Hits, ar.Requests)
	}
	geom := slab.DefaultGeometry()
	small, _ := geom.ClassFor(64)
	large, _ := geom.ClassFor(16 << 10)
	if c := ar.Classes[small]; c == nil || c.Requests != 1 || c.Misses != 1 || c.FinalBytes == 0 {
		t.Fatalf("64-byte class %d: %+v, want the one miss and the key's bytes", small, c)
	}
	if c := ar.Classes[large]; c == nil || c.Requests != 1 || c.Hits != 1 || c.FinalBytes != 0 {
		t.Fatalf("16 KiB class %d: %+v, want the one hit and no bytes", large, c)
	}
}

func TestRunDeterministic(t *testing.T) {
	apps := smallApps()
	a := runMode(t, apps, store.AllocCliffhanger, 60000, nil)
	b := runMode(t, apps, store.AllocCliffhanger, 60000, nil)
	if a.TotalHits != b.TotalHits || a.TotalRequests != b.TotalRequests {
		t.Fatalf("simulation is not deterministic: %d/%d vs %d/%d",
			a.TotalHits, a.TotalRequests, b.TotalHits, b.TotalRequests)
	}
}

func TestCliffhangerBeatsDefaultOnSkewedApp(t *testing.T) {
	apps := smallApps()
	const requests = 400000
	def := runMode(t, apps, store.AllocDefault, requests, nil)
	cliff := runMode(t, apps, store.AllocCliffhanger, requests, func(c *Config) {
		c.Cliffhanger = core.DefaultConfig()
		c.Cliffhanger.ShadowBytes = 512 << 10
	})
	t.Logf("default %.4f cliffhanger %.4f (app1 %.4f vs %.4f)",
		def.HitRate(), cliff.HitRate(), def.Apps[1].HitRate(), cliff.Apps[1].HitRate())
	if cliff.Apps[1].HitRate() <= def.Apps[1].HitRate() {
		t.Fatalf("Cliffhanger (%.4f) should beat default FCFS (%.4f) on the size-skewed app",
			cliff.Apps[1].HitRate(), def.Apps[1].HitRate())
	}
	if cliff.HitRate() <= def.HitRate() {
		t.Fatalf("Cliffhanger overall (%.4f) should beat default (%.4f)", cliff.HitRate(), def.HitRate())
	}
}

func TestStaticSolverAllocationsImproveSkewedApp(t *testing.T) {
	apps := smallApps()
	const requests = 300000
	// Profile, solve, then replay with the static allocation.
	profiles := ProfileClasses(nil, trace.NewGenerator(trace.GeneratorConfig{
		Apps: apps, Requests: requests, Seed: 42,
	}), ProfileOptions{CurvePoints: 100})
	if len(profiles[1]) < 2 {
		t.Fatalf("expected at least two profiled classes for app 1, got %d", len(profiles[1]))
	}
	allocs, err := DynacacheAllocations(profiles, apps, solver.Options{Concavify: true})
	if err != nil {
		t.Fatal(err)
	}
	def := runMode(t, apps, store.AllocDefault, requests, nil)
	static := runMode(t, apps, store.AllocStatic, requests, func(c *Config) {
		c.StaticAllocations = allocs
	})
	t.Logf("default app1 %.4f solver app1 %.4f", def.Apps[1].HitRate(), static.Apps[1].HitRate())
	if static.Apps[1].HitRate() <= def.Apps[1].HitRate() {
		t.Fatalf("solver allocation (%.4f) should beat default FCFS (%.4f) on the skewed app",
			static.Apps[1].HitRate(), def.Apps[1].HitRate())
	}
	// The small hot class should receive the larger share of app 1's memory.
	geom := slab.DefaultGeometry()
	smallClass, _ := geom.ClassFor(64)
	bigClass, _ := geom.ClassFor(16 << 10)
	if allocs[1][smallClass] <= allocs[1][bigClass] {
		t.Fatalf("solver should favor the hot small class: %v", allocs[1])
	}
}

func TestGlobalLRUMode(t *testing.T) {
	apps := smallApps()
	res := runMode(t, apps, store.AllocGlobalLRU, 150000, nil)
	if res.HitRate() <= 0 {
		t.Fatalf("global LRU produced no hits")
	}
}

func TestTimelineAndWindowCollection(t *testing.T) {
	apps := smallApps()
	res := runMode(t, apps, store.AllocCliffhanger, 120000, func(c *Config) {
		c.TimelineInterval = 10000
		c.WindowSize = 20000
	})
	ar := res.Apps[1]
	if len(ar.Timeline) == 0 {
		t.Fatalf("timeline samples missing")
	}
	for _, s := range ar.Timeline {
		var sum int64
		for _, b := range s.ClassBytes {
			sum += b
		}
		if sum <= 0 {
			t.Fatalf("timeline sample with no allocated memory: %+v", s)
		}
	}
	if len(ar.Window) == 0 {
		t.Fatalf("windowed hit-rate samples missing")
	}
	for _, w := range ar.Window {
		if w.HitRate < 0 || w.HitRate > 1 {
			t.Fatalf("window hit rate out of range: %+v", w)
		}
	}
}

func TestAppMemoryOverrideAndScale(t *testing.T) {
	apps := smallApps()
	// Give app 2 a quarter of its memory via override and halve everything
	// via scale; hit rates must drop relative to the unmodified run.
	base := runMode(t, apps, store.AllocDefault, 150000, nil)
	squeezed := runMode(t, apps, store.AllocDefault, 150000, func(c *Config) {
		c.AppMemoryOverride = map[int]int64{2: 1 << 20}
		c.MemoryScale = 0.99
	})
	if squeezed.Apps[2].HitRate() >= base.Apps[2].HitRate() {
		t.Fatalf("shrinking app 2's memory should reduce its hit rate (%.4f vs %.4f)",
			squeezed.Apps[2].HitRate(), base.Apps[2].HitRate())
	}
	if squeezed.Apps[2].MemoryBytes >= base.Apps[2].MemoryBytes {
		t.Fatalf("override/scale not applied: %d vs %d", squeezed.Apps[2].MemoryBytes, base.Apps[2].MemoryBytes)
	}
}

func TestMissReduction(t *testing.T) {
	a := &AppResult{Misses: 100}
	b := &AppResult{Misses: 40}
	if got := MissReduction(a, b); got != 0.6 {
		t.Fatalf("MissReduction = %v, want 0.6", got)
	}
	if got := MissReduction(a, &AppResult{Misses: 150}); got != -0.5 {
		t.Fatalf("MissReduction = %v, want -0.5", got)
	}
	if MissReduction(nil, b) != 0 || MissReduction(&AppResult{}, b) != 0 {
		t.Fatalf("degenerate cases should be 0")
	}
}

func TestMemoryScaleToMatch(t *testing.T) {
	apps := smallApps()[1:] // only the small concave app for speed
	cfg := Config{Apps: apps, Mode: store.AllocDefault}
	makeSrc := func() trace.Source {
		return trace.NewGenerator(trace.GeneratorConfig{Apps: apps, Requests: 60000, Seed: 9})
	}
	// Target a modest hit rate; the search should find a scale below 1.
	ref, err := Run(cfg, makeSrc())
	if err != nil {
		t.Fatal(err)
	}
	target := ref.HitRate() * 0.9
	scale, rate, err := MemoryScaleToMatch(cfg, makeSrc, target, 0.05, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if scale <= 0 || scale > 1 {
		t.Fatalf("scale %v out of range", scale)
	}
	if rate < target {
		t.Fatalf("achieved rate %.4f below target %.4f", rate, target)
	}
	if _, _, err := MemoryScaleToMatch(cfg, makeSrc, 0.5, 1.0, 0.5, 3); err == nil {
		t.Fatalf("invalid scale range should error")
	}
}

func TestCrossAppAllocationsMoveMemoryToStarvedApp(t *testing.T) {
	// App 1 is over-provisioned, app 2 is starved: the cross-app solver
	// should give app 2 more than its reservation.
	apps := []trace.AppSpec{
		{ID: 1, MemoryMB: 8, RequestShare: 0.5, Classes: []trace.ClassSpec{
			{ValueSize: 256, Keys: 2000, Weight: 1, Pattern: trace.PatternZipf, ZipfS: 1.3},
		}},
		{ID: 2, MemoryMB: 1, RequestShare: 0.5, Classes: []trace.ClassSpec{
			{ValueSize: 256, Keys: 30000, Weight: 1, Pattern: trace.PatternZipf, ZipfS: 1.1},
		}},
	}
	profiles := ProfileClasses(nil, trace.NewGenerator(trace.GeneratorConfig{
		Apps: apps, Requests: 200000, Seed: 3,
	}), ProfileOptions{CurvePoints: 80})
	allocs, err := CrossAppAllocations(profiles, apps, solver.Options{Concavify: true})
	if err != nil {
		t.Fatal(err)
	}
	if allocs[2] <= 1<<20 {
		t.Fatalf("starved app should receive more than its 1 MiB reservation, got %d", allocs[2])
	}
	total := allocs[1] + allocs[2]
	if total > 9<<20 {
		t.Fatalf("cross-app allocation exceeds the combined budget: %d", total)
	}
}

func TestProfileClassesApproximate(t *testing.T) {
	apps := smallApps()
	src := trace.NewGenerator(trace.GeneratorConfig{Apps: apps, Requests: 50000, Seed: 5})
	profiles := ProfileClasses(nil, src, ProfileOptions{CurvePoints: 50, Approximate: true, Buckets: 64})
	if len(profiles) == 0 {
		t.Fatalf("no profiles produced")
	}
	for app, classes := range profiles {
		for class, p := range classes {
			if p.Curve.Len() == 0 || p.Requests == 0 {
				t.Fatalf("empty profile for app %d class %d", app, class)
			}
			bc := p.ByteCurve()
			if bc.MaxSize() != p.Curve.MaxSize()*p.ChunkSize {
				t.Fatalf("byte curve scaling wrong")
			}
		}
	}
}

func BenchmarkSimDefaultMode(b *testing.B) {
	apps := smallApps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runGenerated(Config{Apps: apps, Mode: store.AllocDefault}, 50000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimCliffhangerMode(b *testing.B) {
	apps := smallApps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runGenerated(Config{Apps: apps, Mode: store.AllocCliffhanger}, 50000, 1); err != nil {
			b.Fatal(err)
		}
	}
}
