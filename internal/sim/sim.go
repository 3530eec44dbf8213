// Package sim replays request traces through the multi-tenant cache engine
// under different memory-allocation policies and collects the statistics the
// paper's tables and figures report: per-application and per-slab-class hit
// rates and miss counts, per-class memory allocations over time (Figure 8),
// windowed hit rates (Figure 9), and the memory needed to match a reference
// hit rate (Figure 7).
//
// The simulator uses demand-fill semantics: a GET miss is immediately
// followed by an admission of the same key, modelling the application's
// read-through fill, which is the standard way to replay cache traces.
package sim

import (
	"fmt"
	"math"

	"cliffhanger/internal/core"
	"cliffhanger/internal/metrics"
	"cliffhanger/internal/slab"
	"cliffhanger/internal/store"
	"cliffhanger/internal/trace"
)

// Config describes one simulation run.
type Config struct {
	// Apps lists the applications; each gets its own tenant with
	// MemoryMB * MemoryScale of memory.
	Apps []trace.AppSpec
	// Geometry is the slab geometry (nil = default).
	Geometry *slab.Geometry
	// Mode selects the allocation policy under test.
	Mode store.AllocationMode
	// Cliffhanger configures Cliffhanger tenants (zero value = paper
	// defaults).
	Cliffhanger core.Config
	// StaticAllocations provides per-app, per-class budgets in bytes for
	// store.AllocStatic mode (typically produced by the Dynacache solver).
	StaticAllocations map[int]map[int]int64
	// AppMemoryOverride, when non-nil, replaces each application's memory
	// reservation (in bytes); used for cross-application reallocation
	// experiments (Table 3).
	AppMemoryOverride map[int]int64
	// MemoryScale multiplies every application's memory reservation; 0
	// means 1.0. Used by the memory-savings search (Figure 7).
	MemoryScale float64
	// TimelineInterval, when > 0, records each app's per-class capacities
	// every TimelineInterval requests (Figure 8).
	TimelineInterval int64
	// WindowSize, when > 0, records each app's hit rate over consecutive
	// windows of WindowSize requests (Figure 9).
	WindowSize int64
	// Arbiter configures the cross-tenant Memshare arbiter for
	// store.AllocMemshare runs (zero value = store defaults). Its Interval is
	// ignored: Run ticks the arbiter at a request cadence instead.
	Arbiter store.ArbiterConfig
	// ArbiterEvery is the arbiter tick cadence in demand-fill GET requests
	// across all apps; 0 uses store.DefaultArbiterEvery. Only meaningful in
	// store.AllocMemshare mode. The wire-replay cross-check ticks its server's
	// store at the same request counts, which is what makes a memshare
	// simulation and a memshare server replay agree exactly.
	ArbiterEvery int64
}

// TimelineSample is one snapshot of an application's per-class memory
// allocation.
type TimelineSample struct {
	// Request is the application's cumulative request count at the sample.
	Request int64
	// Time is the trace timestamp of the sample, in seconds.
	Time float64
	// ClassBytes maps slab class to allocated bytes.
	ClassBytes map[int]int64
}

// ClassResult accumulates per-slab-class results.
type ClassResult struct {
	Class     int
	ChunkSize int64
	Requests  int64
	Hits      int64
	Misses    int64
	Evictions int64
	// FinalBytes is the class's capacity at the end of the run.
	FinalBytes int64
}

// HitRate returns the class hit rate.
func (c *ClassResult) HitRate() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Requests)
}

// AppResult accumulates per-application results.
type AppResult struct {
	App         int
	MemoryBytes int64
	Requests    int64
	Hits        int64
	Misses      int64
	Classes     map[int]*ClassResult
	Timeline    []TimelineSample
	Window      []metrics.WindowSample
}

// HitRate returns the application's hit rate.
func (a *AppResult) HitRate() float64 {
	if a.Requests == 0 {
		return 0
	}
	return float64(a.Hits) / float64(a.Requests)
}

// Result is the outcome of one simulation run.
type Result struct {
	Mode          store.AllocationMode
	Apps          map[int]*AppResult
	TotalRequests int64
	TotalHits     int64
	TotalMisses   int64
}

// HitRate returns the overall hit rate across applications.
func (r *Result) HitRate() float64 {
	if r.TotalRequests == 0 {
		return 0
	}
	return float64(r.TotalHits) / float64(r.TotalRequests)
}

// App returns the result for one application (nil if absent).
func (r *Result) App(id int) *AppResult { return r.Apps[id] }

// MissReduction returns the relative reduction in misses of this result
// compared to a baseline: (baseMisses - misses) / baseMisses. Negative values
// mean more misses than the baseline.
func MissReduction(baseline, result *AppResult) float64 {
	if baseline == nil || result == nil || baseline.Misses == 0 {
		return 0
	}
	return float64(baseline.Misses-result.Misses) / float64(baseline.Misses)
}

// TenantName is the canonical tenant name for application id: the name Run
// gives its tenants and the wire-replay cross-check registers on a real
// server.
func TenantName(id int) string { return fmt.Sprintf("app%d", id) }

// TenantConfigs returns the per-application tenant configuration Run builds:
// name TenantName(ID), the scaled/overridden memory reservation, shared
// geometry, allocation mode and Cliffhanger settings. It is exported so the
// wire-replay cross-check harness (internal/workload) can register tenants on
// a real server that are configured identically to the simulator's.
func TenantConfigs(cfg Config) (map[int]store.TenantConfig, error) {
	if len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("sim: no applications configured")
	}
	geom := cfg.Geometry
	if geom == nil {
		geom = slab.DefaultGeometry()
	}
	scale := cfg.MemoryScale
	if scale <= 0 {
		scale = 1
	}
	ch := cfg.Cliffhanger
	if ch.CreditBytes == 0 {
		ch = core.DefaultConfig()
	}
	out := make(map[int]store.TenantConfig, len(cfg.Apps))
	for _, app := range cfg.Apps {
		memory := app.MemoryMB << 20
		if override, ok := cfg.AppMemoryOverride[app.ID]; ok {
			memory = override
		}
		memory = int64(math.Round(float64(memory) * scale))
		if memory < geom.PageSize {
			memory = geom.PageSize
		}
		tcfg := store.TenantConfig{
			Name:        TenantName(app.ID),
			MemoryBytes: memory,
			Geometry:    geom,
			Mode:        cfg.Mode,
			Cliffhanger: ch,
		}
		if cfg.Mode == store.AllocStatic {
			tcfg.StaticClassBytes = cfg.StaticAllocations[app.ID]
		}
		out[app.ID] = tcfg
	}
	return out, nil
}

// Run replays src through the engine the daemon runs: one synchronous store
// with a tenant per application (TenantConfigs). A GET is Store.GetItemView,
// followed on a miss by a Store.SetItemBytes of a value padded to the
// request's size (PadValue); a SET is that fill alone, a DELETE Store.Delete,
// and memshare ticks Store.ArbiterTick every ArbiterEvery GETs. The store's
// clock is a constant, so a replay reads no wall clock.
func Run(cfg Config, src trace.Source) (*Result, error) {
	tcfgs, err := TenantConfigs(cfg)
	if err != nil {
		return nil, err
	}
	geom := tcfgs[cfg.Apps[0].ID].Geometry
	arbCfg := cfg.Arbiter
	arbCfg.Interval = 0 // ticked below at a request cadence; no goroutine
	st := store.New(store.Config{
		Geometry:        geom,
		SyncBookkeeping: true,
		Arbiter:         arbCfg,
		Now:             func() int64 { return 0 },
	})
	defer st.Close()

	type appRun struct {
		name   string
		res    *AppResult
		window *metrics.WindowedHitRate
	}
	apps := make(map[int]*appRun, len(cfg.Apps))
	results := make(map[int]*AppResult, len(cfg.Apps))
	for _, app := range cfg.Apps {
		tcfg := tcfgs[app.ID]
		if err := st.RegisterTenantConfig(tcfg); err != nil {
			return nil, fmt.Errorf("sim: app %d: %v", app.ID, err)
		}
		a := &appRun{name: tcfg.Name, res: &AppResult{
			App:         app.ID,
			MemoryBytes: tcfg.MemoryBytes,
			Classes:     make(map[int]*ClassResult),
		}}
		if cfg.WindowSize > 0 {
			a.window = metrics.NewWindowedHitRate(cfg.WindowSize)
		}
		apps[app.ID], results[app.ID] = a, a.res
	}
	arbEvery := cfg.ArbiterEvery
	if arbEvery <= 0 {
		arbEvery = store.DefaultArbiterEvery
	}

	// A fill's error is dropped: a value no chunk can hold, or one that bounces
	// off a full tenant, is refused by the store as it is over the wire, and
	// the key stays a permanent miss.
	payload := make([]byte, geom.PageSize)
	var key []byte
	res := &Result{Mode: cfg.Mode, Apps: results}
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		a := apps[req.App]
		if a == nil {
			continue // request for an app outside this experiment
		}
		key = append(key[:0], req.Key...)
		switch req.Op {
		case trace.OpDelete:
			if _, err := st.Delete(a.name, req.Key); err != nil {
				return nil, err
			}
			continue
		case trace.OpSet:
			_ = st.SetItemBytes(a.name, key, PadValue(payload, req), 0, 0)
			continue
		}
		view, hit, err := st.GetItemView(a.name, key)
		if err != nil {
			return nil, err
		}
		view.Release()
		if !hit {
			_ = st.SetItemBytes(a.name, key, PadValue(payload, req), 0, 0)
		}
		ar := a.res
		ar.Requests++
		res.TotalRequests++
		if hit {
			ar.Hits++
			res.TotalHits++
		} else {
			ar.Misses++
			res.TotalMisses++
		}
		// The store counts a miss against the class of the key's length (it has
		// no value size to go by), so the per-class counts are the request's.
		// That holds for hits too: a hit on a key asked for at a new size is
		// credited to the new size's class, while the key and its bytes stay in
		// the class its last fill chose (Evictions and FinalBytes are the
		// store's). Traces whose keys keep one size are unaffected.
		if class, ok := geom.ClassFor(req.Size); ok {
			chunk := geom.ChunkSize(class)
			if cfg.Mode == store.AllocGlobalLRU {
				class, chunk = 0, 0
			}
			cr := ar.Classes[class]
			if cr == nil {
				cr = &ClassResult{Class: class, ChunkSize: chunk}
				ar.Classes[class] = cr
			}
			cr.Requests++
			if hit {
				cr.Hits++
			} else {
				cr.Misses++
			}
		}
		if a.window != nil {
			a.window.Record(hit)
		}
		if cfg.Mode == store.AllocMemshare && res.TotalRequests%arbEvery == 0 {
			st.ArbiterTick()
		}
		if cfg.TimelineInterval > 0 && ar.Requests%cfg.TimelineInterval == 0 {
			capacities, err := st.ClassCapacities(a.name)
			if err != nil {
				return nil, err
			}
			ar.Timeline = append(ar.Timeline, TimelineSample{
				Request:    ar.Requests,
				Time:       req.Time,
				ClassBytes: capacities,
			})
		}
	}

	// MemoryBytes is re-read so a memshare run reports each app's final
	// reservation after arbitration (the initial one in every other mode).
	arb := st.ArbiterStats()
	for _, a := range apps {
		ar := a.res
		ar.MemoryBytes = arb.Tenants[a.name].TargetBytes
		ts, err := st.Stats(a.name)
		if err != nil {
			return nil, err
		}
		for _, cs := range ts.Classes {
			cr := ar.Classes[cs.Class]
			if cr == nil && cs.CapacityBytes > 0 {
				cr = &ClassResult{Class: cs.Class, ChunkSize: cs.ChunkSize}
				ar.Classes[cs.Class] = cr
			}
			if cr != nil {
				cr.Evictions, cr.FinalBytes = cs.Evictions, cs.CapacityBytes
			}
		}
		if a.window != nil {
			ar.Window = a.window.Samples()
		}
	}
	return res, nil
}

// PadValue sizes a stored value so the store's charged size
// (len(key)+len(value)) equals the trace's Size, clamped to [0,
// len(payload)]. Run, the wire replay of the cross-check and cliffbench's
// fills all size their values with it, so every engine admits a key into the
// same slab class.
func PadValue(payload []byte, r trace.Request) []byte {
	return payload[:min(max(r.Size-int64(len(r.Key)), 0), int64(len(payload)))]
}

// RunWithGenerator builds the standard Memcachier-like generator over
// cfg.Apps and runs the simulation, a convenience wrapper used by the
// experiment harness and benchmarks.
func RunWithGenerator(cfg Config, requests int64, seed int64) (*Result, error) {
	gen := trace.NewGenerator(trace.GeneratorConfig{
		Apps:     cfg.Apps,
		Requests: requests,
		Seed:     seed,
	})
	return Run(cfg, gen)
}

// MemoryScaleToMatch searches for the smallest memory scale at which running
// cfg achieves at least the target hit rate, using a bisection over
// [loScale, hiScale] with the given number of iterations. It returns the
// scale and the hit rate achieved at that scale. This implements the
// "memory that Cliffhanger needs to match the default scheme" measurement of
// Figure 7.
func MemoryScaleToMatch(cfg Config, makeSource func() trace.Source, target float64, loScale, hiScale float64, iters int) (float64, float64, error) {
	if loScale <= 0 || hiScale <= loScale {
		return 0, 0, fmt.Errorf("sim: invalid scale range [%v, %v]", loScale, hiScale)
	}
	if iters < 1 {
		iters = 6
	}
	best := hiScale
	bestRate := 0.0
	lo, hi := loScale, hiScale
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		c := cfg
		c.MemoryScale = mid
		res, err := Run(c, makeSource())
		if err != nil {
			return 0, 0, err
		}
		if res.HitRate() >= target {
			best = mid
			bestRate = res.HitRate()
			hi = mid
		} else {
			lo = mid
		}
	}
	if bestRate == 0 {
		// Even the largest scale missed the target; report it.
		c := cfg
		c.MemoryScale = hiScale
		res, err := Run(c, makeSource())
		if err != nil {
			return 0, 0, err
		}
		return hiScale, res.HitRate(), nil
	}
	return best, bestRate, nil
}
