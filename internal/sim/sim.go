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
	"sort"

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
	// store.AllocMemshare runs (zero value = store defaults).
	Arbiter store.ArbiterConfig
	// ArbiterEvery is the arbiter tick cadence in demand-fill GET requests
	// across all apps; 0 uses store.DefaultArbiterEvery. Only meaningful in
	// store.AllocMemshare mode. The wire-replay cross-check drives the real
	// store's arbiter at the same request counts, which is what keeps a
	// memshare simulation and a memshare server replay comparable.
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
// geometry, allocation mode, eviction policy and Cliffhanger settings. It is
// exported so the wire-replay cross-check harness (internal/workload) can
// register tenants on a real server that are configured identically to the
// simulator's.
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

// Run replays src through tenants configured per cfg.
func Run(cfg Config, src trace.Source) (*Result, error) {
	tcfgs, err := TenantConfigs(cfg)
	if err != nil {
		return nil, err
	}

	tenants := make(map[int]*store.Tenant, len(cfg.Apps))
	results := make(map[int]*AppResult, len(cfg.Apps))
	windows := make(map[int]*metrics.WindowedHitRate)
	for _, app := range cfg.Apps {
		tcfg := tcfgs[app.ID]
		tenant, err := store.NewTenant(tcfg)
		if err != nil {
			return nil, fmt.Errorf("sim: app %d: %v", app.ID, err)
		}
		tenants[app.ID] = tenant
		results[app.ID] = &AppResult{
			App:         app.ID,
			MemoryBytes: tcfg.MemoryBytes,
			Classes:     make(map[int]*ClassResult),
		}
		if cfg.WindowSize > 0 {
			windows[app.ID] = metrics.NewWindowedHitRate(cfg.WindowSize)
		}
	}

	// In memshare mode the simulator runs the same arbiter decision engine
	// the Store does, at a deterministic request cadence, over observations
	// ordered exactly as the Store orders them (sorted by tenant name).
	var arb *store.ArbiterState
	var arbIDs []int
	arbEvery := cfg.ArbiterEvery
	if cfg.Mode == store.AllocMemshare {
		geom := cfg.Geometry
		if geom == nil {
			geom = slab.DefaultGeometry()
		}
		arb = store.NewArbiterState(cfg.Arbiter, geom.PageSize)
		if arbEvery <= 0 {
			arbEvery = store.DefaultArbiterEvery
		}
		for _, app := range cfg.Apps {
			arbIDs = append(arbIDs, app.ID)
		}
		sort.Slice(arbIDs, func(i, j int) bool {
			return TenantName(arbIDs[i]) < TenantName(arbIDs[j])
		})
	}
	arbiterTick := func() {
		obs := make([]store.ArbiterObservation, 0, len(arbIDs))
		for _, id := range arbIDs {
			tenant := tenants[id]
			var shadow int64
			if m := tenant.Manager(); m != nil {
				shadow = m.TotalStats().ShadowHits
			}
			obs = append(obs, store.ArbiterObservation{
				Name:          TenantName(id),
				ShadowHits:    shadow,
				Hits:          tenant.Hits(),
				ShadowBytes:   tenant.ShadowBytes(),
				TargetBytes:   tenant.MemoryBytes(),
				ReservedBytes: tenant.ReservedBytes(),
			})
		}
		mv, ok := arb.Tick(obs)
		if !ok {
			return
		}
		for _, id := range arbIDs {
			switch TenantName(id) {
			case mv.Donor:
				tenants[id].Resize(mv.DonorBytes)
			case mv.Recipient:
				tenants[id].Resize(mv.RecipientBytes)
			}
		}
	}

	res := &Result{Mode: cfg.Mode, Apps: results}
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		tenant, ok := tenants[req.App]
		if !ok {
			continue // request for an app outside this experiment
		}
		ar := results[req.App]
		switch req.Op {
		case trace.OpDelete:
			tenant.Delete(req.Key, req.Size)
			continue
		case trace.OpSet:
			tenant.Admit(req.Key, req.Size)
			continue
		default:
			hit, _ := tenant.Access(req.Key, req.Size)
			ar.Requests++
			res.TotalRequests++
			if hit {
				ar.Hits++
				res.TotalHits++
			} else {
				ar.Misses++
				res.TotalMisses++
			}
			if w := windows[req.App]; w != nil {
				w.Record(hit)
			}
			if arb != nil && res.TotalRequests%arbEvery == 0 {
				arbiterTick()
			}
			if cfg.TimelineInterval > 0 && ar.Requests%cfg.TimelineInterval == 0 {
				ar.Timeline = append(ar.Timeline, TimelineSample{
					Request:    ar.Requests,
					Time:       req.Time,
					ClassBytes: tenant.ClassCapacities(),
				})
			}
		}
	}

	// Fold per-class tenant statistics into the results. MemoryBytes is
	// re-read so a memshare run reports each app's final reservation after
	// arbitration (identical to the initial one in every other mode).
	for id, tenant := range tenants {
		ar := results[id]
		ar.MemoryBytes = tenant.MemoryBytes()
		for _, cs := range tenant.Stats().Classes {
			ar.Classes[cs.Class] = &ClassResult{
				Class:      cs.Class,
				ChunkSize:  cs.ChunkSize,
				Requests:   cs.Requests,
				Hits:       cs.Hits,
				Misses:     cs.Misses,
				Evictions:  cs.Evictions,
				FinalBytes: cs.CapacityBytes,
			}
		}
		if w := windows[id]; w != nil {
			ar.Window = w.Samples()
		}
	}
	return res, nil
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
