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
// Replay is that loop, written once: Run drives it over a store called
// directly, and the sim-vs-wire cross-check (internal/workload) and
// cliffbench drive the same loop, or its fill, over a client.
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
	// ignored: Replay ticks the arbiter at a request cadence instead.
	Arbiter store.ArbiterConfig
	// ArbiterEvery is the arbiter tick cadence in GETs across all apps; 0
	// uses store.DefaultArbiterEvery. Only meaningful in store.AllocMemshare
	// mode. Replay ticks whichever store it was handed, so the simulator and
	// the wire half of a cross-check, which run the same Config, tick at the
	// same request counts.
	ArbiterEvery int64
}

// defaultGeometry is the geometry of every run that names none. A geometry
// is never written, so runs and their tenants share it.
var defaultGeometry = slab.DefaultGeometry()

func (cfg Config) geometry() *slab.Geometry {
	if cfg.Geometry != nil {
		return cfg.Geometry
	}
	return defaultGeometry
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

// Result is the outcome of one replay. Requests, hits and misses count GETs.
type Result struct {
	Mode          store.AllocationMode
	Apps          map[int]*AppResult
	TotalRequests int64
	TotalHits     int64
	TotalMisses   int64
	// Fills counts the replay's writes, one per GET miss and one per SET;
	// Refused counts those the engine refused, values no slab class holds.
	Fills, Refused int64
	// ArbiterMoves is TotalRequests at each arbiter tick that moved memory.
	ArbiterMoves []int64
}

// HitRate returns the overall hit rate across applications.
func (r *Result) HitRate() float64 {
	if r.TotalRequests == 0 {
		return 0
	}
	return float64(r.TotalHits) / float64(r.TotalRequests)
}

// MissReduction returns the relative reduction in misses of this result
// compared to a baseline: (baseMisses - misses) / baseMisses. Negative values
// mean more misses than the baseline.
func MissReduction(baseline, result *AppResult) float64 {
	if baseline == nil || result == nil || baseline.Misses == 0 {
		return 0
	}
	return float64(baseline.Misses-result.Misses) / float64(baseline.Misses)
}

// TenantName is the canonical tenant name for application id: the name
// NewStore gives its tenants and Replay hands its Engine.
func TenantName(id int) string { return fmt.Sprintf("app%d", id) }

// NewStore builds the store a replay drives: synchronous bookkeeping, a
// constant clock, no arbiter goroutine (Replay ticks it) and one tenant per
// application, named TenantName(ID), with the scaled or overridden memory
// reservation, shared geometry, allocation mode and Cliffhanger settings.
// Run replays one directly; CrossCheck serves a second one over a socket.
func NewStore(cfg Config) (*store.Store, error) {
	if len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("sim: no applications configured")
	}
	geom := cfg.geometry()
	scale := cfg.MemoryScale
	if scale <= 0 {
		scale = 1
	}
	ch := cfg.Cliffhanger
	if ch.CreditBytes == 0 {
		ch = core.DefaultConfig()
	}
	arbCfg := cfg.Arbiter
	arbCfg.Interval = 0 // ticked by Replay at a request cadence; no goroutine
	st := store.New(store.Config{
		Geometry:        geom,
		SyncBookkeeping: true,
		Arbiter:         arbCfg,
		Now:             func() int64 { return 0 },
	})
	for _, app := range cfg.Apps {
		memory := app.MemoryMB << 20
		if override, ok := cfg.AppMemoryOverride[app.ID]; ok {
			memory = override
		}
		tcfg := store.TenantConfig{
			Name:        TenantName(app.ID),
			MemoryBytes: max(int64(math.Round(float64(memory)*scale)), geom.PageSize),
			Geometry:    geom,
			Mode:        cfg.Mode,
			Cliffhanger: ch,
		}
		if cfg.Mode == store.AllocStatic {
			tcfg.StaticClassBytes = cfg.StaticAllocations[app.ID]
		}
		if err := st.RegisterTenantConfig(tcfg); err != nil {
			st.Close()
			return nil, fmt.Errorf("sim: app %d: %v", app.ID, err)
		}
	}
	return st, nil
}

// Engine is what Replay drives: a store called directly (StoreEngine) or a
// client in front of a server's store. Get reports whether tenant holds key.
// Fill stores r's key under a PadValue(r) value and reports whether the
// engine refused it (no slab class holds it): a refusal is an outcome of the
// trace, a permanent miss, not an error. A value that bounces off a full
// tenant is stored and dropped, not refused. Delete removes key.
type Engine interface {
	Get(tenant, key string) (hit bool, err error)
	Fill(tenant string, r trace.Request) (refused bool, err error)
	Delete(tenant, key string) error
}

// StoreEngine is the Engine Run replays: st's own read, write and delete.
func StoreEngine(st *store.Store) Engine { return &direct{st: st} }

// direct calls the store with one reused key buffer, so a replayed request
// allocates nothing of its own.
type direct struct {
	st  *store.Store
	key []byte
}

func (d *direct) Get(tenant, key string) (bool, error) {
	d.key = append(d.key[:0], key...)
	view, hit, err := d.st.GetItemView(tenant, d.key)
	view.Release()
	return hit, err
}

// Fill counts every error as a refusal: the store refuses a value no chunk
// can hold, and a server answers it with the SERVER_ERROR a client reads as
// one.
func (d *direct) Fill(tenant string, r trace.Request) (bool, error) {
	d.key = append(d.key[:0], r.Key...)
	return d.st.SetItemBytes(tenant, d.key, PadValue(r), 0, 0) != nil, nil
}

func (d *direct) Delete(tenant, key string) error {
	_, err := d.st.Delete(tenant, key)
	return err
}

// Replay is the one replay loop: it drives e with src as a read-through
// client would and counts what e answers. st is the store behind e, whose
// arbiter it ticks and whose evictions, capacities and reservations it reads.
// A GET is e.Get followed, on a miss, by e.Fill; a SET is that fill alone and
// a DELETE e.Delete. In memshare mode st.ArbiterTick runs every ArbiterEvery
// GETs. Only GETs are counted as requests.
func Replay(cfg Config, st *store.Store, e Engine, src trace.Source) (*Result, error) {
	geom := cfg.geometry()
	type appRun struct {
		name   string
		res    *AppResult
		window *metrics.WindowedHitRate
	}
	apps := make(map[int]*appRun, len(cfg.Apps))
	res := &Result{Mode: cfg.Mode, Apps: make(map[int]*AppResult, len(cfg.Apps))}
	for _, app := range cfg.Apps {
		a := &appRun{name: TenantName(app.ID), res: &AppResult{App: app.ID, Classes: make(map[int]*ClassResult)}}
		if cfg.WindowSize > 0 {
			a.window = metrics.NewWindowedHitRate(cfg.WindowSize)
		}
		apps[app.ID], res.Apps[app.ID] = a, a.res
	}
	arbEvery := cfg.ArbiterEvery
	if arbEvery <= 0 {
		arbEvery = store.DefaultArbiterEvery
	}

	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		a := apps[req.App]
		if a == nil {
			continue // request for an app outside this experiment
		}
		if req.Op == trace.OpDelete {
			if err := e.Delete(a.name, req.Key); err != nil {
				return nil, err
			}
			continue
		}
		hit := false
		if req.Op != trace.OpSet {
			var err error
			if hit, err = e.Get(a.name, req.Key); err != nil {
				return nil, err
			}
		}
		if !hit {
			refused, err := e.Fill(a.name, req)
			if err != nil {
				return nil, err
			}
			res.Fills++
			if refused {
				res.Refused++
			}
		}
		if req.Op == trace.OpSet {
			continue
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
		if cfg.Mode == store.AllocMemshare && res.TotalRequests%arbEvery == 0 && st.ArbiterTick() {
			res.ArbiterMoves = append(res.ArbiterMoves, res.TotalRequests)
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

	// MemoryBytes is read at the end so a memshare run reports each app's
	// final reservation after arbitration (the initial one in every other
	// mode).
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

// Run replays src through the engine the daemon runs: Replay over
// StoreEngine of a NewStore, whose clock is a constant, so a replay reads no
// wall clock.
func Run(cfg Config, src trace.Source) (*Result, error) {
	st, err := NewStore(cfg)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return Replay(cfg, st, StoreEngine(st), src)
}

// padding backs every PadValue; its bytes are never written.
var padding [slab.DefaultPageSize]byte

// PadValue is the value a replay fills r's key with: sized so the store's
// charged size (len(key)+len(value)) equals the trace's Size, clamped to [0,
// 1 MiB], the largest value the wire protocol carries. Both engines of a
// cross-check and cliffbench's load test fill through it, so every engine
// admits a key into the same slab class. The bytes are shared and must not
// be written.
func PadValue(r trace.Request) []byte {
	return padding[:min(max(r.Size-int64(len(r.Key)), 0), int64(len(padding)))]
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
