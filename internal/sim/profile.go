package sim

import (
	"fmt"
	"sort"

	"cliffhanger/internal/slab"
	"cliffhanger/internal/solver"
	"cliffhanger/internal/stackdist"
	"cliffhanger/internal/trace"
)

// ClassProfile holds the hit-rate curve of one (application, slab class)
// request stream, measured in items.
type ClassProfile struct {
	App       int
	Class     int
	ChunkSize int64
	Requests  int64
	Curve     *stackdist.Curve
}

// ByteCurve returns the profile's hit-rate curve with sizes converted from
// items to bytes using the class chunk size.
func (p *ClassProfile) ByteCurve() *stackdist.Curve {
	return p.Curve.Scale(p.ChunkSize)
}

// ProfileOptions controls curve profiling.
type ProfileOptions struct {
	// CurvePoints is the number of samples per curve (default 200).
	CurvePoints int
	// Approximate uses the Mimir-style bucket estimator instead of exact
	// Mattson stack distances, matching Dynacache's implementation.
	Approximate bool
	// Buckets is the bucket count for the approximate estimator (default
	// 100, as in the paper).
	Buckets int
}

// ProfileClasses replays src and computes a hit-rate curve per (app, class).
// The result is keyed by app ID then slab class.
func ProfileClasses(geom *slab.Geometry, src trace.Source, opts ProfileOptions) map[int]map[int]*ClassProfile {
	if geom == nil {
		geom = slab.DefaultGeometry()
	}
	points := opts.CurvePoints
	if points <= 0 {
		points = 200
	}
	buckets := opts.Buckets
	if buckets <= 0 {
		buckets = 100
	}
	type key struct{ app, class int }
	profilers := make(map[key]*stackdist.Profiler)
	counts := make(map[key]int64)
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		if req.Op == trace.OpDelete {
			continue
		}
		class, ok := geom.ClassFor(req.Size)
		if !ok {
			continue
		}
		k := key{req.App, class}
		p := profilers[k]
		if p == nil {
			if opts.Approximate {
				p = stackdist.NewApproxProfiler(buckets)
			} else {
				p = stackdist.NewProfiler()
			}
			profilers[k] = p
		}
		p.Access(req.Key)
		counts[k]++
	}
	out := make(map[int]map[int]*ClassProfile)
	for k, p := range profilers {
		if out[k.app] == nil {
			out[k.app] = make(map[int]*ClassProfile)
		}
		out[k.app][k.class] = &ClassProfile{
			App:       k.app,
			Class:     k.class,
			ChunkSize: geom.ChunkSize(k.class),
			Requests:  counts[k],
			Curve:     p.Curve(0, points),
		}
	}
	return out
}

// DynacacheAllocations runs the Dynacache-style solver independently for each
// application: given the application's per-class curves and its memory
// reservation, it returns per-class byte budgets maximizing the predicted
// overall hit rate (Equation 1). The returned map feeds
// Config.StaticAllocations for store.AllocStatic runs.
func DynacacheAllocations(profiles map[int]map[int]*ClassProfile, apps []trace.AppSpec, opts solver.Options) (map[int]map[int]int64, error) {
	out := make(map[int]map[int]int64, len(apps))
	for _, app := range apps {
		classes := profiles[app.ID]
		if len(classes) == 0 {
			continue
		}
		budget := app.MemoryMB << 20
		var queues []solver.Queue
		var total int64
		for _, p := range classes {
			total += p.Requests
		}
		for class, p := range classes {
			queues = append(queues, solver.Queue{
				ID:        fmt.Sprintf("class%d", class),
				Curve:     p.ByteCurve(),
				Frequency: float64(p.Requests) / float64(total),
			})
		}
		sort.Slice(queues, func(i, j int) bool { return queues[i].ID < queues[j].ID })
		res, err := solver.Solve(queues, budget, opts)
		if err != nil {
			return nil, fmt.Errorf("sim: solver failed for app %d: %v", app.ID, err)
		}
		alloc := make(map[int]int64, len(classes))
		for class := range classes {
			alloc[class] = res.Allocations[fmt.Sprintf("class%d", class)]
		}
		out[app.ID] = alloc
	}
	return out, nil
}

// appCurve builds an application-level hit-rate curve (hit rate as a
// function of the application's total memory in bytes) by running the
// within-app solver at each sampled budget. This is the two-level Dynacache
// construction used for cross-application optimization (Table 3).
func appCurve(classes map[int]*ClassProfile, budgets []int64, opts solver.Options) (*stackdist.Curve, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("sim: no class profiles")
	}
	var queues []solver.Queue
	var total int64
	for _, p := range classes {
		total += p.Requests
	}
	for class, p := range classes {
		queues = append(queues, solver.Queue{
			ID:        fmt.Sprintf("class%d", class),
			Curve:     p.ByteCurve(),
			Frequency: float64(p.Requests) / float64(total),
		})
	}
	sort.Slice(queues, func(i, j int) bool { return queues[i].ID < queues[j].ID })
	sizes := make([]int64, 0, len(budgets)+1)
	rates := make([]float64, 0, len(budgets)+1)
	sizes = append(sizes, 0)
	rates = append(rates, 0)
	sorted := append([]int64(nil), budgets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, b := range sorted {
		if b <= 0 {
			continue
		}
		res, err := solver.Solve(queues, b, opts)
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, b)
		rates = append(rates, res.PredictedOverall)
	}
	return stackdist.NewCurve(sizes, rates)
}

// CrossAppAllocations runs the solver across applications sharing a server:
// each application is one queue whose curve is its appCurve, weighted by its
// share of requests, and the budget is the sum of the apps' reservations.
// It returns per-app byte budgets (Table 3).
func CrossAppAllocations(profiles map[int]map[int]*ClassProfile, apps []trace.AppSpec, opts solver.Options) (map[int]int64, error) {
	var totalBudget int64
	var queues []solver.Queue
	for _, app := range apps {
		budget := app.MemoryMB << 20
		totalBudget += budget
		classes := profiles[app.ID]
		if len(classes) == 0 {
			continue
		}
		// Sample the app curve at a spread of budgets around its own
		// reservation so the cross-app solver can move memory both ways.
		budgets := []int64{
			budget / 8, budget / 4, budget / 2, budget,
			budget * 3 / 2, budget * 2, budget * 3, budget * 4,
		}
		curve, err := appCurve(classes, budgets, opts)
		if err != nil {
			return nil, fmt.Errorf("sim: app curve for app %d: %v", app.ID, err)
		}
		var reqs int64
		for _, p := range classes {
			reqs += p.Requests
		}
		queues = append(queues, solver.Queue{
			ID:        fmt.Sprintf("app%d", app.ID),
			Curve:     curve,
			Frequency: float64(reqs),
		})
	}
	if len(queues) == 0 {
		return nil, fmt.Errorf("sim: no applications with profiles")
	}
	sort.Slice(queues, func(i, j int) bool { return queues[i].ID < queues[j].ID })
	res, err := solver.Solve(queues, totalBudget, opts)
	if err != nil {
		return nil, err
	}
	out := make(map[int]int64, len(apps))
	for _, app := range apps {
		if alloc, ok := res.Allocations[fmt.Sprintf("app%d", app.ID)]; ok {
			out[app.ID] = alloc
		}
	}
	return out, nil
}
