package trace

import (
	"fmt"
	"math/rand"
	"sort"
)

// AccessPattern selects how keys within a class are drawn.
type AccessPattern int

const (
	// PatternZipf draws keys from a Zipf distribution over the class's key
	// space; it produces concave hit-rate curves.
	PatternZipf AccessPattern = iota
	// PatternScan cycles sequentially through the class's key space; it
	// produces the step-shaped hit-rate curves (performance cliffs) of
	// §3.5 — with LRU, a scan over N keys hits 0% below N and ~100% at N.
	PatternScan
	// PatternScanZipf mixes a sequential scan with a Zipfian foreground:
	// ScanFraction of requests follow the scan, the rest are Zipfian. The
	// resulting curve has a concave head followed by a cliff.
	PatternScanZipf
	// PatternUniform draws keys uniformly at random from the class's key
	// space; it produces a nearly linear hit-rate curve, so the hit rate is
	// directly proportional to the memory the class receives.
	PatternUniform
)

// ClassSpec describes one slab class (one value-size range) of a synthetic
// application.
type ClassSpec struct {
	// ValueSize is the value size in bytes for items of this class. All
	// items of a class share the same size so the class maps to exactly
	// one slab class under any geometry.
	ValueSize int64
	// Keys is the number of distinct keys in the class.
	Keys int
	// Weight is the fraction of the application's requests that target
	// this class (weights are normalized internally).
	Weight float64
	// Pattern selects the access pattern.
	Pattern AccessPattern
	// ZipfS is the Zipf exponent (>1); zero defaults to 1.1.
	ZipfS float64
	// ScanFraction is the fraction of requests that follow the sequential
	// scan when Pattern is PatternScanZipf (default 0.8).
	ScanFraction float64
	// SetFraction is the fraction of requests that are explicit SETs
	// (writes of new versions). Default 0 — the simulator performs demand
	// fills on GET misses regardless.
	SetFraction float64
}

// Phase describes a time interval during which an application uses a
// particular mix of class weights, enabling the bursty workload changes that
// hill climbing responds to (Table 4, Figure 8).
type Phase struct {
	// Fraction is the fraction of the application's requests emitted during
	// this phase. Fractions are normalized internally.
	Fraction float64
	// ClassWeights overrides the per-class weights during the phase. A nil
	// entry keeps the class's default weight; the slice may be shorter than
	// the class list.
	ClassWeights []float64
}

// AppSpec describes one synthetic application (tenant).
type AppSpec struct {
	// ID is the application identifier (1-based to match the paper).
	ID int
	// MemoryMB is the memory the application reserved on the server, in
	// MiB. The simulator uses it as the app's budget.
	MemoryMB int64
	// RequestShare is the application's share of the overall request
	// stream (normalized internally).
	RequestShare float64
	// Classes lists the application's slab-class mixes.
	Classes []ClassSpec
	// Phases optionally splits the trace into consecutive phases with
	// different class weights. Empty means a single uniform phase.
	Phases []Phase
	// HasCliff marks applications expected to exhibit performance cliffs
	// (annotated with an asterisk in the paper's figures). It is metadata
	// for reporting only.
	HasCliff bool
}

// KeyName returns the canonical key for item i of class c in app a. Keys are
// globally unique across applications and classes.
func KeyName(app, class, i int) string {
	return fmt.Sprintf("a%d.c%d.k%d", app, class, i)
}

// GeneratorConfig configures the synthetic workload generator.
type GeneratorConfig struct {
	// Apps lists the applications in the workload.
	Apps []AppSpec
	// Requests is the total number of requests to emit.
	Requests int64
	// Duration is the simulated wall-clock duration of the trace in
	// seconds (timestamps are spread uniformly). Default 604800 (one week),
	// matching the Memcachier trace length.
	Duration float64
	// Seed seeds the deterministic random source.
	Seed int64
}

// Generator produces a deterministic synthetic request stream. It implements
// Source.
type Generator struct {
	cfg      GeneratorConfig
	rng      *rand.Rand
	emitted  int64
	appPick  []float64 // cumulative request-share distribution
	appState []*appState
}

type appState struct {
	spec    AppSpec
	classes []*classState
	// phaseBoundaries are cumulative per-app request fractions at which
	// phases end.
	phaseBoundaries []float64
	emitted         int64
	expectedTotal   float64
}

type classState struct {
	spec    ClassSpec
	zipf    *rand.Zipf
	scanPos int
}

// NewGenerator builds a generator from cfg. It panics if cfg has no apps or
// non-positive request count, since that is a programming error in the
// experiment definitions.
func NewGenerator(cfg GeneratorConfig) *Generator {
	if len(cfg.Apps) == 0 {
		panic("trace: generator needs at least one app")
	}
	if cfg.Requests <= 0 {
		panic("trace: generator needs a positive request count")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 604800
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}

	var shareSum float64
	for _, a := range cfg.Apps {
		shareSum += a.RequestShare
	}
	if shareSum <= 0 {
		shareSum = float64(len(cfg.Apps))
	}
	cum := 0.0
	for _, a := range cfg.Apps {
		share := a.RequestShare
		if share <= 0 {
			share = 1
		}
		cum += share / shareSum
		g.appPick = append(g.appPick, cum)

		st := &appState{spec: a, expectedTotal: float64(cfg.Requests) * share / shareSum}
		for ci, c := range a.Classes {
			cs := &classState{spec: c}
			s := c.ZipfS
			if s <= 1 {
				s = 1.1
			}
			if c.Keys <= 0 {
				panic(fmt.Sprintf("trace: app %d class %d has no keys", a.ID, ci))
			}
			cs.zipf = rand.NewZipf(g.rng, s, 1, uint64(c.Keys-1))
			st.classes = append(st.classes, cs)
		}
		// Phase boundaries.
		if len(a.Phases) > 0 {
			var fsum float64
			for _, p := range a.Phases {
				fsum += p.Fraction
			}
			if fsum <= 0 {
				fsum = float64(len(a.Phases))
			}
			acc := 0.0
			for _, p := range a.Phases {
				f := p.Fraction
				if f <= 0 {
					f = 1
				}
				acc += f / fsum
				st.phaseBoundaries = append(st.phaseBoundaries, acc)
			}
		}
		g.appState = append(g.appState, st)
	}
	return g
}

// Next implements Source.
func (g *Generator) Next() (Request, bool) {
	if g.emitted >= g.cfg.Requests {
		return Request{}, false
	}
	t := g.cfg.Duration * float64(g.emitted) / float64(g.cfg.Requests)
	g.emitted++

	// Pick an application by request share.
	u := g.rng.Float64()
	ai := sort.SearchFloat64s(g.appPick, u)
	if ai >= len(g.appState) {
		ai = len(g.appState) - 1
	}
	st := g.appState[ai]
	st.emitted++

	// Determine the app's current phase by its own progress.
	weights := g.classWeights(st)

	// Pick a class by weight.
	ci := pickWeighted(g.rng, weights)
	cs := st.classes[ci]
	spec := cs.spec

	// Pick a key according to the class pattern.
	var idx int
	switch spec.Pattern {
	case PatternUniform:
		idx = g.rng.Intn(spec.Keys)
	case PatternScan:
		idx = cs.scanPos
		cs.scanPos = (cs.scanPos + 1) % spec.Keys
	case PatternScanZipf:
		frac := spec.ScanFraction
		if frac <= 0 {
			frac = 0.8
		}
		if g.rng.Float64() < frac {
			idx = cs.scanPos
			cs.scanPos = (cs.scanPos + 1) % spec.Keys
		} else {
			idx = int(cs.zipf.Uint64())
		}
	default:
		idx = int(cs.zipf.Uint64())
	}

	op := OpGet
	if spec.SetFraction > 0 && g.rng.Float64() < spec.SetFraction {
		op = OpSet
	}
	return Request{
		Time: t,
		App:  st.spec.ID,
		Key:  KeyName(st.spec.ID, ci, idx),
		Size: spec.ValueSize,
		Op:   op,
	}, true
}

// classWeights returns the effective class weights for the app's current
// phase.
func (g *Generator) classWeights(st *appState) []float64 {
	weights := make([]float64, len(st.classes))
	for i, cs := range st.classes {
		weights[i] = cs.spec.Weight
		if weights[i] <= 0 {
			weights[i] = 1
		}
	}
	if len(st.phaseBoundaries) == 0 {
		return weights
	}
	progress := 0.0
	if st.expectedTotal > 0 {
		progress = float64(st.emitted) / st.expectedTotal
	}
	phase := sort.SearchFloat64s(st.phaseBoundaries, progress)
	if phase >= len(st.spec.Phases) {
		phase = len(st.spec.Phases) - 1
	}
	for i, w := range st.spec.Phases[phase].ClassWeights {
		if i < len(weights) && w >= 0 {
			weights[i] = w
		}
	}
	return weights
}

// pickWeighted returns an index drawn proportionally to weights. Zero or
// negative weights are treated as zero; if all weights are zero the first
// index is returned.
func pickWeighted(rng *rand.Rand, weights []float64) int {
	var sum float64
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum <= 0 {
		return 0
	}
	u := rng.Float64() * sum
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u <= acc {
			return i
		}
	}
	return len(weights) - 1
}
