package trace

import (
	"math"
	"math/rand"
)

// This file models the Facebook ETC-style workload used for the paper's
// micro-benchmarks (§5.6). The paper drove its prototype with Mutilate, a
// load generator that reproduces the key-size, value-size and GET/SET-ratio
// distributions measured in the 2012 Facebook Memcached study (Atikoglu et
// al., SIGMETRICS '12). We approximate those distributions with simple
// parametric forms that match the study's headline statistics:
//
//   - key sizes cluster between 20 and 45 bytes with a mean around 30-35;
//   - value sizes are heavy-tailed (most values are small, a few are large);
//     we use a bounded Pareto with the study's reported median (~125 B);
//   - the ETC pool's GET:SET ratio is roughly 30:1 (we use 96.7% GETs as in
//     Table 7 of the Cliffhanger paper).

// FacebookConfig parameterizes the Facebook-style workload.
type FacebookConfig struct {
	// Keys is the number of distinct keys.
	Keys int
	// GetFraction is the fraction of requests that are GETs (default 0.967,
	// the ratio the paper uses for Table 7's first row).
	GetFraction float64
	// ZipfS is the key-popularity skew (default 1.01, close to the
	// literature's estimates for Facebook workloads).
	ZipfS float64
	// UniqueKeys, when true, makes every request reference a brand-new key
	// so that every GET misses — the worst-case overhead scenario of
	// Table 6 ("synthetic trace where all keys are unique and all queries
	// miss the cache").
	UniqueKeys bool
	// Requests is the number of requests to emit.
	Requests int64
	// Seed seeds the deterministic random source.
	Seed int64
	// App is the application ID stamped on requests (default 1).
	App int
}

// FacebookGenerator produces a Facebook-style request stream. It implements
// Source.
type FacebookGenerator struct {
	cfg     FacebookConfig
	rng     *rand.Rand
	zipf    *rand.Zipf
	emitted int64
	unique  int64
}

// NewFacebookGenerator returns a generator for the Facebook-style workload.
func NewFacebookGenerator(cfg FacebookConfig) *FacebookGenerator {
	if cfg.Keys <= 0 {
		cfg.Keys = 1 << 20
	}
	if cfg.GetFraction <= 0 {
		cfg.GetFraction = 0.967
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.01
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 1 << 20
	}
	if cfg.App == 0 {
		cfg.App = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &FacebookGenerator{
		cfg:  cfg,
		rng:  rng,
		zipf: rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Keys-1)),
	}
}

// Next implements Source.
func (g *FacebookGenerator) Next() (Request, bool) {
	if g.emitted >= g.cfg.Requests {
		return Request{}, false
	}
	t := float64(g.emitted) / 10000.0
	g.emitted++

	var idx int64
	if g.cfg.UniqueKeys {
		idx = g.unique
		g.unique++
	} else {
		idx = int64(g.zipf.Uint64())
	}
	op := OpGet
	if g.rng.Float64() >= g.cfg.GetFraction {
		op = OpSet
	}
	return Request{
		Time: t,
		App:  g.cfg.App,
		Key:  facebookKey(g.cfg.App, idx, g.rng),
		Size: SampleFacebookValueSize(g.rng),
		Op:   op,
	}, true
}

// facebookKey builds a key whose length follows the key-size distribution.
// The numeric identifier is embedded so keys stay unique and deterministic;
// padding brings the key to the sampled length.
func facebookKey(app int, idx int64, rng *rand.Rand) string {
	base := KeyName(app, 0, int(idx))
	want := int(SampleFacebookKeySize(rng))
	for len(base) < want {
		base += "x"
	}
	return base
}

// SampleFacebookKeySize draws a key size in bytes from the approximated
// Facebook distribution: 20-45 bytes, mode near 30.
func SampleFacebookKeySize(rng *rand.Rand) int64 {
	// Triangular distribution on [16, 48] with mode 30.
	const lo, mode, hi = 16.0, 30.0, 48.0
	u := rng.Float64()
	fc := (mode - lo) / (hi - lo)
	var v float64
	if u < fc {
		v = lo + math.Sqrt(u*(hi-lo)*(mode-lo))
	} else {
		v = hi - math.Sqrt((1-u)*(hi-lo)*(hi-mode))
	}
	return int64(v)
}

// SampleFacebookValueSize draws a value size in bytes from a bounded Pareto
// approximating the ETC value-size distribution: median ~125 B, heavy tail
// capped at 1 MiB.
func SampleFacebookValueSize(rng *rand.Rand) int64 {
	const (
		xmin  = 32.0
		alpha = 1.0 // shape: median = xmin * 2^(1/alpha) ≈ 64... tuned below
		xmax  = 1 << 20
	)
	// Inverse-CDF sampling of a bounded Pareto.
	u := rng.Float64()
	num := 1 - u*(1-math.Pow(xmin/xmax, alpha))
	v := xmin / math.Pow(num, 1/alpha)
	// Shift the distribution so the median lands near 125 B.
	v *= 2
	if v > xmax {
		v = xmax
	}
	return int64(v)
}
