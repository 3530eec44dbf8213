package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Zipf samples from a bounded Zipf(s) distribution over {0, ..., n-1} for
// any exponent s > 0 — unlike math/rand.Zipf, which requires s > 1. Measured
// cache workloads cluster around s ≈ 0.9–1.0 (the sub-critical regime the
// standard library cannot generate), so cliffbench routes its -zipf flag
// through this sampler for every skew.
//
// The implementation is rejection-inversion sampling (Hörmann & Derflinger,
// "Rejection-inversion to generate variates from monotone discrete
// distributions", ACM TOMACS 1996): draw from the inverse of the integral of
// the continuous majorizing density x^-s, then accept/reject against the
// discrete mass. A handful of exp/log calls per sample, O(1) state for any
// n, and an acceptance rate close to 1 across the whole s range.
type Zipf struct {
	rng *rand.Rand
	s   float64
	n   float64
	// hx0 and hn bracket the inversion range; cut is the acceptance
	// shortcut threshold (both precomputed per Hörmann & Derflinger).
	hx0, hn, cut float64
}

// NewZipf returns a sampler over {0, ..., n-1} with exponent s, drawing
// randomness from rng. It panics when s <= 0 or n == 0, which is a
// programming error in the workload definition.
func NewZipf(rng *rand.Rand, s float64, n uint64) *Zipf {
	if s <= 0 {
		panic(fmt.Sprintf("workload: zipf exponent must be > 0, got %v", s))
	}
	if n == 0 {
		panic("workload: zipf needs a non-empty range")
	}
	z := &Zipf{rng: rng, s: s, n: float64(n)}
	z.hx0 = z.hIntegral(1.5) - 1
	z.hn = z.hIntegral(z.n + 0.5)
	z.cut = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	return z
}

// Uint64 returns the next sample as a rank in [0, n), rank 0 being the most
// popular element.
func (z *Zipf) Uint64() uint64 {
	for {
		u := z.hn + z.rng.Float64()*(z.hx0-z.hn)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		// Accept k when it is close enough to the continuous draw, or when
		// the draw falls inside k's own probability mass.
		if k-x <= z.cut || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

// hIntegral is H(x) = (x^(1-s) - 1) / (1 - s), the antiderivative of x^-s,
// analytically continued to ln(x) at s == 1.
func (z *Zipf) hIntegral(x float64) float64 {
	lx := math.Log(x)
	return expm1OverX((1-z.s)*lx) * lx
}

// h is the density x^-s.
func (z *Zipf) h(x float64) float64 {
	return math.Exp(-z.s * math.Log(x))
}

// hIntegralInverse is H^-1.
func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * (1 - z.s)
	if t < -1 {
		// Round-off can push t below the domain edge; clamp so the inverse
		// stays finite.
		t = -1
	}
	return math.Exp(log1pOverX(t) * x)
}

// log1pOverX is log1p(x)/x with its limit 1 at x == 0, kept accurate near
// zero by the Taylor expansion.
func log1pOverX(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x/2 + x*x/3
}

// expm1OverX is expm1(x)/x with its limit 1 at x == 0.
func expm1OverX(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x/2 + x*x/6
}
