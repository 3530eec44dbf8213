package store

// This file is the Memshare layer (Cidon et al., the Cliffhanger group's
// follow-up): cross-tenant memory arbitration on top of the allocation-policy
// layer. Cliffhanger's hill climbing optimizes queue sizes *within* a
// tenant's fixed partition; the arbiter moves memory *between* tenants at
// runtime. Every tick it reads each AllocMemshare tenant's shadow-queue hit
// count — the same credit signal the hill climber transfers memory on,
// except aggregated over the whole tenant — normalizes it to a marginal
// hit-rate-per-byte estimate (shadow hits per byte of shadow-queue
// capacity), and moves one bounded step of memory from the lowest-ranked
// tenant to the highest via ResizeTenant. Three guards keep it stable:
//
//   - reserved floors: a tenant is never shrunk below its ReservedBytes
//     (TenantConfig), the tenant-level analogue of core.Config.MinQueueBytes;
//   - hysteresis: no move unless the marginal gap exceeds MinRateDelta, and
//     a tenant that just moved sits out CooldownTicks ticks, so an
//     oscillating workload cannot thrash pages back and forth;
//   - bounded steps: one StepBytes move per tick, applied through the
//     ordinary ResizeTenant → reconfigure-tick → page-migration machinery,
//     so zero-copy readers and the chunk-conservation audit see nothing new.
//
// The decision engine (ArbiterState) is separated from the Store so the
// trace-driven simulator can run the identical policy over its value-less
// tenants: internal/sim drives one ArbiterState per run at a deterministic
// request cadence, which is what lets CrossCheck compare a memshare wire
// replay against a memshare simulation.

import (
	"fmt"
	"sort"
	"time"
)

// DefaultArbiterEvery is the request cadence at which deterministic
// harnesses (the simulator, the sim-vs-wire cross-check) run an arbiter
// tick: one tick per DefaultArbiterEvery demand-fill GETs across all
// tenants. The live server uses wall-clock Interval instead.
const DefaultArbiterEvery = 4096

// DefaultArbiterCooldownTicks is the default number of ticks a tenant that
// just donated (received) memory is barred from receiving (donating) —
// the role-flip hysteresis.
const DefaultArbiterCooldownTicks = 8

// DefaultArbiterMinRateDelta is the default hysteresis threshold: the
// marginal hit-rate-per-byte gap below which no move happens. It corresponds
// to 24 shadow-queue hits per tick at the paper's 1 MiB shadow queue —
// tuned on the Memcachier replay so that junk moves (pages granted on noise
// to a tenant whose curve is already flat) stay below the realized gains.
const DefaultArbiterMinRateDelta = 24.0 / float64(1<<20)

// ArbiterConfig tunes the cross-tenant arbiter.
type ArbiterConfig struct {
	// Interval is the period at which the store's maintenance goroutine
	// ticks the arbiter. Zero disables the background tick; ArbiterTick can
	// still be driven explicitly (the deterministic harnesses do).
	Interval time.Duration
	// StepBytes is the memory moved per decision. Zero defaults to one
	// slab page.
	StepBytes int64
	// MinRateDelta is the hysteresis threshold on the marginal
	// hit-rate-per-byte gap between recipient and donor. Zero defaults to
	// DefaultArbiterMinRateDelta; negative disables the threshold.
	MinRateDelta float64
	// CooldownTicks is how many ticks a tenant that just donated
	// (received) memory may not flip to receiving (donating). Repeating
	// the same role on consecutive ticks is allowed — that is convergence,
	// bounded by the reserved floors. Zero defaults to
	// DefaultArbiterCooldownTicks; negative disables the cooldown.
	CooldownTicks int
}

// withDefaults normalizes zero fields; pageSize supplies the step default.
func (c ArbiterConfig) withDefaults(pageSize int64) ArbiterConfig {
	if c.StepBytes <= 0 {
		c.StepBytes = pageSize
	}
	if c.MinRateDelta == 0 {
		c.MinRateDelta = DefaultArbiterMinRateDelta
	} else if c.MinRateDelta < 0 {
		c.MinRateDelta = 0
	}
	if c.CooldownTicks == 0 {
		c.CooldownTicks = DefaultArbiterCooldownTicks
	} else if c.CooldownTicks < 0 {
		c.CooldownTicks = 0
	}
	return c
}

// ArbiterObservation is one memshare tenant's state as seen at a tick:
// cumulative shadow-queue hits and real lookup hits, the shadow capacity
// the former are measured against, the reservation the tenant is converging
// to, and its floor.
type ArbiterObservation struct {
	Name          string
	ShadowHits    int64
	Hits          int64
	ShadowBytes   int64
	TargetBytes   int64
	ReservedBytes int64
}

// ArbiterMove is one decided transfer: shrink Donor to DonorBytes and grow
// Recipient to RecipientBytes (both are absolute new targets, StepBytes
// apart from the old ones).
type ArbiterMove struct {
	Donor, Recipient           string
	DonorBytes, RecipientBytes int64
	StepBytes                  int64
}

// ArbiterInput is one tenant's digest for PlanArbiterMove: the two
// hit-rate-per-byte estimates plus the constraints (floor, role cooldowns).
// Marginal is the shadow-queue gain estimate — the extra hits per byte per
// tick the tenant would earn from more memory. Density is the realized
// hits per byte per tick over the tenant's current reservation; for a
// concave hit curve the coldest StepBytes of a tenant's memory serve at
// most its average density, so Density upper-bounds what shrinking the
// tenant by one step can cost. NoDonate/NoReceive are the directional
// cooldowns: a tenant that just received must not immediately donate and
// vice versa.
type ArbiterInput struct {
	Name          string
	Marginal      float64
	Density       float64
	TargetBytes   int64
	ReservedBytes int64
	NoDonate      bool
	NoReceive     bool
}

// PlanArbiterMove picks the single bounded move for one tick: the donor is
// the lowest-density tenant that can shed stepBytes without breaching its
// reserved floor, the recipient the tenant with the highest marginal gain
// estimate; no move unless both exist, differ, are out of cooldown, and the
// recipient's estimated gain exceeds the donor's density loss bound by at
// least minDelta — so every move has positive expected value even if the
// donor loses the most its curve allows. Ties resolve to the earliest
// input, so a deterministic input order (sorted by name in the Store, the
// same in the simulator) makes the decision deterministic.
func PlanArbiterMove(ins []ArbiterInput, stepBytes int64, minDelta float64) (donor, recipient int, ok bool) {
	donor, recipient = -1, -1
	for i, in := range ins {
		if !in.NoDonate && in.TargetBytes-stepBytes >= in.ReservedBytes &&
			(donor < 0 || in.Density < ins[donor].Density) {
			donor = i
		}
		if !in.NoReceive && (recipient < 0 || in.Marginal > ins[recipient].Marginal) {
			recipient = i
		}
	}
	if donor < 0 || recipient < 0 || donor == recipient {
		return -1, -1, false
	}
	if ins[recipient].Marginal-ins[donor].Density < minDelta {
		return -1, -1, false
	}
	return donor, recipient, true
}

// arbiterEwmaAlpha is the smoothing factor for the per-tick signal
// estimates: each tick contributes half, so a tenant's rank reflects its
// last few windows rather than one noisy sample.
const arbiterEwmaAlpha = 0.5

// ewma folds a new sample into an exponentially smoothed estimate.
func ewma(old, sample float64) float64 {
	return old*(1-arbiterEwmaAlpha) + sample*arbiterEwmaAlpha
}

// arbiterTenant is the per-tenant window state ArbiterState keeps between
// ticks. The cooldown is directional: a tenant may donate (or receive)
// repeatedly on consecutive ticks — that is convergence, bounded by the
// reserved floors — but may not flip roles until the cooldown expires,
// which is what stops an oscillating workload from thrashing the same
// pages back and forth.
type arbiterTenant struct {
	lastShadow int64
	lastHits   int64
	primed     bool
	// donUntil/recvUntil are the ticks through which the tenant's last
	// donation/receipt forbids it from taking the opposite role.
	donUntil  int64
	recvUntil int64
	marginal  float64
	density   float64
}

// ArbiterState is the arbiter's decision engine: it differences each
// tenant's cumulative shadow-hit counter into per-tick windows, tracks
// cooldowns, and plans at most one move per tick. It is not safe for
// concurrent use; the Store guards its instance with a mutex and the
// simulator drives its own from one goroutine.
type ArbiterState struct {
	cfg      ArbiterConfig
	tick     int64
	moves    int64
	lastMove string
	tenants  map[string]*arbiterTenant
}

// NewArbiterState builds a decision engine; pageSize supplies the default
// move step.
func NewArbiterState(cfg ArbiterConfig, pageSize int64) *ArbiterState {
	return &ArbiterState{
		cfg:     cfg.withDefaults(pageSize),
		tenants: make(map[string]*arbiterTenant),
	}
}

// Moves returns the number of moves decided so far.
func (a *ArbiterState) Moves() int64 { return a.moves }

// LastMove describes the most recent move ("donor->recipient:bytes"), empty
// before the first.
func (a *ArbiterState) LastMove() string { return a.lastMove }

// Marginal returns the tenant's marginal hit-rate-per-byte estimate from
// the last completed tick (0 for unknown tenants).
func (a *ArbiterState) Marginal(name string) float64 {
	if st := a.tenants[name]; st != nil {
		return st.marginal
	}
	return 0
}

// Density returns the tenant's realized hits-per-byte-per-tick from the
// last completed tick (0 for unknown tenants).
func (a *ArbiterState) Density(name string) float64 {
	if st := a.tenants[name]; st != nil {
		return st.density
	}
	return 0
}

// Tick ingests one observation per memshare tenant — in a deterministic
// order chosen by the caller — and returns the move to apply, if any. A
// tenant's first-ever observation only primes its window (no marginal yet);
// tenants absent from obs are forgotten.
func (a *ArbiterState) Tick(obs []ArbiterObservation) (ArbiterMove, bool) {
	a.tick++
	seen := make(map[string]bool, len(obs))
	inputs := make([]ArbiterInput, 0, len(obs))
	for _, o := range obs {
		seen[o.Name] = true
		st := a.tenants[o.Name]
		if st == nil {
			st = &arbiterTenant{}
			a.tenants[o.Name] = st
		}
		delta := o.ShadowHits - st.lastShadow
		hitDelta := o.Hits - st.lastHits
		st.lastShadow = o.ShadowHits
		st.lastHits = o.Hits
		if !st.primed {
			st.primed = true
			st.marginal = 0
			st.density = 0
			continue
		}
		sb := o.ShadowBytes
		if sb <= 0 {
			sb = 1 << 20
		}
		// Both estimates are exponentially smoothed: a single tick's window
		// is a few thousand requests split across tenants, so the raw
		// per-tick rates are noisy enough to misrank tenants.
		density := float64(0)
		if o.TargetBytes > 0 {
			density = float64(hitDelta) / float64(o.TargetBytes)
		}
		st.marginal = ewma(st.marginal, float64(delta)/float64(sb))
		st.density = ewma(st.density, density)
		inputs = append(inputs, ArbiterInput{
			Name:          o.Name,
			Marginal:      st.marginal,
			Density:       st.density,
			TargetBytes:   o.TargetBytes,
			ReservedBytes: o.ReservedBytes,
			NoDonate:      a.tick <= st.recvUntil,
			NoReceive:     a.tick <= st.donUntil,
		})
	}
	for name := range a.tenants {
		if !seen[name] {
			delete(a.tenants, name)
		}
	}
	d, r, ok := PlanArbiterMove(inputs, a.cfg.StepBytes, a.cfg.MinRateDelta)
	if !ok {
		return ArbiterMove{}, false
	}
	don, rec := inputs[d], inputs[r]
	a.tenants[don.Name].donUntil = a.tick + int64(a.cfg.CooldownTicks)
	a.tenants[rec.Name].recvUntil = a.tick + int64(a.cfg.CooldownTicks)
	a.moves++
	mv := ArbiterMove{
		Donor:          don.Name,
		Recipient:      rec.Name,
		DonorBytes:     don.TargetBytes - a.cfg.StepBytes,
		RecipientBytes: rec.TargetBytes + a.cfg.StepBytes,
		StepBytes:      a.cfg.StepBytes,
	}
	a.lastMove = fmt.Sprintf("%s->%s:%d", mv.Donor, mv.Recipient, mv.StepBytes)
	return mv, true
}

// ArbiterTick runs one arbitration round over the store's AllocMemshare
// tenants and applies the decided move (if any) through ResizeTenant — so
// the transfer rides the ordinary incremental-resize and page-migration
// machinery. It reports whether a move was applied. Safe for concurrent
// use; the maintenance goroutine and explicit callers serialize on the arbiter
// mutex.
func (s *Store) ArbiterTick() bool {
	reg := *s.tenants.Load()
	names := make([]string, 0, len(reg))
	for n, e := range reg {
		if e.tenant.Mode() == AllocMemshare && !e.dying.Load() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	obs := make([]ArbiterObservation, 0, len(names))
	for _, n := range names {
		e := reg[n]
		var shadow, hits int64
		e.bk.mu.Lock()
		if m := e.tenant.Manager(); m != nil {
			shadow = m.TotalStats().ShadowHits
		}
		hits = e.tenant.Hits()
		e.bk.mu.Unlock()
		obs = append(obs, ArbiterObservation{
			Name:          n,
			ShadowHits:    shadow,
			Hits:          hits,
			ShadowBytes:   e.tenant.ShadowBytes(),
			TargetBytes:   e.targetBytes.Load(),
			ReservedBytes: e.tenant.ReservedBytes(),
		})
	}
	s.arbMu.Lock()
	mv, ok := s.arb.Tick(obs)
	s.arbMu.Unlock()
	if !ok {
		return false
	}
	// A tenant deleted between the snapshot and here just voids its half of
	// the move; the next tick replans from fresh observations.
	_ = s.ResizeTenant(mv.Donor, mv.DonorBytes)
	_ = s.ResizeTenant(mv.Recipient, mv.RecipientBytes)
	return true
}

// ArbiterTenantStats is one tenant's arbitration-facing state.
type ArbiterTenantStats struct {
	// Arbitrated reports whether the tenant participates (AllocMemshare).
	Arbitrated bool
	// LeasePages is the tenant's current page-pool lease.
	LeasePages int64
	// ReservedBytes/ReservedPages is the arbiter floor.
	ReservedBytes int64
	ReservedPages int64
	// TargetBytes is the reservation the tenant is converging to.
	TargetBytes int64
	// MarginalHitPerByte is the last tick's shadow-hit signal per byte of
	// shadow-queue capacity (the arbiter's gain estimate), and
	// HitDensityPerByte the realized hits per byte of reservation (its
	// donor loss bound).
	MarginalHitPerByte float64
	HitDensityPerByte  float64
}

// ArbiterStats is the arbiter's observable state: the process-wide move
// count plus every registered tenant's lease/floor/signal, which is what
// lets an operator watch memory migrate between tenants live.
type ArbiterStats struct {
	Moves    int64
	LastMove string
	Tenants  map[string]ArbiterTenantStats
}

// ArbiterStats snapshots the arbiter. It covers all tenants, not only
// memshare ones, so the per-tenant lease view is complete.
func (s *Store) ArbiterStats() ArbiterStats {
	ps := s.pa.stats()
	reg := *s.tenants.Load()
	out := ArbiterStats{Tenants: make(map[string]ArbiterTenantStats, len(reg))}
	s.arbMu.Lock()
	out.Moves = s.arb.Moves()
	out.LastMove = s.arb.LastMove()
	marginals := make(map[string]float64, len(reg))
	densities := make(map[string]float64, len(reg))
	for n := range reg {
		marginals[n] = s.arb.Marginal(n)
		densities[n] = s.arb.Density(n)
	}
	s.arbMu.Unlock()
	for n, e := range reg {
		res := e.tenant.ReservedBytes()
		out.Tenants[n] = ArbiterTenantStats{
			Arbitrated:         e.tenant.Mode() == AllocMemshare,
			LeasePages:         ps.Leases[n],
			ReservedBytes:      res,
			ReservedPages:      (res + s.pa.pageSize - 1) / s.pa.pageSize,
			TargetBytes:        e.targetBytes.Load(),
			MarginalHitPerByte: marginals[n],
			HitDensityPerByte:  densities[n],
		}
	}
	return out
}
