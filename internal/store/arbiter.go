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
//   - reserved floors: a tenant is never shrunk below half the reservation
//     it was registered with, the tenant-level analogue of
//     core.Config.MinQueueBytes;
//   - hysteresis: no move unless the marginal gap exceeds MinRateDelta, and
//     a tenant that just moved sits out CooldownTicks ticks, so an
//     oscillating workload cannot thrash pages back and forth;
//   - bounded steps: one slab page moved per tick, applied through the
//     ordinary ResizeTenant → reconfigure-tick → page-migration machinery,
//     so zero-copy readers and the chunk-conservation audit see nothing new.
//
// The decision engine (arbiterState) is private to the Store. The
// deterministic harnesses reach it the way the maintenance goroutine does,
// through ArbiterTick: internal/sim and the wire replay of CrossCheck each
// call it on their own synchronous store at the same request cadence, which
// is what makes a memshare simulation and a memshare wire replay agree
// exactly.

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

// withDefaults normalizes zero fields.
func (c ArbiterConfig) withDefaults() ArbiterConfig {
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

// arbiterObservation is one memshare tenant's state as seen at a tick:
// cumulative shadow-queue hits and real lookup hits, the shadow capacity
// the former are measured against, the reservation the tenant is converging
// to, and its floor.
type arbiterObservation struct {
	name          string
	shadowHits    int64
	hits          int64
	shadowBytes   int64
	targetBytes   int64
	reservedBytes int64
}

// arbiterMove is one decided transfer: shrink donor to donorBytes and grow
// recipient to recipientBytes (both are absolute new targets, stepBytes
// apart from the old ones).
type arbiterMove struct {
	donor, recipient           string
	donorBytes, recipientBytes int64
	stepBytes                  int64
}

// arbiterInput is one tenant's digest for planArbiterMove: the two
// hit-rate-per-byte estimates plus the constraints (floor, role cooldowns).
// marginal is the shadow-queue gain estimate — the extra hits per byte per
// tick the tenant would earn from more memory. density is the realized
// hits per byte per tick over the tenant's current reservation; for a
// concave hit curve the coldest stepBytes of a tenant's memory serve at
// most its average density, so density upper-bounds what shrinking the
// tenant by one step can cost. noDonate/noReceive are the directional
// cooldowns: a tenant that just received must not immediately donate and
// vice versa.
type arbiterInput struct {
	name          string
	marginal      float64
	density       float64
	targetBytes   int64
	reservedBytes int64
	noDonate      bool
	noReceive     bool
}

// planArbiterMove picks the single bounded move for one tick: the donor is
// the lowest-density tenant that can shed stepBytes without breaching its
// reserved floor, the recipient the tenant with the highest marginal gain
// estimate; no move unless both exist, differ, are out of cooldown, and the
// recipient's estimated gain exceeds the donor's density loss bound by at
// least minDelta — so every move has positive expected value even if the
// donor loses the most its curve allows. Ties resolve to the earliest
// input, so the Store's input order (sorted by name) makes the decision
// deterministic.
func planArbiterMove(ins []arbiterInput, stepBytes int64, minDelta float64) (donor, recipient int, ok bool) {
	donor, recipient = -1, -1
	for i, in := range ins {
		if !in.noDonate && in.targetBytes-stepBytes >= in.reservedBytes &&
			(donor < 0 || in.density < ins[donor].density) {
			donor = i
		}
		if !in.noReceive && (recipient < 0 || in.marginal > ins[recipient].marginal) {
			recipient = i
		}
	}
	if donor < 0 || recipient < 0 || donor == recipient {
		return -1, -1, false
	}
	if ins[recipient].marginal-ins[donor].density < minDelta {
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

// arbiterTenant is the per-tenant window state arbiterState keeps between
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

// arbiterState is the arbiter's decision engine: it differences each
// tenant's cumulative shadow-hit counter into per-tick windows, tracks
// cooldowns, and plans at most one move per tick. It is not safe for
// concurrent use; the Store guards its instance with arbMu.
type arbiterState struct {
	cfg       ArbiterConfig
	stepBytes int64 // moved per decision: one slab page
	ticks     int64
	moves     int64
	lastMove  string
	tenants   map[string]*arbiterTenant
}

// newArbiterState builds a decision engine that moves pageSize bytes a step.
func newArbiterState(cfg ArbiterConfig, pageSize int64) *arbiterState {
	return &arbiterState{
		cfg:       cfg.withDefaults(),
		stepBytes: pageSize,
		tenants:   make(map[string]*arbiterTenant),
	}
}

// tick ingests one observation per memshare tenant, in name order, and
// returns the move to apply, if any. A tenant's first-ever observation only
// primes its window (no marginal yet); tenants absent from obs are
// forgotten.
func (a *arbiterState) tick(obs []arbiterObservation) (arbiterMove, bool) {
	a.ticks++
	seen := make(map[string]bool, len(obs))
	inputs := make([]arbiterInput, 0, len(obs))
	for _, o := range obs {
		seen[o.name] = true
		st := a.tenants[o.name]
		if st == nil {
			st = &arbiterTenant{}
			a.tenants[o.name] = st
		}
		delta := o.shadowHits - st.lastShadow
		hitDelta := o.hits - st.lastHits
		st.lastShadow = o.shadowHits
		st.lastHits = o.hits
		if !st.primed {
			st.primed = true
			st.marginal = 0
			st.density = 0
			continue
		}
		sb := o.shadowBytes
		if sb <= 0 {
			sb = 1 << 20
		}
		// Both estimates are exponentially smoothed: a single tick's window
		// is a few thousand requests split across tenants, so the raw
		// per-tick rates are noisy enough to misrank tenants.
		density := float64(0)
		if o.targetBytes > 0 {
			density = float64(hitDelta) / float64(o.targetBytes)
		}
		st.marginal = ewma(st.marginal, float64(delta)/float64(sb))
		st.density = ewma(st.density, density)
		inputs = append(inputs, arbiterInput{
			name:          o.name,
			marginal:      st.marginal,
			density:       st.density,
			targetBytes:   o.targetBytes,
			reservedBytes: o.reservedBytes,
			noDonate:      a.ticks <= st.recvUntil,
			noReceive:     a.ticks <= st.donUntil,
		})
	}
	for name := range a.tenants {
		if !seen[name] {
			delete(a.tenants, name)
		}
	}
	d, r, ok := planArbiterMove(inputs, a.stepBytes, a.cfg.MinRateDelta)
	if !ok {
		return arbiterMove{}, false
	}
	don, rec := inputs[d], inputs[r]
	a.tenants[don.name].donUntil = a.ticks + int64(a.cfg.CooldownTicks)
	a.tenants[rec.name].recvUntil = a.ticks + int64(a.cfg.CooldownTicks)
	a.moves++
	mv := arbiterMove{
		donor:          don.name,
		recipient:      rec.name,
		donorBytes:     don.targetBytes - a.stepBytes,
		recipientBytes: rec.targetBytes + a.stepBytes,
		stepBytes:      a.stepBytes,
	}
	a.lastMove = fmt.Sprintf("%s->%s:%d", mv.donor, mv.recipient, mv.stepBytes)
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
	obs := make([]arbiterObservation, 0, len(names))
	for _, n := range names {
		obs = append(obs, reg[n].observe(n))
	}
	s.arbMu.Lock()
	mv, ok := s.arb.tick(obs)
	s.arbMu.Unlock()
	if !ok {
		return false
	}
	// A tenant deleted between the snapshot and here just voids its half of
	// the move; the next tick replans from fresh observations.
	_ = s.ResizeTenant(mv.donor, mv.donorBytes)
	_ = s.ResizeTenant(mv.recipient, mv.recipientBytes)
	return true
}

// observe reads what the arbiter ranks the tenant by off the settled
// tenant, so its hits include every GET hit served, those within their hit
// window too (Reader.Get).
func (e *tenantEntry) observe(name string) arbiterObservation {
	var shadow int64
	e.bk.mu.Lock()
	e.bk.settleLocked()
	if m := e.tenant.Manager(); m != nil {
		shadow = m.TotalStats().ShadowHits
	}
	hits := sum(e.tenant.classHit)
	e.bk.mu.Unlock()
	return arbiterObservation{
		name:          name,
		shadowHits:    shadow,
		hits:          hits,
		shadowBytes:   e.tenant.shadowBytes(),
		targetBytes:   e.targetBytes.Load(),
		reservedBytes: e.tenant.reserved,
	}
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
	out.Moves, out.LastMove = s.arb.moves, s.arb.lastMove
	signals := make(map[string]arbiterTenant, len(s.arb.tenants))
	for n, st := range s.arb.tenants {
		signals[n] = *st
	}
	s.arbMu.Unlock()
	for n, e := range reg {
		res := e.tenant.reserved
		out.Tenants[n] = ArbiterTenantStats{
			Arbitrated:         e.tenant.Mode() == AllocMemshare,
			LeasePages:         ps.Leases[n],
			ReservedBytes:      res,
			ReservedPages:      (res + s.pa.pageSize - 1) / s.pa.pageSize,
			TargetBytes:        e.targetBytes.Load(),
			MarginalHitPerByte: signals[n].marginal,
			HitDensityPerByte:  signals[n].density,
		}
	}
	return out
}
