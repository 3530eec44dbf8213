package workload

import (
	"errors"
	"fmt"
	"math"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/protocol"
	"cliffhanger/internal/server"
	"cliffhanger/internal/sim"
	"cliffhanger/internal/store"
	"cliffhanger/internal/trace"
)

// This file is the sim-vs-wire cross-check: the proof that the protocol and
// server layers in front of the store change no hit. The same seeded workload
// is replayed twice — once through sim.Run, which drives a synchronous store
// directly, once over a real TCP socket against an in-process server whose
// synchronous store has identically configured tenants (sim.TenantConfigs) —
// and per-application GET hit rates are compared.
//
// Both replays issue the same store calls: a GET, a SET of the same key after
// a miss with the value padded to the trace's Size (sim.PadValue), a SET and
// a DELETE as the trace has them, and in memshare mode an arbiter tick every
// store.DefaultArbiterEvery GETs. Replay is a single connection, so the wire
// side is deterministic too, and the two engines agree exactly in every mode:
// any nonzero max delta is a bug, and OK reports false on it.

// VerifyConfig configures CrossCheck.
type VerifyConfig struct {
	// Spec and Options select the workload, as for Open. The spec must carry
	// a tenant layout (zipf, facebook, memcachier — not file).
	Spec    string
	Options Options
	// Mode is the allocation policy both engines run. The zero value is
	// store.AllocDefault (first-come-first-serve slab allocation), like
	// everywhere else in the repository.
	Mode store.AllocationMode
	// AppMemoryOverride replaces selected apps' trace-derived memory sizes
	// on both engines (sim.Config.AppMemoryOverride). The hit-rate benchmark
	// uses it to model a naively provisioned cluster — every app granted the
	// same partition — which is the operating point the memshare arbiter is
	// meant to rescue.
	AppMemoryOverride map[int]int64
}

// VerifyApp is one application's pair of hit rates.
type VerifyApp struct {
	App      int
	Requests int64
	Sim      float64
	Wire     float64
}

// Delta returns |Wire - Sim|.
func (a VerifyApp) Delta() float64 { return math.Abs(a.Wire - a.Sim) }

// VerifyResult is the outcome of a CrossCheck run.
type VerifyResult struct {
	Apps                    []VerifyApp
	SimOverall, WireOverall float64
	// MaxDelta is the largest per-app hit-rate difference (apps that saw no
	// GETs are skipped).
	MaxDelta float64
	// Fills counts the wire replay's demand fills (one per GET miss);
	// RejectedSets counts SETs the server refused as larger than every slab
	// class — the simulator treats such items as permanent misses, and so,
	// by construction, does the wire replay.
	Fills, RejectedSets int64
	// ArbiterMoves counts the wire store's cross-tenant arbiter moves
	// (memshare mode only; zero otherwise). The sim side ticks its own store's
	// arbiter at the same request cadence.
	ArbiterMoves int64
}

// OK reports whether every application's sim and wire hit rates are equal.
func (r *VerifyResult) OK() bool { return r.MaxDelta == 0 }

// CrossCheck replays the same seeded workload through internal/sim and over
// a real socket, returning the per-application hit-rate comparison.
func CrossCheck(cfg VerifyConfig) (*VerifyResult, error) {
	// Simulator side.
	wl, err := Open(cfg.Spec, cfg.Options)
	if err != nil {
		return nil, err
	}
	defer wl.Close()
	if wl.Apps == nil {
		return nil, fmt.Errorf("workload: %s traces carry no tenant layout to verify against", wl.Name)
	}
	simCfg := sim.Config{Apps: wl.Apps, Mode: cfg.Mode, AppMemoryOverride: cfg.AppMemoryOverride}
	simRes, err := sim.Run(simCfg, wl.Source)
	if err != nil {
		return nil, err
	}

	// Wire side: identically-seeded source, identically-configured tenants,
	// deterministic (synchronous) bookkeeping, one connection.
	wl2, err := Open(cfg.Spec, cfg.Options)
	if err != nil {
		return nil, err
	}
	defer wl2.Close()
	tcfgs, err := sim.TenantConfigs(simCfg)
	if err != nil {
		return nil, err
	}
	st := store.New(store.Config{SyncBookkeeping: true})
	defer st.Close()
	for _, app := range wl.Apps {
		if err := st.RegisterTenantConfig(tcfgs[app.ID]); err != nil {
			return nil, err
		}
	}
	srv := server.New(server.Config{Addr: "127.0.0.1:0", DefaultTenant: sim.TenantName(wl.Apps[0].ID)}, st)
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	type counter struct{ hits, reqs int64 }
	counts := make(map[int]*counter, len(wl.Apps))
	for _, app := range wl.Apps {
		counts[app.ID] = &counter{}
	}
	res := &VerifyResult{}
	payload := make([]byte, protocol.MaxValueLength)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	fill := func(r trace.Request) error {
		err := c.SetWithOptions(r.Key, sim.PadValue(payload, r), 0, 0)
		if errors.Is(err, protocol.ErrRemote) {
			// Too large for every slab class: a permanent miss on both
			// engines, not a replay failure.
			res.RejectedSets++
			return nil
		}
		return err
	}

	curApp := wl.Apps[0].ID
	var (
		found     bool
		keybuf    = make([]string, 1)
		onValue   = func(int, []byte, uint32, uint64, []byte) { found = true }
		totalGets int64
	)
	// In memshare mode the wire store's arbiter is driven at the same
	// deterministic request cadence sim.Run uses, so both engines make the
	// same sequence of cross-tenant moves.
	arbitrated := cfg.Mode == store.AllocMemshare
	for {
		r, ok := wl2.Source.Next()
		if !ok {
			break
		}
		cnt := counts[r.App]
		if cnt == nil {
			continue // request for an app outside the layout, as in sim.Run
		}
		if r.App != curApp {
			if err := c.SelectTenant(sim.TenantName(r.App)); err != nil {
				return nil, err
			}
			curApp = r.App
		}
		switch r.Op {
		case trace.OpDelete:
			if _, err := c.Delete(r.Key); err != nil {
				return nil, err
			}
		case trace.OpSet:
			if err := fill(r); err != nil {
				return nil, err
			}
		default:
			keybuf[0] = r.Key
			found = false
			if err := c.PipelineGetFunc(keybuf, onValue); err != nil {
				return nil, err
			}
			cnt.reqs++
			totalGets++
			if found {
				cnt.hits++
			} else {
				// Demand fill, mirroring the simulator's miss semantics.
				res.Fills++
				if err := fill(r); err != nil {
					return nil, err
				}
			}
			if arbitrated && totalGets%store.DefaultArbiterEvery == 0 {
				if st.ArbiterTick() {
					res.ArbiterMoves++
				}
			}
		}
	}

	// Arbitration moves pages between tenants through the migration state
	// machine; prove chunk conservation held for every tenant regardless.
	for _, app := range wl.Apps {
		if err := st.AuditConservation(sim.TenantName(app.ID)); err != nil {
			return nil, fmt.Errorf("workload: conservation audit after replay: %w", err)
		}
	}

	var totalHits, totalReqs int64
	for _, app := range wl.Apps {
		cnt := counts[app.ID]
		ar := simRes.App(app.ID)
		va := VerifyApp{App: app.ID, Requests: cnt.reqs}
		if ar != nil {
			va.Sim = ar.HitRate()
			if ar.Requests != cnt.reqs {
				return nil, fmt.Errorf("workload: app %d replay diverged: sim saw %d GETs, wire saw %d",
					app.ID, ar.Requests, cnt.reqs)
			}
		}
		if cnt.reqs > 0 {
			va.Wire = float64(cnt.hits) / float64(cnt.reqs)
			if d := va.Delta(); d > res.MaxDelta {
				res.MaxDelta = d
			}
		}
		totalHits += cnt.hits
		totalReqs += cnt.reqs
		res.Apps = append(res.Apps, va)
	}
	res.SimOverall = simRes.HitRate()
	if totalReqs > 0 {
		res.WireOverall = float64(totalHits) / float64(totalReqs)
	}
	return res, nil
}
