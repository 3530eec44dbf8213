package workload

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/protocol"
	"cliffhanger/internal/server"
	"cliffhanger/internal/sim"
	"cliffhanger/internal/trace"
)

// This file is the sim-vs-wire cross-check: the proof that the protocol and
// server layers in front of the store change nothing a replay can count. The
// same seeded workload is replayed twice through sim.Replay, the one replay
// loop, over two stores built by sim.NewStore from the same sim.Config: once
// by sim.Run, which calls its store directly, and once over a real TCP socket
// through a Wire against an in-process server in front of the second store.
//
// Both halves count through the same code, so equal counts do not depend on
// two loops staying in step; the hit and miss answers still come from two
// different stacks. Replay is a single connection, so the wire half is
// deterministic too, and the two results must be equal field for field:
// per-app and per-class requests, hits, misses, evictions and final bytes,
// each app's final reservation, the fills and refusals, and the request count
// at each arbiter move. Any difference is a bug, and Mismatch names the first.

// VerifyConfig configures CrossCheck.
type VerifyConfig struct {
	// Spec and Options select the workload, as for Open. The spec must carry
	// a tenant layout (zipf, facebook, memcachier — not file).
	Spec    string
	Options Options
	// Config is what both halves run; its Apps are the opened workload's.
	sim.Config
}

// VerifyResult is the outcome of a CrossCheck run.
type VerifyResult struct {
	Sim, Wire *sim.Result
	// Mismatch names the first field in which Wire differs from Sim; nil
	// when they are equal.
	Mismatch error
}

// OK reports whether the wire replay's result equals the simulator's.
func (r *VerifyResult) OK() bool { return r.Mismatch == nil }

// CrossCheck replays the same seeded workload through internal/sim and over
// a real socket and compares the two results.
func CrossCheck(cfg VerifyConfig) (*VerifyResult, error) {
	wl, err := Open(cfg.Spec, cfg.Options)
	if err != nil {
		return nil, err
	}
	defer wl.Close()
	if wl.Apps == nil {
		return nil, fmt.Errorf("workload: %s traces carry no tenant layout to verify against", wl.Name)
	}
	cfg.Apps = wl.Apps
	simRes, err := sim.Run(cfg.Config, wl.Source)
	if err != nil {
		return nil, err
	}

	wl2, err := Open(cfg.Spec, cfg.Options)
	if err != nil {
		return nil, err
	}
	defer wl2.Close()
	st, err := sim.NewStore(cfg.Config)
	if err != nil {
		return nil, err
	}
	defer st.Close()
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
	wireRes, err := sim.Replay(cfg.Config, st, NewWire(c, 0), wl2.Source)
	if err != nil {
		return nil, err
	}

	// Arbitration moves pages between tenants through the migration state
	// machine; prove chunk conservation held for every tenant regardless.
	for _, app := range wl.Apps {
		if err := st.AuditConservation(sim.TenantName(app.ID)); err != nil {
			return nil, fmt.Errorf("workload: conservation audit after replay: %w", err)
		}
	}
	return &VerifyResult{
		Sim:      simRes,
		Wire:     wireRes,
		Mismatch: diff("Result", reflect.ValueOf(simRes), reflect.ValueOf(wireRes)),
	}, nil
}

// Wire is the sim.Engine over a client connection: what CrossCheck's wire
// half replays through, and what cliffbench's load test fills and deletes
// through beside its own pipelined GETs and mutation verbs.
type Wire struct {
	c       *client.Client
	ttl     int64
	key     []string
	found   bool
	onValue client.IndexedValueFunc
}

// NewWire returns the engine over c; every fill it sends expires after ttl
// seconds (0 never expires).
func NewWire(c *client.Client, ttl int64) *Wire {
	w := &Wire{c: c, ttl: ttl, key: make([]string, 1)}
	w.onValue = func(int, []byte, uint32, uint64, []byte) { w.found = true }
	return w
}

// Select makes tenant the tenant of the connection's next operation; ""
// leaves it where it is. The client sends the switch in front of that
// operation, and only when the tenant changes.
func (w *Wire) Select(tenant string) {
	if tenant != "" {
		_ = w.c.SelectTenant(tenant) // it fails only on ""
	}
}

func (w *Wire) Get(tenant, key string) (bool, error) {
	w.Select(tenant)
	w.key[0], w.found = key, false
	if err := w.c.PipelineGetFunc(w.key, w.onValue); err != nil {
		return false, fmt.Errorf("get: %w", err)
	}
	return w.found, nil
}

// Fill reads a server error as a refusal: the server answers a value no slab
// class holds with SERVER_ERROR.
func (w *Wire) Fill(tenant string, r trace.Request) (bool, error) {
	w.Select(tenant)
	err := w.c.SetWithOptions(r.Key, sim.PadValue(r), 0, w.ttl)
	if err != nil && !errors.Is(err, protocol.ErrRemote) {
		return false, fmt.Errorf("set: %w", err)
	}
	return err != nil, nil
}

func (w *Wire) Delete(tenant, key string) error {
	w.Select(tenant)
	if _, err := w.c.Delete(key); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	return nil
}

// diff names the first place where w differs from s (the sim and wire
// halves): structs field by field, maps in ascending (integer) key order,
// slices element by element.
func diff(path string, s, w reflect.Value) error {
	switch s.Kind() {
	case reflect.Pointer:
		return diff(path, s.Elem(), w.Elem())
	case reflect.Struct:
		for i := range s.NumField() {
			if err := diff(path+"."+s.Type().Field(i).Name, s.Field(i), w.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		keys := append(s.MapKeys(), w.MapKeys()...)
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.Int(), b.Int()) })
		keys = slices.CompactFunc(keys, func(a, b reflect.Value) bool { return a.Int() == b.Int() })
		for _, k := range keys {
			at := fmt.Sprintf("%s[%d]", path, k.Int())
			sk, wk := s.MapIndex(k), w.MapIndex(k)
			if !sk.IsValid() || !wk.IsValid() {
				return fmt.Errorf("%s: in sim %t, in wire %t", at, sk.IsValid(), wk.IsValid())
			}
			if err := diff(at, sk, wk); err != nil {
				return err
			}
		}
	case reflect.Slice:
		for i := range min(s.Len(), w.Len()) {
			if err := diff(fmt.Sprintf("%s[%d]", path, i), s.Index(i), w.Index(i)); err != nil {
				return err
			}
		}
		if s.Len() != w.Len() {
			return fmt.Errorf("%s: sim has %d, wire %d", path, s.Len(), w.Len())
		}
	default:
		if !s.Equal(w) {
			return fmt.Errorf("%s: sim %v, wire %v", path, s, w)
		}
	}
	return nil
}
