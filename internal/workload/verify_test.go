package workload

import (
	"testing"

	"cliffhanger/internal/store"
	"cliffhanger/internal/trace"
)

// TestCrossCheckMemcachierSimVsWire is the end-to-end proof the ROADMAP asks
// for: replaying the seeded Memcachier generator over a real TCP socket
// (protocol parse, server handlers, sharded store, synchronous bookkeeping)
// reproduces the per-application hit rates internal/sim computes for the
// same stream. sim.Run drives the same synchronous store without the socket,
// so every mode a binary can start must agree exactly. The memshare row runs
// at the quarter scale and equal split `make arbiter` uses, where the arbiter
// moves a page, so the two engines' arbiter ticks are compared too. The CLI
// equivalent is `cliffbench -trace memcachier -verify [-mode ...]`.
func TestCrossCheckMemcachierSimVsWire(t *testing.T) {
	if testing.Short() {
		t.Skip("replays tens of thousands of requests over a socket")
	}
	small := VerifyConfig{Spec: "memcachier", Options: Options{Requests: 40000, Seed: 7, Scale: 0.05}}
	// Every app gets the layout's mean reservation, as cliffbench -hitrate-json
	// splits it.
	apps := trace.MemcachierApps(0.25)
	var totalMB int64
	for _, a := range apps {
		totalMB += a.MemoryMB
	}
	equal := make(map[int]int64, len(apps))
	for _, a := range apps {
		equal[a.ID] = totalMB / int64(len(apps)) << 20
	}
	arbitrated := VerifyConfig{Spec: "memcachier", Options: Options{Requests: 100000, Seed: 7, Scale: 0.25},
		Mode: store.AllocMemshare, AppMemoryOverride: equal}
	for _, cfg := range []VerifyConfig{
		withMode(small, store.AllocCliffhanger), withMode(small, store.AllocDefault),
		withMode(small, store.AllocGlobalLRU), arbitrated,
	} {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			res := crossCheckExact(t, cfg)
			if len(res.Apps) != 20 {
				t.Fatalf("compared %d apps, want 20", len(res.Apps))
			}
			if cfg.Mode == store.AllocMemshare && res.ArbiterMoves == 0 {
				t.Fatal("the arbiter never moved a page, so its ticks were not compared")
			}
		})
	}
}

func withMode(cfg VerifyConfig, mode store.AllocationMode) VerifyConfig {
	cfg.Mode = mode
	return cfg
}

// TestCrossCheckFacebookSimVsWire replays the facebook generator, which draws
// a new value size for a key on every request, so a key's fills move it
// between slab classes. Sim and wire must agree exactly: both re-admit a
// resized key through the store's directory, never holding it twice.
func TestCrossCheckFacebookSimVsWire(t *testing.T) {
	if testing.Short() {
		t.Skip("replays tens of thousands of requests over a socket")
	}
	for _, mode := range []store.AllocationMode{store.AllocDefault, store.AllocCliffhanger} {
		t.Run(mode.String(), func(t *testing.T) {
			crossCheckExact(t, VerifyConfig{Spec: "facebook", Mode: mode,
				Options: Options{Requests: 40000, Seed: 7, Keys: 1 << 14, MemoryMB: 4}})
		})
	}
}

// crossCheckExact runs CrossCheck and fails unless every application's sim
// and wire hit rates are equal.
func crossCheckExact(t *testing.T, cfg VerifyConfig) *VerifyResult {
	t.Helper()
	res, err := CrossCheck(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reqs int64
	for _, a := range res.Apps {
		reqs += a.Requests
		t.Logf("app%-2d gets=%-6d sim=%.4f wire=%.4f delta=%.4f", a.App, a.Requests, a.Sim, a.Wire, a.Delta())
	}
	t.Logf("overall sim=%.4f wire=%.4f maxDelta=%.4f fills=%d rejected=%d moves=%d",
		res.SimOverall, res.WireOverall, res.MaxDelta, res.Fills, res.RejectedSets, res.ArbiterMoves)
	if reqs == 0 {
		t.Fatal("wire replay saw no GETs")
	}
	if !res.OK() {
		t.Fatalf("wire hit rates diverged from sim: max delta %v", res.MaxDelta)
	}
	return res
}

// TestCrossCheckZipfLowSkew drives the sub-critical zipf source (s = 0.9,
// impossible with math/rand.Zipf) through the same harness: one tenant, sim
// and wire must agree exactly.
func TestCrossCheckZipfLowSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("replays tens of thousands of requests over a socket")
	}
	res := crossCheckExact(t, VerifyConfig{Spec: "zipf", Options: Requests20kZipf(), Mode: store.AllocCliffhanger})
	if res.SimOverall <= 0 || res.WireOverall <= 0 {
		t.Fatalf("implausible hit rates: sim=%.4f wire=%.4f", res.SimOverall, res.WireOverall)
	}
}

// Requests20kZipf is the shared compact zipf verify workload (also exercised
// by the CLI smoke runs): a working set a few times the tenant's memory so
// the hit rate is neither 0 nor 1.
func Requests20kZipf() Options {
	return Options{Requests: 20000, Seed: 5, Keys: 20000, ZipfS: 0.9, ValueSize: 1024, MemoryMB: 8}
}

// TestCrossCheckRejectsFileSpecs pins the documented limitation: file traces
// carry no tenant layout, so the harness must refuse rather than guess.
func TestCrossCheckRejectsFileSpecs(t *testing.T) {
	if _, err := CrossCheck(VerifyConfig{Spec: "file:/nonexistent", Options: Options{}}); err == nil {
		t.Fatal("file spec should error")
	}
}
