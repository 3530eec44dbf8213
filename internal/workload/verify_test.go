package workload

import (
	"testing"

	"cliffhanger/internal/store"
)

// TestCrossCheckMemcachierSimVsWire is the end-to-end proof the ROADMAP asks
// for: replaying the seeded Memcachier generator over a real TCP socket
// (protocol parse, server handlers, sharded store, synchronous bookkeeping)
// reproduces the per-application hit rates internal/sim computes for the
// same stream, within the stated tolerance. The two classQueues modes a
// binary can start are held to exactly equal hit rates: they share one
// admission path, and nothing else in tier-1 runs them over the wire. The CLI
// equivalent is `cliffbench -trace memcachier -verify [-mode ...]`.
func TestCrossCheckMemcachierSimVsWire(t *testing.T) {
	if testing.Short() {
		t.Skip("replays tens of thousands of requests over a socket")
	}
	for _, in := range []struct {
		mode      store.AllocationMode
		tolerance float64 // 0: sim and wire must agree exactly
	}{
		{store.AllocCliffhanger, 0.03},
		{store.AllocDefault, 0},
		{store.AllocGlobalLRU, 0},
	} {
		t.Run(in.mode.String(), func(t *testing.T) {
			res, err := CrossCheck(VerifyConfig{
				Spec:      "memcachier",
				Options:   Options{Requests: 40000, Seed: 7, Scale: 0.05},
				Mode:      in.mode,
				Tolerance: in.tolerance,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Apps) != 20 {
				t.Fatalf("compared %d apps, want 20", len(res.Apps))
			}
			var reqs int64
			for _, a := range res.Apps {
				reqs += a.Requests
				t.Logf("app%-2d gets=%-6d sim=%.4f wire=%.4f delta=%.4f", a.App, a.Requests, a.Sim, a.Wire, a.Delta())
			}
			t.Logf("overall sim=%.4f wire=%.4f maxDelta=%.4f fills=%d rejected=%d",
				res.SimOverall, res.WireOverall, res.MaxDelta, res.Fills, res.RejectedSets)
			if reqs == 0 {
				t.Fatal("wire replay saw no GETs")
			}
			// CrossCheck reads a zero tolerance as "use the default", so exact
			// agreement is asked of MaxDelta itself.
			if !res.OK() || (in.tolerance == 0 && res.MaxDelta != 0) {
				t.Fatalf("wire hit rates diverged from sim: max delta %v, tolerance %v", res.MaxDelta, in.tolerance)
			}
		})
	}
}

// TestCrossCheckZipfLowSkew drives the sub-critical zipf source (s = 0.9,
// impossible with math/rand.Zipf) through the same harness: one tenant, sim
// and wire must agree.
func TestCrossCheckZipfLowSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("replays tens of thousands of requests over a socket")
	}
	res, err := CrossCheck(VerifyConfig{
		Spec:      "zipf",
		Options:   Requests20kZipf(),
		Mode:      store.AllocCliffhanger,
		Tolerance: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("overall sim=%.4f wire=%.4f maxDelta=%.4f", res.SimOverall, res.WireOverall, res.MaxDelta)
	if !res.OK() {
		t.Fatalf("zipf wire hit rate diverged: max delta %.4f > tolerance %.4f", res.MaxDelta, res.Tolerance)
	}
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
