package client_test

import (
	"testing"
	"time"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/client"
	"cliffhanger/internal/server"
	"cliffhanger/internal/store"
)

// dialGate starts a server with the given governor config over a fresh
// synchronous-bookkeeping store holding the named tenants (the first is the
// default one) and dials it: the setting every end-to-end alloc gate shares.
func dialGate(t *testing.T, cfg server.Config, tenants ...string) (*store.Store, *client.Client) {
	t.Helper()
	st := store.New(store.Config{
		DefaultMode:     store.AllocCliffhanger,
		DefaultPolicy:   cache.PolicyLRU,
		SyncBookkeeping: true,
	})
	t.Cleanup(func() { st.Close() })
	for _, name := range tenants {
		if err := st.RegisterTenant(name, 64<<20); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Addr, cfg.DefaultTenant = "127.0.0.1:0", tenants[0]
	srv := server.New(cfg, st)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return st, c
}

// TestAllocGateClientStreamingGet pins the streaming GET path end to end
// over a real loopback socket (run by `make alloccheck` and CI): a depth-64
// pipelined batch through PipelineGetFunc must average <= 1 allocation per
// operation, client and server combined. The server side is 0 on a hit
// (PR 3's gate) and the streaming client reads keys and values into reusable
// buffers, so the whole round trip produces no per-value garbage — closing
// the ROADMAP open item about PipelineGet's ~2 allocs/op.
func TestAllocGateClientStreamingGet(t *testing.T) {
	_, c := dialGate(t, server.Config{}, "default")

	const depth = 64
	keys := make([]string, depth)
	for i := range keys {
		keys[i] = "stream-key-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	if err := c.PipelineSet(keys, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}

	var bytesSeen int
	onValue := func(i int, key []byte, flags uint32, cas uint64, value []byte) {
		bytesSeen += len(value)
	}
	run := func() {
		if err := c.PipelineGetFunc(keys, onValue); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the client buffers
	allocs := testing.AllocsPerRun(200, run)
	if perOp := allocs / depth; perOp > 1 {
		t.Errorf("streaming pipelined GET allocates %.2f objects/op (%.1f per depth-%d batch), want <= 1 amortized",
			perOp, allocs, depth)
	}
	if bytesSeen == 0 {
		t.Fatal("callback never saw a value")
	}
}

// TestAllocGateGovernedStreamingGet re-runs the end-to-end streaming gate
// with the connection governor fully armed (MaxConns, idle, read and write
// deadlines). AllocsPerRun counts mallocs process-wide, so the server's
// session goroutine is inside the measurement: arming a deadline per read
// and write must add zero allocations, or overload armor would cost the
// hot path its allocation-free guarantee.
func TestAllocGateGovernedStreamingGet(t *testing.T) {
	_, c := dialGate(t, server.Config{
		MaxConns:     64,
		IdleTimeout:  time.Minute,
		ReadTimeout:  time.Minute,
		WriteTimeout: time.Minute,
	}, "default")

	const depth = 64
	keys := make([]string, depth)
	for i := range keys {
		keys[i] = "gov-key-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	if err := c.PipelineSet(keys, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}

	onValue := func(i int, key []byte, flags uint32, cas uint64, value []byte) {}
	run := func() {
		if err := c.PipelineGetFunc(keys, onValue); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the client buffers
	allocs := testing.AllocsPerRun(200, run)
	if perOp := allocs / depth; perOp > 1 {
		t.Errorf("governed streaming GET allocates %.2f objects/op (%.1f per depth-%d batch), want <= 1 amortized — the governor must not allocate on the hot path",
			perOp, allocs, depth)
	}
}

// TestAllocGateClientTenantSwitch pins the multi-tenant shape of the same
// path: every call switches tenant first, as a load generator replaying a
// multi-tenant trace over one connection does. The switch is assembled in
// the client's scratch and rides the batch's flush, and the server keeps the
// registry's name string, so a switch plus a pipelined GET stays inside the
// streaming budget of <= 1 allocation per operation even at depth 1, where
// nothing is amortized (it measures 0; building the line as a string, as the
// client used to, and copying the name in the server cost 3).
func TestAllocGateClientTenantSwitch(t *testing.T) {
	tenants := []string{"default", "app2"}
	keys := []string{"switch-key"}
	st, c := dialGate(t, server.Config{}, tenants...)
	for _, name := range tenants {
		if err := st.SetItemBytes(name, []byte(keys[0]), []byte(name), 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	var want string
	onValue := func(i int, key []byte, flags uint32, cas uint64, value []byte) {
		if string(value) != want {
			t.Errorf("after selecting %s the value is %q", want, value)
		}
	}
	run := func() {
		for _, want = range tenants {
			if err := c.SelectTenant(want); err != nil {
				t.Fatal(err)
			}
			if err := c.PipelineGetFunc(keys, onValue); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the client buffers
	allocs := testing.AllocsPerRun(200, run)
	if perOp := allocs / float64(len(tenants)); perOp > 1 {
		t.Errorf("tenant switch + pipelined GET allocates %.2f objects/op, want <= 1", perOp)
	}
}
