package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/server"
	"cliffhanger/internal/store"
)

// TestStatsTick drives commands at a live server between two ticks and reads
// the second as -stats-json writes it: it decodes into the tick envelope and
// nothing else, each tenant's object is that tenant's plain stats group, the
// arbiter object is the arbiter group, and the rate is the commands driven
// between the ticks over the time between them.
func TestStatsTick(t *testing.T) {
	st := store.New(store.Config{DefaultMode: store.AllocCliffhanger, SyncBookkeeping: true})
	for name, mb := range map[string]int64{"default": 8, "app2": 4} {
		if err := st.RegisterTenant(name, mb<<20); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(server.Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); st.Close() })
	c, err := client.Dial(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	t0 := time.Now()
	tk := ticker{srv: srv, st: st, ops: srv.Ops.Ops(), last: t0}
	if first := tk.next(t0.Add(time.Second)); first.IntervalOpsPerSec != 0 {
		t.Fatalf("first tick with no commands reads %v ops/s", first.IntervalOpsPerSec)
	}
	const keys = 50
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := c.Set(key, []byte("value")); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := c.Get(key); err != nil || !ok {
			t.Fatalf("GET %s: ok=%v err=%v", key, ok, err)
		}
	}
	// The server counts a command before it answers it, so all are counted.
	// It puts the session back in the pool only after the answer is out, so
	// the tick waits for the connection to park: taken earlier, it could
	// read active_sessions 1 where the later stats read gives 0.
	for deadline := time.Now().Add(5 * time.Second); srv.ConnStats().ActiveSessions != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the connection has not parked after 5s: %+v", srv.ConnStats())
		}
	}
	second := tk.next(t0.Add(3 * time.Second))

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&second); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	var got tick
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("tick %s does not decode: %v", buf.String(), err)
	}
	if want := 2.0 * keys / 2; got.IntervalOpsPerSec != want {
		t.Fatalf("interval_ops_per_sec = %v, want %v (%d commands in 2s)", got.IntervalOpsPerSec, want, 2*keys)
	}
	if _, err := time.Parse(time.RFC3339Nano, got.TS); err != nil {
		t.Fatalf("ts %q: %v", got.TS, err)
	}

	if len(got.Tenants) != 2 {
		t.Fatalf("tick holds tenants %v, want default and app2", got.Tenants)
	}
	for _, name := range st.Tenants() {
		g, err := srv.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		want := byName(g)
		have := got.Tenants[name]
		if len(have) != len(want) {
			t.Fatalf("tenant %s: tick has %d fields, stats %d:\n%v\n%v", name, len(have), len(want), have, want)
		}
		for k, v := range want {
			// These two are read from the heap and the clock at render time.
			if k == "mem_inuse_bytes" || k == "ops_per_sec" {
				if _, ok := have[k]; !ok {
					t.Fatalf("tenant %s: tick has no %s", name, k)
				}
				continue
			}
			if have[k] != v {
				t.Fatalf("tenant %s: tick %s = %q, stats says %q", name, k, have[k], v)
			}
		}
	}
	if got.Tenants["default"]["cmd_get"] != fmt.Sprint(keys) {
		t.Fatalf("default cmd_get = %q, want %d", got.Tenants["default"]["cmd_get"], keys)
	}
	arb, err := srv.Stats("", "arbiter")
	if err != nil {
		t.Fatal(err)
	}
	want := byName(arb)
	if len(got.Arbiter) != len(want) {
		t.Fatalf("arbiter: tick %v, stats %v", got.Arbiter, want)
	}
	for k, v := range want {
		if got.Arbiter[k] != v {
			t.Fatalf("arbiter: tick %s = %q, stats says %q", k, got.Arbiter[k], v)
		}
	}

	line := second.logLine()
	for _, part := range []string{"ops/s=50 ", " | app2 hit=", " | default hit=1.0000 req=50 unpromoted=0 "} {
		if !strings.Contains(line, part) {
			t.Fatalf("log line %q lacks %q", line, part)
		}
	}
}

// TestStatsJSONNeedsInterval: -stats-json records ticks, so without
// -stats-interval there is nothing to record and the daemon refuses to start.
// The daemon runs as this test binary re-executed, with main's flags.
func TestStatsJSONNeedsInterval(t *testing.T) {
	if args := os.Getenv("CLIFFHANGERD_ARGS"); args != "" {
		os.Args = append([]string{"cliffhangerd"}, strings.Fields(args)...)
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "stats.jsonl")
	out, err := runDaemon(t, "TestStatsJSONNeedsInterval", "-addr 127.0.0.1:0 -stats-json "+path)
	if err == nil || !strings.Contains(string(out), "-stats-json needs -stats-interval") {
		t.Fatalf("daemon exit %v, output:\n%s", err, out)
	}
}

// TestParseTenantsBoundsReservations: -tenants takes the same bound as the
// tenant_create verb, so a reservation whose MB→bytes shift would overflow
// is refused by name instead of wrapping around. 2^44+1 MB used to register a
// 1 MiB tenant, and 2^43 MB a negative one that the store refused as "needs a
// positive memory reservation".
func TestParseTenantsBoundsReservations(t *testing.T) {
	for _, spec := range []string{"a:17592186044417", "a:8796093022208", fmt.Sprintf("a:%d", server.MaxTenantMB+1)} {
		if specs, err := parseTenants(spec); err == nil || !strings.Contains(err.Error(), "bad tenant memory") {
			t.Errorf("parseTenants(%q) = %v, %v; want the bad-memory error", spec, specs, err)
		}
	}
	specs, err := parseTenants(fmt.Sprintf("a:%d,b:64", server.MaxTenantMB))
	if err != nil || len(specs) != 2 || specs[0].mb<<20 <= 0 {
		t.Fatalf("the largest allowed reservation: %v, %v", specs, err)
	}
}

// runDaemon runs main with args in this test binary re-executed under test,
// a test whose first lines hand CLIFFHANGERD_ARGS to main, and returns what it
// printed. It fails the test if the daemon is still running after 20s.
func runDaemon(t *testing.T, test, args string) ([]byte, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "CLIFFHANGERD_ARGS="+args)
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("daemon started and served with %s:\n%s", args, out)
	}
	return out, err
}

// TestDaemonFlagSurface pins the daemon's flag set: the names -h prints must
// be exactly this list, so a new knob means editing it here. There is no
// -policy: every unmanaged mode evicts by memcached's per-class LRU. There is
// no -workers either: there is one front end. Nor -shards (every tenant has
// the store's one stripe count) or -sync-bookkeeping (synchronous
// bookkeeping is the simulator's and the tests', through store.Config).
func TestDaemonFlagSurface(t *testing.T) {
	if args := os.Getenv("CLIFFHANGERD_ARGS"); args != "" {
		os.Args = append([]string{"cliffhangerd"}, strings.Fields(args)...)
		main()
		return
	}
	want := []string{
		"addr", "arbiter-interval", "drain-timeout", "idle-timeout", "max-conns", "mode",
		"pprof-addr", "read-timeout", "stats-interval", "stats-json", "tenants", "write-timeout",
	}
	out, _ := runDaemon(t, "TestDaemonFlagSurface", "-h")
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(out), -1) {
		// The re-executed test binary also carries the testing package's flags.
		if !strings.HasPrefix(m[1], "test.") {
			got = append(got, m[1])
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("daemon flags:\n got %v\nwant %v", got, want)
	}
	for _, args := range []string{"-policy lru", "-workers 4", "-shards 8", "-sync-bookkeeping"} {
		out, err := runDaemon(t, "TestDaemonFlagSurface", args)
		if err == nil || !strings.Contains(string(out), "flag provided but not defined: "+strings.Fields(args)[0]) {
			t.Fatalf("%s: exit %v, output:\n%s", args, err, out)
		}
	}
}
