package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cliffhanger/internal/cache"
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
	st := store.New(store.Config{DefaultMode: store.AllocCliffhanger, DefaultPolicy: cache.PolicyLRU, SyncBookkeeping: true})
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
	for _, part := range []string{"ops/s=50 ", " | app2 hit=", " | default hit=1.0000 req=50 shed=0 "} {
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
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	path := filepath.Join(t.TempDir(), "stats.jsonl")
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestStatsJSONNeedsInterval$")
	cmd.Env = append(os.Environ(), "CLIFFHANGERD_ARGS=-addr 127.0.0.1:0 -stats-json "+path)
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("daemon started and served with -stats-json and no -stats-interval:\n%s", out)
	}
	if err == nil || !strings.Contains(string(out), "-stats-json needs -stats-interval") {
		t.Fatalf("daemon exit %v, output:\n%s", err, out)
	}
}
