package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/core"
	"cliffhanger/internal/store"
)

func startTestServer(t *testing.T, mode store.AllocationMode) (*Server, *store.Store) {
	t.Helper()
	st := store.New(store.Config{DefaultMode: mode})
	if err := st.RegisterTenant("default", 8<<20); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterTenant("app2", 4<<20); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, st
}

func dialTest(t *testing.T, srv *Server) *client.Client {
	t.Helper()
	c, err := client.Dial(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerSetGetDelete(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocCliffhanger)
	c := dialTest(t, srv)

	if _, ok, err := c.Get("missing"); err != nil || ok {
		t.Fatalf("get of missing key: ok=%v err=%v", ok, err)
	}
	if err := c.Set("greeting", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("greeting")
	if err != nil || !ok || string(v) != "hello world" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	if deleted, err := c.Delete("greeting"); err != nil || !deleted {
		t.Fatalf("delete = %v %v", deleted, err)
	}
	if deleted, _ := c.Delete("greeting"); deleted {
		t.Fatalf("second delete should report NOT_FOUND")
	}
	if v, err := c.Version(); err != nil || v == "" {
		t.Fatalf("version = %q %v", v, err)
	}
}

func TestServerBinaryValuesAndMultiGet(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocDefault)
	c := dialTest(t, srv)

	binary := make([]byte, 1024)
	for i := range binary {
		binary[i] = byte(i % 251)
	}
	binary[10] = '\r'
	binary[11] = '\n'
	if err := c.Set("binary", binary); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string][]byte{}
	err := c.GetMultiFunc([]string{"k0", "k3", "binary", "missing"}, false, func(k []byte, _ uint32, _ uint64, v []byte) {
		got[string(k)] = append([]byte(nil), v...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("GetMultiFunc streamed %d values, want 3", len(got))
	}
	if string(got["k3"]) != "3" {
		t.Fatalf("k3 = %q", got["k3"])
	}
	if len(got["binary"]) != len(binary) {
		t.Fatalf("binary value corrupted: %d bytes", len(got["binary"]))
	}
	for i := range binary {
		if got["binary"][i] != binary[i] {
			t.Fatalf("binary value differs at byte %d", i)
		}
	}
}

func TestServerTenantIsolationAndStats(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocCliffhanger)
	c1 := dialTest(t, srv)
	c2 := dialTest(t, srv)

	if err := c1.Set("shared-key", []byte("tenant-default")); err != nil {
		t.Fatal(err)
	}
	if err := c2.SelectTenant("app2"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c2.Get("shared-key"); ok {
		t.Fatalf("tenants must be isolated")
	}
	if err := c2.Set("shared-key", []byte("tenant-app2")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := c1.Get("shared-key")
	if !ok || string(v) != "tenant-default" {
		t.Fatalf("default tenant value clobbered: %q %v", v, ok)
	}
	stats, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["tenant"] != "app2" {
		t.Fatalf("stats tenant = %q", stats["tenant"])
	}
	if stats["cmd_set"] == "" || stats["hit_rate"] == "" {
		t.Fatalf("stats missing fields: %v", stats)
	}
	// Epoch-reclamation counters reach the client: epoch_current is at least
	// the arena's initial epoch (1), and the other two parse as integers.
	if epoch, err := strconv.ParseUint(stats["epoch_current"], 10, 64); err != nil || epoch == 0 {
		t.Fatalf("stats epoch_current = %q (%v), want a positive integer", stats["epoch_current"], err)
	}
	if _, err := strconv.ParseInt(stats["epoch_quarantined_chunks"], 10, 64); err != nil {
		t.Fatalf("stats epoch_quarantined_chunks = %q: %v", stats["epoch_quarantined_chunks"], err)
	}
	if _, err := strconv.ParseInt(stats["epoch_deferred_frees"], 10, 64); err != nil {
		t.Fatalf("stats epoch_deferred_frees = %q: %v", stats["epoch_deferred_frees"], err)
	}
	slabs, err := c2.Stats("slabs")
	if err != nil {
		t.Fatal(err)
	}
	if slabs["active_slabs"] == "" || slabs["total_malloced"] == "" {
		t.Fatalf("stats slabs missing totals: %v", slabs)
	}
	// Every class line accounts for each chunk of its pages in one of the
	// states a chunk can be in with no page retiring.
	sawClass := false
	for k, total := range slabs {
		class, ok := strings.CutSuffix(k, ":total_chunks")
		if !ok {
			continue
		}
		sawClass = true
		sum := 0
		for _, state := range []string{"used", "free", "quarantined", "uncarved"} {
			n, err := strconv.Atoi(slabs[class+":"+state+"_chunks"])
			if err != nil {
				t.Fatalf("stats slabs %s:%s_chunks: %v (%v)", class, state, err, slabs)
			}
			sum += n
		}
		if strconv.Itoa(sum) != total {
			t.Fatalf("stats slabs class %s: used + free + quarantined + uncarved = %d, total_chunks %s: %v", class, sum, total, slabs)
		}
	}
	if !sawClass {
		t.Fatalf("stats slabs reports no class lines for a tenant with a resident value: %v", slabs)
	}
	if err := c2.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c2.Get("shared-key"); ok {
		t.Fatalf("flush_all did not clear tenant")
	}
}

func TestServerUnknownCommandRecovers(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocDefault)
	c := dialTest(t, srv)
	// A single-line command with an invalid key (too long) draws a
	// CLIENT_ERROR but must leave the connection usable.
	longKey := make([]byte, 300)
	for i := range longKey {
		longKey[i] = 'k'
	}
	if _, err := c.Delete(string(longKey)); err == nil {
		t.Fatalf("over-long key should produce an error")
	}
	// Connection must still work afterwards.
	if err := c.Set("good-key", []byte("x")); err != nil {
		t.Fatalf("connection unusable after protocol error: %v", err)
	}
}

// TestServerPipelinedCommands writes a whole batch of commands in one TCP
// segment and checks every response arrives, in order, from the parse-ahead
// write path.
func TestServerPipelinedCommands(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocCliffhanger)
	c := dialTest(t, srv)

	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("p%d", i)
	}
	if err := c.PipelineSet(keys, []byte("vvv")); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	collect := func(_ int, k []byte, _ uint32, _ uint64, v []byte) { got[string(k)] = string(v) }
	if err := c.PipelineGetFunc(keys, collect); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("pipelined get returned %d of %d values", len(got), len(keys))
	}
	for _, k := range keys {
		if got[k] != "vvv" {
			t.Fatalf("%s = %q", k, got[k])
		}
	}
	// A batch mixing verbs, including a failing one mid-stream, must still
	// produce one response per command in order.
	if err := c.Set("x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := c.PipelineGetFunc([]string{"x", "missing", "x"}, collect); err != nil {
		t.Fatal(err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocCliffhanger)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr(), 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d-k%d", id, i%50)
				if err := c.Set(key, []byte("value")); err != nil {
					errs <- err
					return
				}
				if _, _, err := c.Get(key); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.Ops.Ops() == 0 {
		t.Fatalf("server recorded no operations")
	}
	if srv.GetLatency.Count() == 0 || srv.SetLatency.Count() == 0 {
		t.Fatalf("latency histograms empty")
	}
}

// BenchmarkServerPipelined measures end-to-end server throughput at
// pipeline depths 1 (closed-loop request/response) and 64 (batched): the
// parse-ahead write path should make deep pipelines several times cheaper
// per operation by amortizing flush syscalls across the batch. allocs/op
// covers client and server together (they share the process here); the
// server-side floor is pinned separately by TestAllocGateServerGet.
func BenchmarkServerPipelined(b *testing.B) {
	for _, depth := range []int{1, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			st := store.New(store.Config{DefaultMode: store.AllocCliffhanger})
			defer st.Close()
			if err := st.RegisterTenant("default", 64<<20); err != nil {
				b.Fatal(err)
			}
			srv := New(Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
			if err := srv.Start(); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c, err := client.Dial(srv.Addr(), 2*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			const nKeys = 1 << 12
			keys := make([]string, nKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%d", i)
			}
			if err := c.PipelineSet(keys, make([]byte, 128)); err != nil {
				b.Fatal(err)
			}
			batch := make([]string, depth)
			discard := func(int, []byte, uint32, uint64, []byte) {}
			b.ResetTimer()
			for done := 0; done < b.N; done += depth {
				for j := range batch {
					batch[j] = keys[(done+j)&(nKeys-1)]
				}
				if depth == 1 {
					if _, _, err := c.Get(batch[0]); err != nil {
						b.Fatal(err)
					}
					continue
				}
				if err := c.PipelineGetFunc(batch, discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestServerAddReplaceSemantics pins the memcached semantics of add and
// replace (formerly silent aliases of set): add fails on existing keys,
// replace fails on missing ones.
func TestServerAddReplaceSemantics(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocDefault)
	c := dialTest(t, srv)

	if stored, err := c.Add("k", []byte("v1"), 0, 0); err != nil || !stored {
		t.Fatalf("add of fresh key = %v %v", stored, err)
	}
	if stored, err := c.Add("k", []byte("v2"), 0, 0); err != nil || stored {
		t.Fatalf("add of existing key must return NOT_STORED: %v %v", stored, err)
	}
	if v, _, _ := c.Get("k"); string(v) != "v1" {
		t.Fatalf("failed add clobbered value: %q", v)
	}
	if stored, err := c.Replace("missing", []byte("x"), 0, 0); err != nil || stored {
		t.Fatalf("replace of missing key must return NOT_STORED: %v %v", stored, err)
	}
	if stored, err := c.Replace("k", []byte("v3"), 0, 0); err != nil || !stored {
		t.Fatalf("replace of existing key = %v %v", stored, err)
	}
	if v, _, _ := c.Get("k"); string(v) != "v3" {
		t.Fatalf("replace not applied: %q", v)
	}
}

// TestServerFlagsRoundTrip pins the fix for GET always echoing flags as 0:
// the flags stored by SET must come back on VALUE lines.
func TestServerFlagsRoundTrip(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocDefault)
	c := dialTest(t, srv)

	if err := c.SetWithOptions("k", []byte("v"), 12345, 0); err != nil {
		t.Fatal(err)
	}
	data, flags, cas, ok, err := c.Gets("k")
	if err != nil || !ok {
		t.Fatalf("gets = %v %v", ok, err)
	}
	if string(data) != "v" || flags != 12345 || cas == 0 {
		t.Fatalf("gets returned data=%q flags=%d cas=%d", data, flags, cas)
	}
}

// TestServerProtocolConformance drives every supported verb over a raw TCP
// socket and checks the exact response lines, memcached-style. CI runs this
// test as its protocol-conformance gate.
func TestServerProtocolConformance(t *testing.T) {
	srv, st := startTestServer(t, store.AllocDefault)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	send := func(s string) {
		t.Helper()
		if _, err := conn.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(want ...string) {
		t.Helper()
		for _, w := range want {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("reading response (want %q): %v", w, err)
			}
			if got := strings.TrimRight(line, "\r\n"); got != w {
				t.Fatalf("response = %q, want %q", got, w)
			}
		}
	}

	// Storage verbs.
	send("set k 5 0 5\r\nhello\r\n")
	expect("STORED")
	send("get k\r\n")
	expect("VALUE k 5 5", "hello", "END")
	send("add k 0 0 1\r\nx\r\n")
	expect("NOT_STORED")
	send("add fresh 0 0 1\r\nx\r\n")
	expect("STORED")
	send("replace ghost 0 0 1\r\nx\r\n")
	expect("NOT_STORED")
	send("replace k 6 0 3\r\nnew\r\n")
	expect("STORED")

	// append / prepend.
	send("append ghost 0 0 1\r\n!\r\n")
	expect("NOT_STORED")
	send("append k 0 0 1\r\n!\r\n")
	expect("STORED")
	send("prepend k 0 0 1\r\n>\r\n")
	expect("STORED")
	send("get k\r\n")
	expect("VALUE k 6 5", ">new!", "END")

	// gets / cas.
	send("gets k\r\n")
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(strings.TrimRight(line, "\r\n"))
	if len(fields) != 5 || fields[0] != "VALUE" || fields[1] != "k" || fields[2] != "6" {
		t.Fatalf("gets VALUE line = %q", line)
	}
	casTok := fields[4]
	expect(">new!", "END")
	send("cas k 0 0 3 " + casTok + "\r\ncc1\r\n")
	expect("STORED")
	send("cas k 0 0 3 " + casTok + "\r\ncc2\r\n")
	expect("EXISTS")
	send("cas ghost 0 0 1 1\r\nx\r\n")
	expect("NOT_FOUND")
	send("get k\r\n")
	expect("VALUE k 0 3", "cc1", "END")

	// touch.
	send("touch k 100\r\n")
	expect("TOUCHED")
	send("touch ghost 100\r\n")
	expect("NOT_FOUND")

	// incr / decr.
	send("set n 0 0 2\r\n10\r\n")
	expect("STORED")
	send("incr n 5\r\n")
	expect("15")
	send("decr n 100\r\n")
	expect("0")
	send("incr ghost 1\r\n")
	expect("NOT_FOUND")
	send("incr k 1\r\n")
	expect("CLIENT_ERROR cannot increment or decrement non-numeric value")

	// Expiry: a negative exptime is dead on arrival.
	send("set dead 0 -1 1\r\nx\r\n")
	expect("STORED")
	send("get dead\r\n")
	expect("END")

	// delete, stats, flush_all, version, tenant.
	send("delete k\r\n")
	expect("DELETED")
	send("delete k\r\n")
	expect("NOT_FOUND")
	send("tenant app2\r\n")
	expect("TENANT")
	send("flush_all\r\n")
	expect("OK")
	send("version\r\n")
	line, err = r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "VERSION ") {
		t.Fatalf("version = %q %v", line, err)
	}
	send("stats\r\n")
	sawEnd := false
	sawEpoch := false
	for i := 0; i < 64; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		l := strings.TrimRight(line, "\r\n")
		if l == "END" {
			sawEnd = true
			break
		}
		if !strings.HasPrefix(l, "STAT ") {
			t.Fatalf("stats line = %q", l)
		}
		if strings.HasPrefix(l, "STAT epoch_current ") {
			sawEpoch = true
		}
	}
	if !sawEnd {
		t.Fatalf("stats response not terminated by END")
	}
	if !sawEpoch {
		t.Fatalf("stats response missing epoch_current")
	}

	// stats slabs: per-class arena occupancy from the slab-arena accounting.
	// A resident value means at least one class line (chunk_size, pages,
	// used/free chunks) plus the active_slabs/total_malloced footer.
	send("set slabbed 0 0 100\r\n" + strings.Repeat("s", 100) + "\r\n")
	expect("STORED")
	send("stats slabs\r\n")
	sawEnd = false
	sawChunkSize, sawUsed, sawMalloced := false, false, false
	for i := 0; i < 128; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		l := strings.TrimRight(line, "\r\n")
		if l == "END" {
			sawEnd = true
			break
		}
		if !strings.HasPrefix(l, "STAT ") {
			t.Fatalf("stats slabs line = %q", l)
		}
		switch {
		case strings.Contains(l, ":chunk_size "):
			sawChunkSize = true
		case strings.Contains(l, ":used_chunks "):
			sawUsed = true
		case strings.HasPrefix(l, "STAT total_malloced "):
			sawMalloced = true
		}
	}
	if !sawEnd || !sawChunkSize || !sawUsed || !sawMalloced {
		t.Fatalf("stats slabs incomplete: end=%v chunk_size=%v used_chunks=%v total_malloced=%v",
			sawEnd, sawChunkSize, sawUsed, sawMalloced)
	}
	// stats cliffhanger [tenant]: the algorithm state of a Cliffhanger-mode
	// tenant — its ungranted memory, then one "<queue>:<field>" group per
	// class queue that has seen traffic. The session stays on app2; the
	// tenant is named.
	if err := st.RegisterTenantConfig(store.TenantConfig{Name: "cliff", MemoryBytes: 8 << 20, Mode: store.AllocCliffhanger}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetItemBytes("cliff", []byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	send("stats cliffhanger cliff\r\n")
	// (One 64-byte item: the queue is still at its 8 KiB floor, below the
	// 1000-item split threshold, and nothing has been granted.)
	expect("STAT tenant cliff", "STAT free_pages 8", "STAT free_bytes 8388608",
		"STAT class0:capacity 8192", "STAT class0:applied_capacity 8192",
		"STAT class0:used 64", "STAT class0:items 1", "STAT class0:credits 0",
		"STAT class0:split 0", "STAT class0:ratio 1.0000",
		"STAT class0:left_pointer 8192", "STAT class0:right_pointer 8192",
		"STAT class0:left_capacity 8192", "STAT class0:right_capacity 0",
		"STAT class0:requests 1", "STAT class0:hits 0", "STAT class0:shadow_hits 0", "STAT class0:cliff_shadow_hits 0",
		"STAT class0:left_tail_events 0", "STAT class0:right_tail_events 0",
		"STAT class0:left_cliff_events 0", "STAT class0:right_cliff_events 0",
		"STAT class0:stale_pointer_events 0", "STAT class0:relax_events 0")
	if line, err = r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "STAT class0:resizes ") {
		t.Fatalf("stats cliffhanger resizes line = %q %v", line, err)
	}
	expect("STAT class0:evictions 0", "END")
	// A tenant in another mode has no queues to show, an unknown one is an
	// error, and only "cliffhanger" takes an argument.
	send("stats cliffhanger\r\n")
	expect("STAT tenant app2", "STAT free_pages 0", "STAT free_bytes 0", "END")
	send("stats cliffhanger ghost\r\n")
	expect("SERVER_ERROR store: unknown tenant \"ghost\"")
	send("stats slabs app2\r\n")
	expect("ERROR")
	// An unknown stats sub-command draws ERROR, like memcached.
	send("stats bogus\r\n")
	expect("ERROR")

	// noreply storage writes produce no response.
	send("set quiet 0 0 1 noreply\r\nq\r\nget quiet\r\n")
	expect("VALUE quiet 0 1", "q", "END")

	// flush_all optional arguments: a delay is accepted (and arms a delayed
	// flush rather than clearing anything now)...
	send("flush_all 30\r\n")
	expect("OK")
	send("get quiet\r\n")
	expect("VALUE quiet 0 1", "q", "END")
	// ...noreply suppresses the OK, and the flush still executes — the very
	// next command's response is the first thing on the wire.
	send("flush_all noreply\r\nget quiet\r\n")
	expect("END")
	// Combined form.
	send("flush_all 10 noreply\r\nversion\r\n")
	line, err = r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "VERSION ") {
		t.Fatalf("response after flush_all 10 noreply = %q %v", line, err)
	}
	// A malformed delay draws CLIENT_ERROR and keeps the session usable.
	send("flush_all soon\r\n")
	line, err = r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "CLIENT_ERROR") {
		t.Fatalf("flush_all soon = %q %v", line, err)
	}

	send("quit\r\n")
}

// TestServerStatsSchema pins the stats schema: the field names of every group,
// in the order the wire carries them, for a fixed store state (two
// cliffhanger-mode tenants, synchronous bookkeeping, one value in each of two
// slab classes of "default", each read once). Server.Stats is the only place a
// field is named, so a rename, a reorder or a new field fails here first.
// CI's conformance lane runs it.
func TestServerStatsSchema(t *testing.T) {
	st := store.New(store.Config{DefaultMode: store.AllocCliffhanger, SyncBookkeeping: true})
	t.Cleanup(func() { st.Close() })
	for name, mb := range map[string]int64{"default": 8, "app2": 4} {
		if err := st.RegisterTenant(name, mb<<20); err != nil {
			t.Fatal(err)
		}
	}
	for key, size := range map[string]int{"small": 100, "large": 4000} {
		if err := st.SetItemBytes("default", []byte(key), make([]byte, size), 0, 0); err != nil {
			t.Fatal(err)
		}
		view, ok, err := st.GetItemView("default", []byte(key))
		if err != nil || !ok {
			t.Fatalf("GET %s: ok=%v err=%v", key, ok, err)
		}
		view.Release()
	}
	srv := New(Config{DefaultTenant: "default"}, st)

	queue := func(id string) []string {
		var names []string
		for _, f := range []string{"capacity", "applied_capacity", "used", "items", "credits", "split", "ratio",
			"left_pointer", "right_pointer", "left_capacity", "right_capacity",
			"requests", "hits", "shadow_hits", "cliff_shadow_hits",
			"left_tail_events", "right_tail_events", "left_cliff_events", "right_cliff_events",
			"stale_pointer_events", "relax_events", "resizes", "evictions"} {
			names = append(names, id+":"+f)
		}
		return names
	}
	slab := func(class string) []string {
		var names []string
		for _, f := range []string{"chunk_size", "total_pages", "total_chunks", "used_chunks", "free_chunks",
			"quarantined_chunks", "uncarved_chunks", "mem_requested"} {
			names = append(names, class+":"+f)
		}
		return names
	}
	arbiter := func(tenant string) []string {
		var names []string
		for _, f := range []string{"arbitrated", "lease_pages", "reserved_pages", "target_bytes",
			"marginal_hit_per_byte", "hit_density_per_byte"} {
			names = append(names, tenant+":"+f)
		}
		return names
	}
	concat := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	plain := []string{"tenant", "cmd_get", "get_hits", "get_hits_unpromoted", "get_misses", "hit_rate", "cmd_set", "cmd_touch", "touch_hits",
		"expired", "ops_per_sec", "curr_connections", "total_connections", "rejected_connections", "conn_timeouts",
		"conn_panics", "parked_connections", "spurious_wakes", "active_sessions", "buffer_pool_bytes", "mem_inuse_bytes",
		"arena_bytes", "arena_occupancy", "epoch_current", "epoch_quarantined_chunks", "epoch_deferred_frees",
		"page_pool_total", "page_pool_free", "lease_pages", "reserved_pages", "target_bytes", "marginal_hit_per_byte",
		"arbiter_moves", "get_p99_us", "set_p99_us"}
	// A cliffhanger tenant's queues all hold their floor capacity, so every
	// class of the default geometry (15) has a hit rate line.
	var classHitRates []string
	for c := 0; c < 15; c++ {
		classHitRates = append(classHitRates, fmt.Sprintf("class_%d_hit_rate", c))
	}

	for _, tc := range []struct {
		tenant string
		args   []string
		want   []string
	}{
		{"default", nil, concat(plain, classHitRates)},
		{"default", []string{"slabs"}, concat(slab("1"), slab("6"), []string{"active_slabs", "total_pages", "total_malloced"})},
		{"app2", []string{"slabs"}, []string{"active_slabs", "total_pages", "total_malloced"}},
		{"", []string{"arbiter"}, concat([]string{"arbiter_moves", "arbiter_last_move"}, arbiter("app2"), arbiter("default"))},
		{"default", []string{"cliffhanger"}, concat([]string{"tenant", "free_pages", "free_bytes"}, queue("class1"), queue("class6"))},
		{"default", []string{"cliffhanger", "app2"}, []string{"tenant", "free_pages", "free_bytes"}},
	} {
		stats, err := srv.Stats(tc.tenant, tc.args...)
		if err != nil {
			t.Fatalf("Stats(%q, %q): %v", tc.tenant, tc.args, err)
		}
		var got []string
		for _, s := range stats {
			got = append(got, s.Name)
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("Stats(%q, %q) names\n got %q\nwant %q", tc.tenant, tc.args, got, tc.want)
		}
	}
	// What the verb answers ERROR (an unknown group, an argument where none
	// is taken) and SERVER_ERROR (an unknown tenant) to.
	for _, args := range [][]string{{"bogus"}, {"slabs", "app2"}, {"arbiter", "app2"}} {
		if _, err := srv.Stats("default", args...); !errors.Is(err, errUnknownStats) {
			t.Errorf("Stats(default, %q) = %v, want errUnknownStats", args, err)
		}
	}
	for _, args := range [][]string{nil, {"slabs"}, {"cliffhanger"}} {
		if _, err := srv.Stats("ghost", args...); err == nil || errors.Is(err, errUnknownStats) {
			t.Errorf("Stats(ghost, %q) = %v, want the store's unknown-tenant error", args, err)
		}
	}
}

// writeCountingConn counts the Writes the server makes on a connection: a
// batch answered in one is one syscall, whatever it holds.
type writeCountingConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestServerProtocolConformanceTenantPipeline pins the server half of the
// client's free tenant switch: tenant lines and the commands behind them,
// arriving in one segment, are answered in order, each value from the tenant
// selected just before it, and all four answers go out in one Write (a
// client that lets the tenant line ride its command's flush pays one round
// trip only if the acknowledgement rides the response's). It runs as the
// subtest "parked": the connection puts its session back after the batch and
// must find its last selection on the next one it leases.
func TestServerProtocolConformanceTenantPipeline(t *testing.T) {
	const batch = "tenant a\r\nget k\r\ntenant b\r\nget k\r\n"
	answers := []string{
		"TENANT", "VALUE k 0 6", "from-a", "END",
		"TENANT", "VALUE k 0 6", "from-b", "END",
	}
	// The verb itself never fails, which is what lets a client send it
	// without waiting: an unregistered name is acknowledged like any other
	// and the error comes from the command behind it.
	const ghost = "tenant ghost\r\nget k\r\ntenant a\r\nget k\r\n"
	ghostAnswers := []string{
		"TENANT", `SERVER_ERROR store: unknown tenant "ghost"`,
		"TENANT", "VALUE k 0 6", "from-a", "END",
	}
	const ghostRun = "tenant ghost\r\nget a\r\nget b\r\ngets c\r\n"
	ghostRunAnswers := []string{
		"TENANT", `SERVER_ERROR store: unknown tenant "ghost"`,
		`SERVER_ERROR store: unknown tenant "ghost"`, `SERVER_ERROR store: unknown tenant "ghost"`,
	}
	exchange := func(t *testing.T, conn net.Conn, r *bufio.Reader, req string, want ...string) {
		t.Helper()
		if _, err := conn.Write([]byte(req)); err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			line, err := r.ReadString('\n')
			if got := strings.TrimRight(line, "\r\n"); err != nil || got != w {
				t.Fatalf("response line = %q (%v), want %q", got, err, w)
			}
		}
	}

	t.Run("parked", func(t *testing.T) {
		srv, st := startGovernedServer(t, Config{})
		for _, name := range []string{"a", "b"} {
			if err := st.RegisterTenant(name, 8<<20); err != nil {
				t.Fatal(err)
			}
			if err := st.SetItemBytes(name, []byte("k"), []byte("from-"+name), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		// serveConn is handed the accepted connection through the
		// counter, as acceptLoop would hand it the bare one.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		// serveConn returns on EOF, and srv.Close, which runs later,
		// waits for it.
		defer conn.Close()
		accepted, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		counted := &writeCountingConn{Conn: accepted}
		served := struct {
			*writeCountingConn
			syscall.Conn
		}{counted, accepted.(*net.TCPConn)}
		srv.curr.Add(1)
		srv.wg.Add(1)
		go srv.serveConn(served)
		r := bufio.NewReader(conn)
		exchange(t, conn, r, batch, answers...)
		if n := counted.writes.Load(); n != 1 {
			t.Errorf("the batch was answered in %d writes, want 1", n)
		}
		waitParked(t, srv, 1)
		exchange(t, conn, r, "get k\r\n", "VALUE k 0 6", "from-b", "END")
		exchange(t, conn, r, ghost, ghostAnswers...)
		// A run of GETs behind an unknown tenant answers one
		// SERVER_ERROR per command, as each command would alone, and
		// the connection stays in step.
		exchange(t, conn, r, ghostRun, ghostRunAnswers...)
		exchange(t, conn, r, "tenant a\r\nget k\r\n", "TENANT", "VALUE k 0 6", "from-a", "END")
	})
}

// TestServerProtocolConformanceGetRuns sends one segment that mixes runs of
// get and gets with every line shape a run must not take (two spaces, a
// 251-byte key, an LF-only line, an upper-case verb, a bare get) and tenant
// switches between runs, and requires the exact bytes the same server answers
// when each command arrives alone, which serves every GET as a run of one.
func TestServerProtocolConformanceGetRuns(t *testing.T) {
	srv, st := startGovernedServer(t, Config{})
	for _, name := range []string{"a", "b"} {
		if err := st.RegisterTenant(name, 8<<20); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"k", "k2"} {
			if err := st.SetItemBytes(name, []byte(k), []byte(k+"-from-"+name), 3, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	stream := strings.Join([]string{
		"tenant a",
		"get k k2 miss", "get k", "get miss", "get k2 k",
		"gets k k2", "gets k", "gets miss k2",
		"get k", "get  k", "get k",
		"get " + strings.Repeat("x", 251), "get k",
		"get k\nget k2", "GET k k2", "get k2", "get", "get k",
		"tenant b",
		"get k", "get k2 miss k", "gets k2",
		"tenant ghost", "get k", "gets k", "get k2",
		"tenant a", "get k",
	}, "\r\n") + "\r\n"

	// The reference: the same server fed one line per read, so every GET is
	// a run of one and answers as it would alone.
	var alone bytes.Buffer
	w := bufio.NewWriter(&alone)
	lines := bytes.SplitAfter([]byte(stream), []byte("\n"))
	c := newSession(srv, bufio.NewReaderSize(&lineReader{lines: lines}, 64<<10), w)
	for c.step() {
	}
	w.Flush()
	want := alone.String()
	for _, line := range []string{"CLIENT_ERROR", "SERVER_ERROR", "VALUE k2 3 9 1\r\n", "VALUE k 3 8\r\nk-from-b"} {
		if !strings.Contains(want, line) {
			t.Fatalf("the reference answer has no %q: %q", line, want)
		}
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(stream + "version\r\n")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want)+len("VERSION cliffhanger-1.0\r\n"))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("reading the answer: %v (got %q)", err, got)
	}
	if string(got) != want+"VERSION cliffhanger-1.0\r\n" {
		t.Fatalf("one segment was answered\n%q\nwant, command by command,\n%q", got, want)
	}
}

// TestGetRunPinnedAcrossFlushes sends runs of 300 GETs of ~1 KiB values in
// one segment, so each run's answer overflows the 64 KiB writer and is
// flushed mid-run while the run holds its one epoch pin, against writers that
// re-set, delete and re-set across classes the same keys. Every value encodes
// its key and version, and every VALUE must be one its key held: a chunk
// recycled under the run would carry another key's or another version's
// bytes. make race4 runs it at GOMAXPROCS=4 under the race detector.
func TestGetRunPinnedAcrossFlushes(t *testing.T) {
	srv, st := startGovernedServer(t, Config{})
	const numKeys = 300
	sizes := []int{1024, 1024, 3000, 200} // 1 KiB, and re-sets across classes
	value := func(buf []byte, k, ver int) []byte {
		v := buf[:sizes[ver%len(sizes)]]
		head := fmt.Appendf(buf[:0], "k%d:v%d:", k, ver)
		for j := len(head); j < len(v); j++ {
			v[j] = byte(k*31 + ver*7 + j)
		}
		return v
	}
	check := func(key string, v []byte) error {
		var k, ver int
		if _, err := fmt.Sscanf(string(v), "k%d:v%d:", &k, &ver); err != nil {
			return fmt.Errorf("value of %s has no header: %q", key, v[:min(len(v), 24)])
		}
		if "k"+strconv.Itoa(k) != key {
			return fmt.Errorf("a VALUE of %s holds k%d's bytes", key, k)
		}
		want := value(make([]byte, 3000), k, ver)
		if !bytes.Equal(v, want) {
			return fmt.Errorf("%s version %d: %d bytes do not match the %d it was set with", key, ver, len(v), len(want))
		}
		return nil
	}
	buf := make([]byte, 3000)
	for k := 0; k < numKeys; k++ {
		if err := st.SetItemBytes("default", []byte("k"+strconv.Itoa(k)), value(buf, k, 0), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var req bytes.Buffer
	for k := 0; k < numKeys; k++ {
		fmt.Fprintf(&req, "get k%d\r\n", k)
	}

	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	var versions atomic.Int64
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 3000)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(numKeys)
				key := []byte("k" + strconv.Itoa(k))
				if rng.Intn(10) < 8 {
					_ = st.SetItemBytes("default", key, value(buf, k, int(versions.Add(1))), 0, 0)
				} else if _, err := st.Delete("default", string(key)); err != nil {
					t.Errorf("delete: %v", err)
				}
			}
		}(int64(w + 1))
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			for i := 0; i < rounds; i++ {
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				if _, err := conn.Write(req.Bytes()); err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < numKeys; k++ {
					if err := readGetAnswer(br, "k"+strconv.Itoa(k), check); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// readGetAnswer reads one get's answer for key, a VALUE block or none, and
// its END, checking the block's bytes with check.
func readGetAnswer(br *bufio.Reader, key string, check func(key string, v []byte) error) error {
	line, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	if strings.HasPrefix(line, "VALUE ") {
		var k string
		var flags, size int
		if _, err := fmt.Sscanf(line, "VALUE %s %d %d\r\n", &k, &flags, &size); err != nil || k != key {
			return fmt.Errorf("answer for %s: %q (%v)", key, line, err)
		}
		v := make([]byte, size+2)
		if _, err := io.ReadFull(br, v); err != nil {
			return err
		}
		if err := check(key, v[:size]); err != nil {
			return err
		}
		if line, err = br.ReadString('\n'); err != nil {
			return err
		}
	}
	if line != "END\r\n" {
		return fmt.Errorf("answer for %s ends %q, want END", key, line)
	}
	return nil
}

// lineReader returns one line per Read, so a bufio.Reader over it never
// holds more than one command.
type lineReader struct{ lines [][]byte }

func (l *lineReader) Read(p []byte) (int, error) {
	if len(l.lines) == 0 {
		return 0, io.EOF
	}
	n := copy(p, l.lines[0])
	if l.lines[0] = l.lines[0][n:]; len(l.lines[0]) == 0 {
		l.lines = l.lines[1:]
	}
	return n, nil
}

// TestServerDelayedFlushAllEndToEnd drives the delayed flush_all semantics
// over the wire with a stubbed clock: items last written before the deadline
// (even ones set after the command) die exactly when it passes; later writes
// survive.
func TestServerDelayedFlushAllEndToEnd(t *testing.T) {
	clock := time.Now().Unix()
	var offset atomic.Int64
	st := store.New(store.Config{
		DefaultMode:     store.AllocDefault,
		SyncBookkeeping: true,
		Now:             func() int64 { return clock + offset.Load() },
	})
	if err := st.RegisterTenant("default", 8<<20); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); st.Close() })

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(s string) {
		t.Helper()
		if _, err := conn.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(want ...string) {
		t.Helper()
		for _, w := range want {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("reading response (want %q): %v", w, err)
			}
			if got := strings.TrimRight(line, "\r\n"); got != w {
				t.Fatalf("response = %q, want %q", got, w)
			}
		}
	}

	send("set before 0 0 1\r\nb\r\n")
	expect("STORED")
	send("flush_all 5\r\n")
	expect("OK")
	send("get before\r\n")
	expect("VALUE before 0 1", "b", "END")
	send("set during 0 0 1\r\nd\r\n")
	expect("STORED")

	offset.Store(5)
	send("get before\r\nget during\r\n")
	expect("END", "END")
	send("set after 0 0 1\r\na\r\nget after\r\n")
	expect("STORED", "VALUE after 0 1", "a", "END")
}

// TestServerExpiryEndToEnd checks that expired items are never served over
// the wire: a short relative TTL set through the protocol stops being
// returned after its deadline.
func TestServerExpiryEndToEnd(t *testing.T) {
	clock := time.Now().Unix()
	var offset atomic.Int64
	st := store.New(store.Config{
		DefaultMode: store.AllocDefault,
		Now:         func() int64 { return clock + offset.Load() },
	})
	if err := st.RegisterTenant("default", 8<<20); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); st.Close() })
	c := dialTest(t, srv)

	if err := c.SetWithOptions("ttl", []byte("v"), 0, 30); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("ttl"); !ok {
		t.Fatalf("key should be live before its deadline")
	}
	offset.Store(30)
	if _, ok, _ := c.Get("ttl"); ok {
		t.Fatalf("expired key must not be returned")
	}
	// Touch can rescue a key before the deadline.
	if err := c.SetWithOptions("t2", []byte("v"), 0, 30); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Touch("t2", 600); err != nil || !ok {
		t.Fatalf("touch = %v %v", ok, err)
	}
	offset.Store(90)
	if _, ok, _ := c.Get("t2"); !ok {
		t.Fatalf("touched key should outlive its original TTL")
	}
}

// TestServerArbiterStats drives the "stats arbiter" verb and the per-tenant
// arbitration fields of plain "stats" over a real socket against a memshare
// store, read through the client: after the arbiter moves memory toward the
// loaded tenant, both surfaces must agree with the store on the lease, floor
// and move count.
func TestServerArbiterStats(t *testing.T) {
	srv, st := startTestServer(t, store.AllocMemshare)
	c := dialTest(t, srv)

	// Load the default tenant far past its partition so its shadow queues
	// light up, leaving app2 idle.
	value := make([]byte, 4096)
	for i := 0; i < 6000; i++ {
		key := fmt.Sprintf("arb-%d", i)
		if _, ok, err := c.Get(key); err != nil {
			t.Fatal(err)
		} else if !ok {
			if err := c.Set(key, value); err != nil {
				t.Fatal(err)
			}
		}
		if i%1000 == 999 {
			st.ArbiterTick()
		}
	}

	as, err := c.Stats("arbiter")
	if err != nil {
		t.Fatal(err)
	}
	want := st.ArbiterStats()
	if as["arbiter_moves"] != strconv.FormatInt(want.Moves, 10) || as["arbiter_last_move"] != want.LastMove {
		t.Fatalf("stats arbiter moves=%q last=%q, store says moves=%d last=%q",
			as["arbiter_moves"], as["arbiter_last_move"], want.Moves, want.LastMove)
	}
	for _, name := range []string{"default", "app2"} {
		if _, ok := as[name+":arbitrated"]; !ok {
			t.Fatalf("stats arbiter missing tenant %s: %v", name, as)
		}
		w := want.Tenants[name]
		if as[name+":arbitrated"] != "true" ||
			as[name+":lease_pages"] != strconv.FormatInt(w.LeasePages, 10) ||
			as[name+":reserved_pages"] != strconv.FormatInt(w.ReservedPages, 10) ||
			as[name+":target_bytes"] != strconv.FormatInt(w.TargetBytes, 10) {
			t.Fatalf("tenant %s reads %v, store says %+v", name, as, w)
		}
	}
	// app2's floor is half its 4 MiB registration: 2 pages under the default
	// 1 MiB page geometry.
	if got := as["app2:reserved_pages"]; got != "2" {
		t.Fatalf("app2 reserved_pages = %s, want 2", got)
	}

	// The plain per-tenant stats verb carries the same arbitration fields.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats["reserved_pages"]; got != strconv.FormatInt(want.Tenants["default"].ReservedPages, 10) {
		t.Fatalf("stats reserved_pages = %q, want %d", got, want.Tenants["default"].ReservedPages)
	}
	if got := stats["arbiter_moves"]; got != strconv.FormatInt(want.Moves, 10) {
		t.Fatalf("stats arbiter_moves = %q, want %d", got, want.Moves)
	}
	if _, err := strconv.ParseFloat(stats["marginal_hit_per_byte"], 64); err != nil {
		t.Fatalf("stats marginal_hit_per_byte = %q: %v", stats["marginal_hit_per_byte"], err)
	}
	if _, err := strconv.ParseInt(stats["target_bytes"], 10, 64); err != nil {
		t.Fatalf("stats target_bytes = %q: %v", stats["target_bytes"], err)
	}
}

// TestServerShippedDefaultsKeepWhatFits is the shipped-defaults smoke (the
// daemon's -mode cliffhanger, -tenants default:64, asynchronous bookkeeping)
// over a real socket: 8192 keys of 256 bytes fit the tenant thirty times
// over, so after storing each once every GET must hit, and "stats
// cliffhanger", read through the client and checked against the store's own
// snapshot, must show an algorithm that never had a reason to
// act — pages still free, nothing evicted, no pointer relaxed, both pointers
// home and the partitions even.
func TestServerShippedDefaultsKeepWhatFits(t *testing.T) {
	st := store.New(store.Config{DefaultMode: store.AllocCliffhanger})
	if err := st.RegisterTenant("default", 64<<20); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); st.Close() })
	c := dialTest(t, srv)

	const keys = 8192
	value := make([]byte, 256)
	for i := 0; i < keys; i++ {
		if err := c.Set(fmt.Sprintf("fits-%d", i), value); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		if _, ok, err := c.Get(fmt.Sprintf("fits-%d", i)); err != nil || !ok {
			t.Fatalf("GET %d of a key that was stored and fits: ok=%v err=%v", i, ok, err)
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["get_misses"] != "0" || stats["get_hits"] != strconv.Itoa(keys) {
		t.Fatalf("stats get_hits=%s get_misses=%s, want %d and 0", stats["get_hits"], stats["get_misses"], keys)
	}

	cs, err := c.Stats("cliffhanger")
	if err != nil {
		t.Fatal(err)
	}
	snaps, freeBytes, err := st.QueueSnapshots("default")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for k := range cs {
		if id, ok := strings.CutSuffix(k, ":capacity"); ok {
			ids = append(ids, id)
		}
	}
	freePages, err := cs.Int("free_pages")
	if err != nil || cs["tenant"] != "default" || freePages != freeBytes>>20 || freePages == 0 || len(ids) != 1 {
		t.Fatalf("stats cliffhanger = %v (%v), store says %d bytes free", cs, err, freeBytes)
	}
	for _, id := range ids {
		num := func(field string) int64 {
			t.Helper()
			n, err := cs.Int(id + ":" + field)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		var want core.QueueSnapshot
		for _, s := range snaps {
			if s.ID == id {
				want = s
			}
		}
		capacity, split := num("capacity"), num("split") == 1
		if capacity != want.Capacity || num("used") != want.Used || num("items") != int64(want.Items) ||
			split != want.Split || num("left_pointer") != want.LeftPointer || num("right_capacity") != want.RightCapacity ||
			num("requests") != want.Stats.Requests || num("hits") != want.Stats.Hits || num("resizes") != want.Stats.Resizes {
			t.Fatalf("queue %s reads %v, store says %+v", id, cs, want)
		}
		if num("items") != keys || num("evictions") != 0 || num("relax_events") != 0 || !split || cs[id+":ratio"] != "0.5000" ||
			num("left_pointer") != capacity || num("right_pointer") != capacity ||
			num("left_capacity") != capacity/2 || num("right_capacity") != capacity/2 || num("applied_capacity") != capacity {
			t.Fatalf("queue %s acted on a working set that fits: %v", id, cs)
		}
	}
}

// TestServerSettledHitsProbeNothing runs an all-hit GET loop once per daemon
// mode: once every record's admission has replayed (the first stats call
// settles them), each record remembers its queue node and the replay of a GET
// hit goes through it, the only way a replay reaches a resident entry (no
// class queue indexes resident keys, so there is nothing to probe), and five
// more passes over the keys add five passes of hits. The unmanaged modes'
// queues are core.Queues too and give out nodes like the managed ones.
func TestServerSettledHitsProbeNothing(t *testing.T) {
	for _, mode := range []store.AllocationMode{store.AllocDefault, store.AllocGlobalLRU, store.AllocCliffhanger, store.AllocMemshare} {
		t.Run(mode.String(), func(t *testing.T) {
			st := store.New(store.Config{DefaultMode: mode})
			if err := st.RegisterTenant("default", 64<<20); err != nil {
				t.Fatal(err)
			}
			srv := New(Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close(); st.Close() })
			c := dialTest(t, srv)

			const keys = 1024
			getAll := func() {
				t.Helper()
				for i := 0; i < keys; i++ {
					if _, ok, err := c.Get(fmt.Sprintf("hot-%d", i)); err != nil || !ok {
						t.Fatalf("GET hot-%d: ok=%v err=%v", i, ok, err)
					}
				}
			}
			read := func() (hits, misses int64) {
				t.Helper()
				stats, err := c.Stats()
				if err != nil {
					t.Fatal(err)
				}
				hits, err1 := stats.Int("get_hits")
				misses, err2 := stats.Int("get_misses")
				if err1 != nil || err2 != nil {
					t.Fatalf("stats get_hits=%q get_misses=%q", stats["get_hits"], stats["get_misses"])
				}
				return hits, misses
			}
			for i := 0; i < keys; i++ {
				if err := c.Set(fmt.Sprintf("hot-%d", i), make([]byte, 100)); err != nil {
					t.Fatal(err)
				}
			}
			getAll()
			hits, misses := read()
			for pass := 0; pass < 5; pass++ {
				getAll()
			}
			hitsAfter, missesAfter := read()
			if hitsAfter-hits != 5*keys || missesAfter != misses {
				t.Fatalf("five settled passes over %d keys: %d hits (want %d), get_misses %d -> %d (want flat)",
					keys, hitsAfter-hits, 5*keys, misses, missesAfter)
			}
		})
	}
}

// TestServerTouchMissesProbeNothing runs touches of absent keys once per
// daemon mode: a touch miss is an event with no key, like a GET miss, so its
// replay counts it (cmd_touch moves, touch_hits does not) and touches no
// queue, and the GET counters do not move.
func TestServerTouchMissesProbeNothing(t *testing.T) {
	for _, mode := range []store.AllocationMode{store.AllocDefault, store.AllocGlobalLRU, store.AllocCliffhanger, store.AllocMemshare} {
		t.Run(mode.String(), func(t *testing.T) {
			st := store.New(store.Config{DefaultMode: mode})
			if err := st.RegisterTenant("default", 64<<20); err != nil {
				t.Fatal(err)
			}
			srv := New(Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close(); st.Close() })
			c := dialTest(t, srv)
			read := func() (touches, hits, gets int64) {
				t.Helper()
				stats, err := c.Stats()
				if err != nil {
					t.Fatal(err)
				}
				touches, err1 := stats.Int("cmd_touch")
				hits, err2 := stats.Int("touch_hits")
				gets, err3 := stats.Int("cmd_get")
				if err1 != nil || err2 != nil || err3 != nil {
					t.Fatalf("stats cmd_touch=%q touch_hits=%q cmd_get=%q", stats["cmd_touch"], stats["touch_hits"], stats["cmd_get"])
				}
				return touches, hits, gets
			}
			const keys = 1024
			for i := 0; i < keys; i++ {
				if err := c.Set(fmt.Sprintf("hot-%d", i), make([]byte, 100)); err != nil {
					t.Fatal(err)
				}
			}
			touches, hits, gets := read()
			for i := 0; i < keys; i++ {
				if ok, err := c.Touch(fmt.Sprintf("cold-%d", i), 60); err != nil || ok {
					t.Fatalf("touch cold-%d: ok=%v err=%v", i, ok, err)
				}
			}
			touchesAfter, hitsAfter, getsAfter := read()
			if touchesAfter-touches != keys || hitsAfter != hits || getsAfter != gets {
				t.Fatalf("%d touch misses: cmd_touch +%d, touch_hits +%d, cmd_get %d -> %d (want +%d, +0, flat)",
					keys, touchesAfter-touches, hitsAfter-hits, gets, getsAfter, keys)
			}
		})
	}
}

// TestServerBounceAnswersStored: a SET whose value a slab class holds but its
// full managed tenant cannot (900 KiB into a 512 KiB cliffhanger tenant, at
// shipped defaults) answers STORED, as the daemon has always answered it: a
// bounce is no error in any store. The replay of the SET's own admission
// drops the value before the answer goes out, so the next GET misses.
func TestServerBounceAnswersStored(t *testing.T) {
	st := store.New(store.Config{DefaultMode: store.AllocCliffhanger})
	if err := st.RegisterTenant("default", 512<<10); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); st.Close() })
	c := dialTest(t, srv)
	if err := c.Set("big", make([]byte, 900<<10)); err != nil {
		t.Fatalf("a SET that bounces off its tenant answered %v, want STORED", err)
	}
	if _, ok, err := c.Get("big"); err != nil || ok {
		t.Fatalf("GET after the bounce: ok=%v err=%v, want a miss", ok, err)
	}
	if n, _ := st.Items("default"); n != 0 {
		t.Fatalf("%d records after the bounce, want 0", n)
	}
}

// TestServerSetRacingDeleteIsStored: SETs of one key on one connection race
// DELETEs of the same key on another, 1 000 rounds at two Ps. A DELETE that
// lands between a SET's unlock and the replay of its admission leaves no
// record behind, and the SET still answers STORED: nothing reads a missing
// record as a bounce.
func TestServerSetRacingDeleteIsStored(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	srv, _ := startTestServer(t, store.AllocCliffhanger)
	setter, deleter := dialTest(t, srv), dialTest(t, srv)
	stop := make(chan struct{})
	deleted := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				deleted <- n
				return
			default:
			}
			if ok, err := deleter.Delete("racing"); err != nil {
				t.Errorf("delete: %v", err)
			} else if ok {
				n++
			}
		}
	}()
	value := make([]byte, 100)
	for i := 0; i < 1000; i++ {
		if err := setter.Set("racing", value); err != nil {
			t.Errorf("SET %d racing DELETEs answered %v, want STORED", i, err)
			break
		}
	}
	close(stop)
	t.Logf("%d of 1000 SETs deleted by the racing connection", <-deleted)
}

// TestLatencySampling pins the sampler: per session and per histogram, the
// first command is timed and then every latencySampleEvery-th, whatever the
// other kind of command does in between (SETs and GETs alternate here, which
// one shared counter would turn into "SETs only"); a timed GET records each
// of its keys. Ops is published at the batch boundary.
func TestLatencySampling(t *testing.T) {
	const rounds = 2*latencySampleEvery + 1
	payload := bytes.Repeat([]byte("set k 0 0 1\r\nv\r\nget key-1 key-1\r\n"), rounds)
	c, _ := newGateSession(t, payload)
	srv := c.srv
	for i := 0; i < 2; i++ {
		if !c.step() {
			t.Fatal("session stopped on a healthy command")
		}
	}
	if srv.SetLatency.Count() != 1 || srv.GetLatency.Count() != 2 {
		t.Fatalf("after a session's first SET and first two-key GET: %d SET and %d GET samples, want 1 and 2",
			srv.SetLatency.Count(), srv.GetLatency.Count())
	}
	if srv.Ops.Ops() != 0 {
		t.Fatalf("Ops = %d in the middle of a batch, want 0 until the boundary", srv.Ops.Ops())
	}
	for c.step() {
	}
	if srv.SetLatency.Count() != 3 || srv.GetLatency.Count() != 6 {
		t.Fatalf("after %d SETs and %d two-key GETs: %d SET and %d GET samples, want 3 and 6",
			rounds, rounds, srv.SetLatency.Count(), srv.GetLatency.Count())
	}
	if srv.Ops.Ops() != 2*rounds {
		t.Fatalf("Ops = %d after the batch, want %d", srv.Ops.Ops(), 2*rounds)
	}
}
