package client_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/server"
	"cliffhanger/internal/store"
)

func startServer(t *testing.T) *server.Server {
	t.Helper()
	st := store.New(store.Config{DefaultMode: store.AllocCliffhanger})
	if err := st.RegisterTenant("default", 8<<20); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterTenant("app2", 4<<20); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return srv
}

func dial(t *testing.T, srv *server.Server) *client.Client {
	t.Helper()
	c, err := client.Dial(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientRoundTrip(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)

	if _, ok, err := c.Get("nothing"); err != nil || ok {
		t.Fatalf("get of missing key: ok=%v err=%v", ok, err)
	}
	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	if err := c.Set("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c.Get("k"); string(v) != "v2" {
		t.Fatalf("update not visible: %q", v)
	}
	if deleted, err := c.Delete("k"); err != nil || !deleted {
		t.Fatalf("delete = %v %v", deleted, err)
	}
	if deleted, _ := c.Delete("k"); deleted {
		t.Fatalf("second delete should report NOT_FOUND")
	}
	if ver, err := c.Version(); err != nil || !strings.HasPrefix(ver, "cliffhanger") {
		t.Fatalf("version = %q %v", ver, err)
	}
}

func TestClientTenantVerb(t *testing.T) {
	srv := startServer(t)
	c1 := dial(t, srv)
	c2 := dial(t, srv)

	if err := c1.Set("shared", []byte("from-default")); err != nil {
		t.Fatal(err)
	}
	if err := c2.SelectTenant("app2"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c2.Get("shared"); ok {
		t.Fatalf("tenant isolation broken")
	}
	if err := c2.Set("shared", []byte("from-app2")); err != nil {
		t.Fatal(err)
	}
	stats, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["tenant"] != "app2" {
		t.Fatalf("stats tenant = %q", stats["tenant"])
	}
	if err := c2.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c2.Get("shared"); ok {
		t.Fatalf("flush_all did not clear tenant")
	}
	if v, _, _ := c1.Get("shared"); string(v) != "from-default" {
		t.Fatalf("default tenant affected by app2 flush: %q", v)
	}
}

// TestClientTenantPendingLargeBatch: a PipelineSet that overflows the 64 KiB
// writer several times while a selection is pending. The tenant line leaves
// with the first overflow and its acknowledgement waits in the socket until
// the batch's own flush reads it, ahead of the STORED lines; every key must
// land in the selected tenant and none in the default one.
func TestClientTenantPendingLargeBatch(t *testing.T) {
	srv := startServer(t)
	c, other := dial(t, srv), dial(t, srv)
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("big-%d", i)
	}
	if err := c.SelectTenant("app2"); err != nil {
		t.Fatal(err)
	}
	if err := c.PipelineSet(keys, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{keys[0], keys[len(keys)-1]} {
		if v, ok, err := c.Get(k); err != nil || !ok || len(v) != 1024 {
			t.Fatalf("%s in app2: %d bytes, %v, %v", k, len(v), ok, err)
		}
		if _, ok, err := other.Get(k); err != nil || ok {
			t.Fatalf("%s in default: found=%v err=%v, want a miss", k, ok, err)
		}
	}
}

func TestClientPipelinedBatches(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)

	keys := make([]string, 50)
	for i := range keys {
		keys[i] = fmt.Sprintf("pipe-%d", i)
	}
	if err := c.PipelineSet(keys, []byte("batched")); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	err := c.PipelineGetFunc(append(keys[:10:10], "missing-1", "missing-2"), func(_ int, k []byte, _ uint32, _ uint64, v []byte) {
		got[string(k)] = string(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("pipelined get returned %d values, want 10", len(got))
	}
	for _, k := range keys[:10] {
		if got[k] != "batched" {
			t.Fatalf("%s = %q", k, got[k])
		}
	}
	// The connection must be ready for normal request/response traffic
	// straight after a pipelined batch.
	if err := c.Set("after", []byte("x")); err != nil {
		t.Fatal(err)
	}
	multi := 0
	err = c.GetMultiFunc([]string{"pipe-1", "after"}, false, func([]byte, uint32, uint64, []byte) { multi++ })
	if err != nil || multi != 2 {
		t.Fatalf("GetMultiFunc streamed %d values, err %v", multi, err)
	}
}

// TestClientStreamingGetFuncs covers the callback GET APIs: PipelineGetFunc
// must report the exact request index of every VALUE block (including
// duplicates and with misses interleaved), and GetMultiFunc must stream a
// single multi-key command with CAS tokens when asked.
func TestClientStreamingGetFuncs(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)

	if err := c.SetWithOptions("s1", []byte("one"), 7, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWithOptions("s2", []byte("two"), 8, 0); err != nil {
		t.Fatal(err)
	}

	type hit struct {
		i     int
		key   string
		value string
		flags uint32
	}
	var got []hit
	keys := []string{"s1", "missing", "s2", "s1"}
	err := c.PipelineGetFunc(keys, func(i int, key []byte, flags uint32, cas uint64, value []byte) {
		// key and value alias client buffers: copy before retaining.
		got = append(got, hit{i, string(key), string(value), flags})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []hit{{0, "s1", "one", 7}, {2, "s2", "two", 8}, {3, "s1", "one", 7}}
	if len(got) != len(want) {
		t.Fatalf("callbacks = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("callback %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// GetMultiFunc with CAS: one gets command, tokens present.
	var tokens int
	err = c.GetMultiFunc([]string{"s1", "s2", "missing"}, true, func(key []byte, flags uint32, cas uint64, value []byte) {
		if cas != 0 {
			tokens++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if tokens != 2 {
		t.Fatalf("saw %d CAS tokens, want 2", tokens)
	}

	// Zero keys: no round trip, no error, and the connection stays in sync.
	if err := c.GetMultiFunc(nil, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.PipelineGetFunc(nil, nil); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("s1"); err != nil || !ok || string(v) != "one" {
		t.Fatalf("get after streaming calls = %q %v %v", v, ok, err)
	}
}

func TestClientMalformedLineErrors(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)

	// An over-long key draws CLIENT_ERROR, surfaced as an error.
	long := strings.Repeat("k", 300)
	if _, err := c.Delete(long); err == nil {
		t.Fatalf("over-long key should error")
	}
	// The connection stays usable afterwards.
	if err := c.Set("ok", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Drive raw malformed lines over a plain TCP connection and verify the
	// server reports CLIENT_ERROR for each without dropping the session.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	for _, line := range []string{
		"bogusverb a b\r\n",
		"get\r\n",
		"set onlytwo 0\r\n",
		// A storage command with a bad header still announces its data
		// block; the server consumes it before reporting the error, so the
		// payload must ride along with the malformed line.
		"set k notanumber 0 5\r\nhello\r\n",
	} {
		if _, err := conn.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("no response to %q: %v", line, err)
		}
		if !strings.HasPrefix(resp, "CLIENT_ERROR") {
			t.Fatalf("response to %q = %q, want CLIENT_ERROR", line, resp)
		}
	}
	// And a well-formed command still works on the same raw connection.
	if _, err := conn.Write([]byte("version\r\n")); err != nil {
		t.Fatal(err)
	}
	resp, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(resp, "VERSION") {
		t.Fatalf("version after errors = %q %v", resp, err)
	}
}

// TestClientVerbRoundTrips exercises the new verbs end to end through the
// client API: add/replace, append/prepend, gets/cas, touch and incr/decr.
func TestClientVerbRoundTrips(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)

	if stored, err := c.Add("k", []byte("base"), 3, 0); err != nil || !stored {
		t.Fatalf("add = %v %v", stored, err)
	}
	if stored, _ := c.Add("k", []byte("again"), 0, 0); stored {
		t.Fatalf("second add should not store")
	}
	if stored, err := c.Replace("k", []byte("base2"), 3, 0); err != nil || !stored {
		t.Fatalf("replace = %v %v", stored, err)
	}
	if ok, err := c.Append("k", []byte(".end")); err != nil || !ok {
		t.Fatalf("append = %v %v", ok, err)
	}
	if ok, err := c.Prepend("k", []byte("start.")); err != nil || !ok {
		t.Fatalf("prepend = %v %v", ok, err)
	}
	data, flags, cas, ok, err := c.Gets("k")
	if err != nil || !ok {
		t.Fatalf("gets = %v %v", ok, err)
	}
	if string(data) != "start.base2.end" || flags != 3 || cas == 0 {
		t.Fatalf("gets = %q flags=%d cas=%d", data, flags, cas)
	}
	if st, err := c.Cas("k", []byte("swapped"), 0, 0, cas); err != nil || st != client.CasStored {
		t.Fatalf("cas with fresh token = %v %v", st, err)
	}
	if st, _ := c.Cas("k", []byte("stale"), 0, 0, cas); st != client.CasExists {
		t.Fatalf("cas with stale token = %v", st)
	}
	if st, _ := c.Cas("ghost", []byte("x"), 0, 0, 1); st != client.CasNotFound {
		t.Fatalf("cas of missing key = %v", st)
	}
	if ok, err := c.Touch("k", 300); err != nil || !ok {
		t.Fatalf("touch = %v %v", ok, err)
	}
	if ok, _ := c.Touch("ghost", 300); ok {
		t.Fatalf("touch of missing key should be false")
	}

	if err := c.Set("n", []byte("41")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := c.Incr("n", 1); err != nil || !found || v != 42 {
		t.Fatalf("incr = %d %v %v", v, found, err)
	}
	if v, found, err := c.Decr("n", 100); err != nil || !found || v != 0 {
		t.Fatalf("decr = %d %v %v", v, found, err)
	}
	if _, found, err := c.Incr("ghost", 1); err != nil || found {
		t.Fatalf("incr of missing key = %v %v", found, err)
	}
	if _, _, err := c.Incr("k", 1); err == nil {
		t.Fatalf("incr of non-numeric value should error")
	}
}
