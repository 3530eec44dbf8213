package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"cliffhanger/internal/store"
)

// newGateSession builds a session over an in-memory command stream, backed by
// a synchronous-bookkeeping store (the deterministic mode: every structural
// event applies inline, so nothing is amortized away into a background
// drain). reset rewinds the stream so each AllocsPerRun iteration replays the
// same command.
func newGateSession(t *testing.T, payload []byte) (c *session, reset func()) {
	t.Helper()
	st := store.New(store.Config{
		DefaultMode:     store.AllocCliffhanger,
		SyncBookkeeping: true,
	})
	t.Cleanup(func() { st.Close() })
	if err := st.RegisterTenant("default", 64<<20); err != nil {
		t.Fatal(err)
	}
	if err := st.SetItemBytes("default", []byte("key-1"), make([]byte, 128), 7, 0); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{DefaultTenant: "default"}, st)
	br := bytes.NewReader(payload)
	r := bufio.NewReaderSize(br, 64<<10)
	c = newSession(srv, r, bufio.NewWriterSize(io.Discard, 64<<10))
	reset = func() {
		br.Reset(payload)
		r.Reset(br)
	}
	return c, reset
}

// TestAllocGateServerGet is the hot-path allocation gate (run by `make
// alloccheck` and CI): a steady-state single-key GET through the full
// protocol parse + server handler + store lookup + response write performs
//
//   - 0 heap allocations on a hit (the zero-copy parser, the VALUE response
//     streamed from the epoch-pinned arena view, and the byte-keyed store
//     lookup reusing the record's interned key), and
//   - 0 on a miss too (the lookup event carries no key).
func TestAllocGateServerGet(t *testing.T) {
	c, reset := newGateSession(t, []byte("get key-1\r\n"))
	step := func() {
		reset()
		if !c.step() {
			t.Fatal("session stopped on a healthy GET")
		}
	}
	step() // warm the parser and scratch buffers
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady-state GET hit allocates %.2f objects/op, want 0", allocs)
	}

	c, reset = newGateSession(t, []byte("get no-such-key\r\n"))
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady-state GET miss allocates %.2f objects/op, want 0 (the miss event carries no key)", allocs)
	}
}

// TestAllocGateServerGetRun is the same gate for a pipelined run: 64 GET
// lines arriving in one segment are served by one step (one tenant resolve,
// one epoch pin) with 0 allocations per command, for hits and for misses.
func TestAllocGateServerGetRun(t *testing.T) {
	const depth = 64
	for _, tc := range []struct{ name, line string }{
		{"hit", "get key-1\r\n"},
		{"miss", "get no-such-key\r\n"},
	} {
		c, reset := newGateSession(t, bytes.Repeat([]byte(tc.line), depth))
		step := func() {
			reset()
			if !c.step() {
				t.Fatalf("session stopped on a healthy run of GET %ss", tc.name)
			}
			if n := c.r.Buffered(); n != 0 {
				t.Fatalf("one step left %d bytes of a %d-deep run of GET %ss buffered", n, depth, tc.name)
			}
		}
		step()
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("a %d-deep run of GET %ss allocates %.2f objects, want 0", depth, tc.name, allocs)
		}
	}
}

// TestAllocGateServerSet pins the SET floor through the same full path: with
// the slab arena a steady-state re-set allocates NOTHING — the value bytes
// are copied from the parse buffer into the record's recycled chunk under
// the shard lock, and the record and interned key are reused.
func TestAllocGateServerSet(t *testing.T) {
	c, reset := newGateSession(t, []byte("set key-1 7 0 128\r\n"+string(make([]byte, 128))+"\r\n"))
	step := func() {
		reset()
		if !c.step() {
			t.Fatal("session stopped on a healthy SET")
		}
	}
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady-state SET allocates %.2f objects/op, want 0 (chunk and record recycled)", allocs)
	}
}

// TestAllocGateServerAppend pins append through the full protocol path: the
// concatenation is assembled into a fresh chunk popped from the freelist
// (copy-on-write, so pinned readers never see a torn value) while the old
// chunk cycles through quarantine back to the freelist, so a re-set+append
// command pair allocates nothing.
func TestAllocGateServerAppend(t *testing.T) {
	payload := "set key-1 7 0 128\r\n" + string(make([]byte, 128)) + "\r\n" +
		"append key-1 0 0 16\r\n" + string(make([]byte, 16)) + "\r\n"
	c, reset := newGateSession(t, []byte(payload))
	step := func() {
		reset()
		if !c.step() || !c.step() {
			t.Fatal("session stopped on a healthy SET+APPEND")
		}
	}
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady-state SET+APPEND allocates %.2f objects/op, want 0 (in-chunk assembly)", allocs)
	}
}

// TestAllocGateServerTenantSwitch pins what a multi-tenant client costs the
// server: it switches tenant ahead of almost every command, so a switch
// between two registered tenants followed by a GET hit in each allocates
// nothing through parser, handler and store — the name is parsed in place
// and the session keeps the registry's own string.
func TestAllocGateServerTenantSwitch(t *testing.T) {
	c, reset := newGateSession(t, []byte("tenant app2\r\nget key-1\r\ntenant default\r\nget key-1\r\n"))
	st := c.srv.store
	if err := st.RegisterTenant("app2", 8<<20); err != nil {
		t.Fatal(err)
	}
	if err := st.SetItemBytes("app2", []byte("key-1"), make([]byte, 64), 0, 0); err != nil {
		t.Fatal(err)
	}
	step := func() {
		reset()
		for i := 0; i < 4; i++ {
			if !c.step() {
				t.Fatal("session stopped on a healthy tenant switch")
			}
		}
		if c.tenant != "default" {
			t.Fatalf("session ends the round on tenant %q, want default", c.tenant)
		}
	}
	step()
	for _, name := range []string{"default", "app2"} {
		if ts, err := st.Stats(name); err != nil || ts.Hits != 1 || ts.Misses != 0 {
			t.Fatalf("tenant %s after one round: %+v, %v; want one hit", name, ts, err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("two tenant switches and two GET hits allocate %.2f objects, want 0", allocs)
	}
}

// TestSessionClosesOnOversizedLine pins the anti-desync rule for command
// lines past protocol.MaxLineLength: such a line may have been a storage
// command whose announced data block is still unread, so the session must
// answer CLIENT_ERROR and close instead of executing payload bytes as
// commands. Lines merely longer than the read buffer (large multigets) must
// still be served.
func TestSessionClosesOnOversizedLine(t *testing.T) {
	st := store.New(store.Config{
		DefaultMode:     store.AllocCliffhanger,
		SyncBookkeeping: true,
	})
	t.Cleanup(func() { st.Close() })
	if err := st.RegisterTenant("default", 8<<20); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{DefaultTenant: "default"}, st)

	// Over-cap storage header followed by a payload that must NOT run.
	pad := bytes.Repeat([]byte(" "), 1<<21)
	input := append([]byte("set k 0 0 5"), pad...)
	input = append(input, []byte("\r\nhello\r\nversion\r\n")...)
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	c := newSession(srv, bufio.NewReaderSize(bytes.NewReader(input), 4096), w)
	if c.step() {
		t.Fatalf("session must close after an over-cap line")
	}
	w.Flush()
	if got := out.String(); !bytes.HasPrefix([]byte(got), []byte("CLIENT_ERROR")) || bytes.Contains([]byte(got), []byte("VERSION")) {
		t.Fatalf("over-cap line response = %q", got)
	}

	// An unparseable <bytes> field is equally fatal: the announced data
	// block cannot be located, so the payload must not execute as commands.
	out.Reset()
	w = bufio.NewWriter(&out)
	c = newSession(srv, bufio.NewReaderSize(bytes.NewReader([]byte("set k 0 0 5x\r\nflush_all\r\n")), 4096), w)
	if c.step() {
		t.Fatalf("session must close on an unparseable bytes field")
	}
	w.Flush()
	if got := out.String(); !bytes.HasPrefix([]byte(got), []byte("CLIENT_ERROR")) {
		t.Fatalf("bad bytes response = %q", got)
	}

	// A large (but under-cap) multiget still works end to end.
	if err := st.SetItemBytes("default", []byte("mk-7"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	var get bytes.Buffer
	get.WriteString("get")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&get, " mk-%d", i)
	}
	get.WriteString("\r\n")
	out.Reset()
	w = bufio.NewWriter(&out)
	c = newSession(srv, bufio.NewReaderSize(bytes.NewReader(get.Bytes()), 4096), w)
	if !c.step() {
		t.Fatalf("large multiget must keep the session open")
	}
	w.Flush()
	if got := out.String(); got != "VALUE mk-7 0 1\r\nv\r\nEND\r\n" {
		t.Fatalf("large multiget response = %q", got)
	}
}

// TestSessionStreamedMultiGet checks the streamed (no []Value buffering)
// multi-key GET writes byte-identical responses: present keys emit VALUE
// blocks in request order, absent keys are skipped, END terminates.
func TestSessionStreamedMultiGet(t *testing.T) {
	st := store.New(store.Config{
		DefaultMode:     store.AllocCliffhanger,
		SyncBookkeeping: true,
	})
	t.Cleanup(func() { st.Close() })
	if err := st.RegisterTenant("default", 8<<20); err != nil {
		t.Fatal(err)
	}
	if err := st.SetItemBytes("default", []byte("a"), []byte("one"), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.SetItemBytes("default", []byte("b"), []byte("two"), 2, 0); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{DefaultTenant: "default"}, st)
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	c := newSession(srv, bufio.NewReader(bytes.NewReader([]byte("get b missing a\r\ngets a\r\n"))), w)
	if !c.step() || !c.step() {
		t.Fatal("session stopped early")
	}
	w.Flush()
	// CAS tokens are per value shard, so each of the two keys carries token 1.
	want := "VALUE b 2 3\r\ntwo\r\nVALUE a 1 3\r\none\r\nEND\r\n" +
		"VALUE a 1 3 1\r\none\r\nEND\r\n"
	if got := out.String(); got != want {
		t.Fatalf("streamed response = %q, want %q", got, want)
	}
}
