package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliffhanger/internal/store"
)

// TestServerTenantAdminConformance exercises the tenant lifecycle verbs over
// a raw connection: exact replies for the happy paths and the documented
// error shapes for duplicate create, resize/delete of an unknown tenant, and
// malformed argument lines (which must not desync the connection).
func TestServerTenantAdminConformance(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocCliffhanger)
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
	expectPrefix := func(prefix string) {
		t.Helper()
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading response (want %s...): %v", prefix, err)
		}
		if got := strings.TrimRight(line, "\r\n"); !strings.HasPrefix(got, prefix) {
			t.Fatalf("response = %q, want prefix %q", got, prefix)
		}
	}

	// Create, use, resize, delete: the happy path.
	send("tenant_create app9 16\r\n")
	expect("OK")
	send("tenant app9\r\n")
	expect("TENANT")
	send("set k 0 0 5\r\nhello\r\n")
	expect("STORED")
	send("get k\r\n")
	expect("VALUE k 0 5", "hello", "END")
	send("tenant_resize app9 8\r\n")
	expect("OK")
	send("get k\r\n")
	expect("VALUE k 0 5", "hello", "END")

	// Error cases: each reply is one line and the connection stays usable.
	send("tenant_create app9 16\r\n") // duplicate
	expectPrefix("SERVER_ERROR")
	send("tenant_resize ghost 8\r\n") // unknown tenant
	expectPrefix("SERVER_ERROR")
	send("tenant_delete ghost\r\n") // unknown tenant
	expectPrefix("SERVER_ERROR")
	send("tenant_create app10\r\n") // missing size
	expectPrefix("CLIENT_ERROR")
	send("tenant_create app10 0\r\n") // zero size
	expectPrefix("CLIENT_ERROR")
	send("tenant_create app10 1099511627776\r\n") // size out of int64<<20 range
	expectPrefix("CLIENT_ERROR")
	send("tenant_resize app9\r\n") // missing size
	expectPrefix("CLIENT_ERROR")
	send("tenant_delete\r\n") // missing name
	expectPrefix("CLIENT_ERROR")

	// Delete the live tenant this connection has selected: subsequent
	// traffic fails with SERVER_ERROR, other verbs still work.
	send("tenant_delete app9\r\n")
	expect("OK")
	send("set k2 0 0 1\r\nx\r\n")
	expectPrefix("SERVER_ERROR")
	send("version\r\n")
	expectPrefix("VERSION")
}

// TestServerTenantDeleteWithInFlightTraffic deletes a tenant while client
// connections are mid-traffic against it. Before the delete every request
// must succeed; after it, requests fail with in-band errors (never a torn
// connection), and the tenant's pages drain back to the process pool.
func TestServerTenantDeleteWithInFlightTraffic(t *testing.T) {
	srv, st := startTestServer(t, store.AllocCliffhanger)
	ctl := dialTest(t, srv)
	if err := ctl.TenantCreate("victim", 16); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var (
		deleting atomic.Bool
		started  sync.WaitGroup
		wg       sync.WaitGroup
	)
	stop := make(chan struct{})
	started.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := dialTest(t, srv)
			if err := c.SelectTenant("victim"); err != nil {
				t.Errorf("worker %d: select: %v", id, err)
				started.Done()
				return
			}
			val := []byte(strings.Repeat("v", 200))
			first := true
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-k%d", id, i%512)
				err := c.Set(key, val)
				if err == nil {
					_, _, err = c.Get(key)
				}
				if first {
					first = false
					started.Done()
				}
				if err != nil {
					if !deleting.Load() {
						t.Errorf("worker %d: request failed before delete: %v", id, err)
					}
					return // in-band failure after delete is the expected end
				}
			}
		}(w)
	}
	started.Wait()

	deleting.Store(true)
	if err := ctl.TenantDelete("victim"); err != nil {
		t.Fatalf("tenant_delete: %v", err)
	}
	// Workers exit on their first post-delete error; unstick any that raced.
	time.AfterFunc(2*time.Second, func() { close(stop) })
	wg.Wait()

	// The teardown drains quarantine and returns every leased page.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := st.PageStats().Leases["victim"]; n == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("victim still leases %d pages after delete", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, name := range st.Tenants() {
		if name == "victim" {
			t.Fatal("deleted tenant still registered")
		}
	}
}

// TestServerTenantResizeUnderLoad shrinks a hot tenant to half its
// reservation while connections replay a closed-loop set/get load against
// it. No request may fail and no connection may drop; afterwards the
// tenant's page leases must have come down to the shrunken footprint.
func TestServerTenantResizeUnderLoad(t *testing.T) {
	srv, st := startTestServer(t, store.AllocCliffhanger)
	ctl := dialTest(t, srv)
	if err := ctl.TenantCreate("hot", 16); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := dialTest(t, srv)
			if err := c.SelectTenant("hot"); err != nil {
				t.Errorf("worker %d: select: %v", id, err)
				return
			}
			val := []byte(strings.Repeat("x", 700))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-k%d", id, i%4096)
				if err := c.Set(key, val); err != nil {
					t.Errorf("worker %d: set during resize: %v", id, err)
					return
				}
				if _, _, err := c.Get(key); err != nil {
					t.Errorf("worker %d: get during resize: %v", id, err)
					return
				}
			}
		}(w)
	}

	// Let the tenant heat up past half its reservation, then shrink live.
	deadline := time.Now().Add(5 * time.Second)
	for st.PageStats().Leases["hot"] < 9 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if err := ctl.TenantResize("hot", 8); err != nil {
		t.Fatalf("tenant_resize: %v", err)
	}
	// The resize executes incrementally on the maintenance tick: wait for the
	// lease count to reach the shrunken target (plus the documented
	// anti-thrash slack) while traffic keeps flowing.
	deadline = time.Now().Add(20 * time.Second)
	for {
		leases := st.PageStats().Leases["hot"]
		if leases <= 8+2+15 { // ceil(8MiB/1MiB) + slack + one page per class ceiling
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hot still leases %d pages long after shrinking to 8 MiB", leases)
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}
