// Command cliffhangerd serves the multi-tenant Cliffhanger cache over TCP
// using the memcached text protocol.
//
// Example:
//
//	cliffhangerd -addr :11211 -tenants default:64,app2:32 -mode cliffhanger
//
// Overload behavior is governed by the connection-lifecycle flags
// (memcached's -c / idle-timeout surface):
//
//	cliffhangerd -addr :11211 -max-conns 4096 -idle-timeout 5m \
//	    -read-timeout 30s -write-timeout 30s -drain-timeout 10s
//
// A connection past -max-conns is answered "SERVER_ERROR too many
// connections" and closed — the daemon sheds load at the accept edge rather
// than letting the kernel backlog time clients out invisibly. -idle-timeout
// reaps connections idle between commands (including half-closed sockets
// whose FIN never arrived); -read-timeout bounds delivery of a single
// command once its first byte arrives, so a slow-loris client dribbling a
// storage payload tears only its own connection; -write-timeout unwedges
// sessions stuck writing to a peer that stopped reading. The shed/reaped
// totals are visible in stats as rejected_connections and conn_timeouts,
// next to curr_connections, total_connections and conn_panics.
//
// On SIGTERM or SIGINT the daemon drains instead of dropping: it stops
// accepting, lets every session finish answering its in-flight pipelined
// batch, and flushes bookkeeping, forcing stragglers closed only when
// -drain-timeout expires. Every request accepted before the signal is
// answered on a clean drain.
//
// In -mode memshare the per-tenant partitions become fluid: a background
// arbiter compares every tenant's shadow-queue marginal hit-rate-per-byte
// each -arbiter-interval and migrates one page from the tenant whose memory
// is doing the least good to the one whose would do the most, never shrinking
// anyone below half its configured reservation. To watch it work, start two
// tenants with equal shares, drive a hot workload at one, and poll the
// arbiter stats:
//
//	cliffhangerd -addr :11211 -mode memshare -tenants hot:32,cold:32 &
//	cliffbench -addr 127.0.0.1:11211 -tenant hot -duration 2m &
//	while sleep 5; do
//	    printf 'stats arbiter\r\nquit\r\n' | nc 127.0.0.1 11211 \
//	        | grep -E 'arbiter_moves|lease_pages'
//	done
//
// The hot tenant's lease_pages climbs tick by tick (and cold's falls toward
// its reserved_pages floor) while arbiter_moves counts the transfers; the
// same numbers appear in the plain "stats" verb (reserved_pages,
// target_bytes, marginal_hit_per_byte, arbiter_moves), in
// client.Stats("arbiter"), and on each -stats-json line.
//
// -stats-interval logs one line per tick: the commands served per second
// over that tick, then each tenant's hit rate, shed GET events, leased pages
// and arena occupancy. -stats-json (which needs -stats-interval) appends the
// same tick as one JSON object: "ts", "interval_ops_per_sec", "tenants" (each
// tenant's plain "stats" group) and "arbiter" (the "stats arbiter" group),
// every group a name-to-value object of the strings the stats verb sends.
// The verb's own ops_per_sec is the average since the daemon started.
//
// One goroutine serves each connection, but a connection holds its 64 KiB
// session buffers only while it has a batch to answer: between batches its
// goroutine waits in the runtime's netpoller and the buffers go back to a
// pool, so an idle connection costs a few KiB (its goroutine's stack) and a
// box can hold a great many mostly-idle ones:
//
//	cliffhangerd -addr :11211 -max-conns 200000 -idle-timeout 10m
//
// The front end's live state is visible in stats (and on each -stats-json
// tick) as parked_connections (waiting with no session), active_sessions
// (sessions leased) and buffer_pool_bytes (every session built, leased or
// pooled).
//
// Pass -pprof-addr to expose the net/http/pprof profiling endpoints on a
// side HTTP listener, e.g.:
//
//	cliffhangerd -addr :11211 -pprof-addr :6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// Clients speak the standard memcached text verbs — get/gets, set, add,
// replace, append, prepend, cas, touch, incr/decr, delete, stats,
// flush_all — plus the non-standard "tenant <name>" verb to select an
// application on the connection. Items set with an exptime expire lazily on
// access and are reclaimed by a background reaper folded into each tenant's
// bookkeeper.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cliffhanger/internal/protocol"
	"cliffhanger/internal/server"
	"cliffhanger/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "TCP listen address")
		tenants   = flag.String("tenants", "default:64", "comma-separated name:MB tenant reservations")
		mode      = flag.String("mode", "cliffhanger", "allocation mode: default, cliffhanger, global-lru, memshare")
		arbIntv   = flag.Duration("arbiter-interval", time.Second, "cross-tenant arbiter tick period for memshare mode (0 disables the background arbiter)")
		statsIntv = flag.Duration("stats-interval", 0, "interval for logging throughput and hit rates (0 disables)")
		statsJSON = flag.String("stats-json", "", "append one JSON stats line per -stats-interval tick to this file (empty disables)")
		pprofAddr = flag.String("pprof-addr", "", "HTTP listen address for net/http/pprof profiling endpoints (empty disables)")

		maxConns     = flag.Int("max-conns", 1024, "max simultaneous connections; extras are shed with SERVER_ERROR (0 = unlimited)")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "close connections idle between commands for this long (0 disables)")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "max time to deliver one command once its first byte arrives; tears slow-loris clients (0 disables)")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-write deadline toward the client; unwedges stuck-reader peers (0 disables)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight requests on SIGTERM/SIGINT before forcing connections closed")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "cliffhangerd: ", log.LstdFlags)
	if *statsJSON != "" && *statsIntv <= 0 {
		logger.Fatal("-stats-json needs -stats-interval: it records one line per tick")
	}

	m, err := store.ParseAllocationMode(*mode)
	if err != nil {
		logger.Fatal(err)
	}
	cfg := store.Config{DefaultMode: m}
	if m == store.AllocMemshare {
		cfg.Arbiter = store.ArbiterConfig{Interval: *arbIntv}
	}
	st := store.New(cfg)
	specs, err := parseTenants(*tenants)
	if err != nil {
		logger.Fatal(err)
	}
	defaultTenant := specs[0].name
	for _, t := range specs {
		if err := st.RegisterTenant(t.name, t.mb<<20); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("tenant %s: %d MiB, mode %s", t.name, t.mb, m)
	}

	srv := server.New(server.Config{
		Addr:          *addr,
		DefaultTenant: defaultTenant,
		Logger:        logger,
		MaxConns:      *maxConns,
		IdleTimeout:   *idleTimeout,
		ReadTimeout:   *readTimeout,
		WriteTimeout:  *writeTimeout,
	}, st)
	if err := srv.Start(); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("listening on %s (max-conns %d, idle-timeout %v)", srv.Addr(), *maxConns, *idleTimeout)

	if *pprofAddr != "" {
		go func() {
			logger.Printf("pprof listening on %s (/debug/pprof/)", *pprofAddr)
			logger.Printf("pprof server exited: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	if *statsIntv > 0 {
		var jsonOut *os.File
		if *statsJSON != "" {
			jsonOut, err = os.OpenFile(*statsJSON, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				logger.Fatal(err)
			}
			defer jsonOut.Close()
		}
		go logStats(logger, srv, st, *statsIntv, jsonOut)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	logger.Printf("draining (timeout %v)", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Shutdown answers every in-flight request, then flushes and closes the
	// store; it reports the ctx error if stragglers had to be forced closed.
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	cs := srv.ConnStats()
	logger.Printf("drained cleanly (served %d connections, rejected %d, timed out %d)",
		cs.TotalConnections, cs.RejectedConnections, cs.ConnTimeouts)
}

type tenantSpec struct {
	name string
	mb   int64
}

func parseTenants(s string) ([]tenantSpec, error) {
	var specs []tenantSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, mbStr, found := strings.Cut(part, ":")
		if !found || name == "" {
			return nil, fmt.Errorf("bad tenant spec %q, want name:MB", part)
		}
		mb, err := strconv.ParseInt(mbStr, 10, 64)
		if err != nil || mb <= 0 || mb > server.MaxTenantMB {
			return nil, fmt.Errorf("bad tenant memory in %q, want 1 to %d MB", part, server.MaxTenantMB)
		}
		specs = append(specs, tenantSpec{name: name, mb: mb})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no tenants configured")
	}
	return specs, nil
}

// tick is one -stats-interval record and one -stats-json line: the commands
// served per second since the previous tick, then every tenant's plain stats
// group and the arbiter group, name to value as the stats verb renders them.
type tick struct {
	TS                string                       `json:"ts"`
	IntervalOpsPerSec float64                      `json:"interval_ops_per_sec"`
	Tenants           map[string]map[string]string `json:"tenants"`
	Arbiter           map[string]string            `json:"arbiter"`
}

// ticker renders ticks. It keeps the command count and time of the last one,
// which the interval rate is measured from.
type ticker struct {
	srv  *server.Server
	st   *store.Store
	ops  int64
	last time.Time
}

func (t *ticker) next(now time.Time) tick {
	ops := t.srv.Ops.Ops()
	tk := tick{TS: now.UTC().Format(time.RFC3339Nano), Tenants: make(map[string]map[string]string)}
	if secs := now.Sub(t.last).Seconds(); secs > 0 {
		tk.IntervalOpsPerSec = float64(ops-t.ops) / secs
	}
	t.ops, t.last = ops, now
	for _, name := range t.st.Tenants() {
		// A tenant deleted since Tenants() has no group; it is left out.
		if g, err := t.srv.Stats(name); err == nil {
			tk.Tenants[name] = byName(g)
		}
	}
	g, _ := t.srv.Stats("", "arbiter") // needs no tenant, cannot fail
	tk.Arbiter = byName(g)
	return tk
}

func byName(stats []protocol.Stat) map[string]string {
	m := make(map[string]string, len(stats))
	for _, s := range stats {
		m[s.Name] = s.Value
	}
	return m
}

// logLine is the -stats-interval log line: the interval rate, the sampled
// latency p99s and the page pool (process-wide, so read from any tenant's
// group), then each tenant's hit rate, GETs, shed GET events, leased pages,
// arena bytes and arena occupancy.
func (tk *tick) logLine() string {
	names := make([]string, 0, len(tk.Tenants))
	for n := range tk.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "ops/s=%.0f", tk.IntervalOpsPerSec)
	if len(names) > 0 {
		g := tk.Tenants[names[0]]
		fmt.Fprintf(&b, " get p99=%sus set p99=%sus pool free=%s/%s",
			g["get_p99_us"], g["set_p99_us"], g["page_pool_free"], g["page_pool_total"])
	}
	for _, n := range names {
		g := tk.Tenants[n]
		fmt.Fprintf(&b, " | %s hit=%s req=%s shed=%s pages=%s arena=%s occ=%s", n,
			g["hit_rate"], g["cmd_get"], g["dropped_events"], g["lease_pages"], g["arena_bytes"], g["arena_occupancy"])
	}
	return b.String()
}

func logStats(logger *log.Logger, srv *server.Server, st *store.Store, interval time.Duration, jsonOut *os.File) {
	var enc *json.Encoder
	if jsonOut != nil {
		enc = json.NewEncoder(jsonOut)
	}
	t := ticker{srv: srv, st: st, ops: srv.Ops.Ops(), last: time.Now()}
	for now := range time.Tick(interval) {
		tk := t.next(now)
		logger.Print(tk.logLine())
		if enc != nil {
			if err := enc.Encode(&tk); err != nil {
				logger.Printf("stats-json: %v", err)
			}
		}
	}
}
