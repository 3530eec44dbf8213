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
// reaps connections parked between commands (including half-closed sockets
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
// target_bytes, marginal_hit_per_byte, arbiter_moves), in client.StatsArbiter,
// and on each -stats-json line.
//
// Pass -workers to switch the front end from goroutine-per-connection to
// the event-driven parked model: a fixed worker pool serves whichever
// connections have bytes pending while every idle connection is parked on an
// epoll registration — no goroutine, no buffers — until its next request
// arrives. -conn-buffers bounds the pool of 64 KiB session buffer pairs the
// workers lease (default = -workers), so resident memory is O(active
// sessions) rather than O(connections) and a box can hold hundreds of
// thousands of mostly-idle connections:
//
//	cliffhangerd -addr :11211 -max-conns 200000 -workers 64 -conn-buffers 64
//
// The front end's live state is visible in stats (and on each -stats-json
// tick) as parked_connections, active_sessions, buffer_pool_bytes and
// worker_count. Idle reaping, read/write deadlines and drain semantics are
// identical in both modes; with -workers 0 (the default) the classic
// goroutine-per-connection front end is used.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/server"
	"cliffhanger/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "TCP listen address")
		tenants   = flag.String("tenants", "default:64", "comma-separated name:MB tenant reservations")
		mode      = flag.String("mode", "cliffhanger", "allocation mode: default, cliffhanger, global-lru, memshare")
		arbIntv   = flag.Duration("arbiter-interval", time.Second, "cross-tenant arbiter tick period for memshare mode (0 disables the background arbiter)")
		policy    = flag.String("policy", "lru", "eviction policy for non-cliffhanger modes: lru, lfu, arc, facebook")
		shards    = flag.Int("shards", 0, "value shards per tenant (0 = default)")
		syncBk    = flag.Bool("sync-bookkeeping", false, "apply Cliffhanger bookkeeping inline on the request path (slower, deterministic)")
		statsIntv = flag.Duration("stats-interval", 0, "interval for logging throughput and hit rates (0 disables)")
		statsJSON = flag.String("stats-json", "", "append one JSON stats line per -stats-interval tick to this file (empty disables)")
		pprofAddr = flag.String("pprof-addr", "", "HTTP listen address for net/http/pprof profiling endpoints (empty disables)")

		maxConns     = flag.Int("max-conns", 1024, "max simultaneous connections; extras are shed with SERVER_ERROR (0 = unlimited)")
		workers      = flag.Int("workers", 0, "serve with this many event-driven workers, parking idle connections off goroutines (0 = classic goroutine per connection)")
		connBuffers  = flag.Int("conn-buffers", 0, "bound on pooled 64 KiB session buffer pairs for -workers mode (0 = same as -workers)")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "close connections idle between commands for this long (0 disables)")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "max time to deliver one command once its first byte arrives; tears slow-loris clients (0 disables)")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-write deadline toward the client; unwedges stuck-reader peers (0 disables)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight requests on SIGTERM/SIGINT before forcing connections closed")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "cliffhangerd: ", log.LstdFlags)

	m, err := store.ParseAllocationMode(*mode)
	if err != nil {
		logger.Fatal(err)
	}
	p, ok := cache.ParsePolicyKind(*policy)
	if !ok {
		logger.Fatalf("unknown policy %q", *policy)
	}
	cfg := store.Config{
		DefaultMode:     m,
		DefaultPolicy:   p,
		ValueShards:     *shards,
		SyncBookkeeping: *syncBk,
	}
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
		Workers:       *workers,
		ConnBuffers:   *connBuffers,
	}, st)
	if err := srv.Start(); err != nil {
		logger.Fatal(err)
	}
	if *workers > 0 {
		logger.Printf("listening on %s (max-conns %d, idle-timeout %v, %d event-driven workers)",
			srv.Addr(), *maxConns, *idleTimeout, *workers)
	} else {
		logger.Printf("listening on %s (max-conns %d, idle-timeout %v)", srv.Addr(), *maxConns, *idleTimeout)
	}

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
		if err != nil || mb <= 0 {
			return nil, fmt.Errorf("bad tenant memory in %q", part)
		}
		specs = append(specs, tenantSpec{name: name, mb: mb})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no tenants configured")
	}
	return specs, nil
}

// statsTick is the JSON shape written per -stats-interval tick: one line per
// tick so the file tails and greps like a log but parses like a dataset.
type statsTick struct {
	TS        string    `json:"ts"`
	OpsPerSec float64   `json:"ops_per_sec"`
	GetP99Us  int64     `json:"get_p99_us"`
	SetP99Us  int64     `json:"set_p99_us"`
	Pool      poolStats `json:"page_pool"`
	// The connection front end per tick: how many connections exist, how
	// many are parked off goroutines versus actively holding a session, the
	// bytes resident in the bounded session-buffer pool, and the worker
	// count (zero in classic goroutine-per-connection mode).
	CurrConnections   int64 `json:"curr_connections"`
	ParkedConnections int64 `json:"parked_connections"`
	ActiveSessions    int64 `json:"active_sessions"`
	BufferPoolBytes   int64 `json:"buffer_pool_bytes"`
	WorkerCount       int64 `json:"worker_count"`
	// ArbiterMoves/ArbiterLastMove expose the memshare arbiter's cumulative
	// decision count and most recent transfer (zero/empty outside memshare
	// mode), so a stats-json trail shows when memory moved between tenants.
	ArbiterMoves    int64            `json:"arbiter_moves,omitempty"`
	ArbiterLastMove string           `json:"arbiter_last_move,omitempty"`
	Tenants         []tenantTickStat `json:"tenants"`
}

type poolStats struct {
	TotalPages int64 `json:"total_pages"`
	FreePages  int64 `json:"free_pages"`
}

type tenantTickStat struct {
	Name              string  `json:"name"`
	HitRate           float64 `json:"hit_rate"`
	Requests          int64   `json:"requests"`
	ArenaBytes        int64   `json:"arena_bytes"`
	Occupancy         float64 `json:"occupancy"`
	Epoch             uint64  `json:"epoch"`
	QuarantinedChunks int64   `json:"quarantined_chunks"`
	DeferredFrees     int64   `json:"deferred_frees"`
	LeasePages        int64   `json:"lease_pages"`
	// ReservedPages is the arbiter floor and MarginalHitPerByte the
	// shadow-queue signal the arbiter ranks the tenant by (memshare mode).
	ReservedPages      int64   `json:"reserved_pages,omitempty"`
	MarginalHitPerByte float64 `json:"marginal_hit_per_byte,omitempty"`
}

func logStats(logger *log.Logger, srv *server.Server, st *store.Store, interval time.Duration, jsonOut *os.File) {
	var enc *json.Encoder
	if jsonOut != nil {
		enc = json.NewEncoder(jsonOut)
	}
	for range time.Tick(interval) {
		var parts []string
		var arenaBytes, arenaUsed, arenaTotal int64
		ps := st.PageStats()
		as := st.ArbiterStats()
		cs := srv.ConnStats()
		tick := statsTick{
			TS:                time.Now().UTC().Format(time.RFC3339Nano),
			OpsPerSec:         srv.Ops.Rate(),
			GetP99Us:          srv.GetLatency.Quantile(0.99).Microseconds(),
			SetP99Us:          srv.SetLatency.Quantile(0.99).Microseconds(),
			Pool:              poolStats{TotalPages: ps.TotalPages, FreePages: ps.FreePages},
			ArbiterMoves:      as.Moves,
			ArbiterLastMove:   as.LastMove,
			CurrConnections:   cs.CurrConnections,
			ParkedConnections: cs.ParkedConnections,
			ActiveSessions:    cs.ActiveSessions,
			BufferPoolBytes:   cs.BufferPoolBytes,
			WorkerCount:       cs.WorkerCount,
		}
		for _, name := range st.Tenants() {
			s, err := st.Stats(name)
			if err != nil {
				continue
			}
			dropped, _ := st.DroppedEvents(name)
			parts = append(parts, fmt.Sprintf("%s hit=%.4f req=%d shed=%d pages=%d",
				name, s.HitRate(), s.Requests, dropped, ps.Leases[name]))
			var ab, ub, tb int64
			if classes, err := st.SlabStats(name); err == nil {
				ab, ub, tb = store.SumArenaStats(classes)
				arenaBytes += ab
				arenaUsed += ub
				arenaTotal += tb
			}
			occ := 0.0
			if tb > 0 {
				occ = float64(ub) / float64(tb)
			}
			rs, _ := st.ReclaimStats(name)
			at := as.Tenants[name]
			tick.Tenants = append(tick.Tenants, tenantTickStat{
				Name:               name,
				HitRate:            s.HitRate(),
				Requests:           s.Requests,
				ArenaBytes:         ab,
				Occupancy:          occ,
				Epoch:              rs.Epoch,
				QuarantinedChunks:  rs.QuarantinedChunks,
				DeferredFrees:      rs.DeferredFrees,
				LeasePages:         ps.Leases[name],
				ReservedPages:      at.ReservedPages,
				MarginalHitPerByte: at.MarginalHitPerByte,
			})
		}
		occupancy := 0.0
		if arenaTotal > 0 {
			occupancy = float64(arenaUsed) / float64(arenaTotal)
		}
		logger.Printf("ops/s=%.0f get p99=%v set p99=%v arena=%dMiB occ=%.2f pool=%d/%d | %s",
			srv.Ops.Rate(), srv.GetLatency.Quantile(0.99), srv.SetLatency.Quantile(0.99),
			arenaBytes>>20, occupancy, ps.TotalPages-ps.FreePages, ps.TotalPages,
			strings.Join(parts, " | "))
		if enc != nil {
			if err := enc.Encode(&tick); err != nil {
				logger.Printf("stats-json: %v", err)
			}
		}
	}
}
