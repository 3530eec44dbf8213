package main

// The connection-scale scenario (-conn-rate): instead of driving throughput
// through a handful of connections, it holds open -conns mostly-idle
// connections — ramped up at -conn-rate dials per second, each proving it
// took the full request path once before going quiet — while a small hot
// cohort keeps doing closed-loop GETs. It reports the hot cohort's p50/p99
// and ops/s next to the server's resident bytes per connection
// (mem_inuse_bytes / curr_connections from the stats verb). An idle
// connection holds no session buffers, only its goroutine, so -conns-gate
// requires at most maxIdleBytesPerConn of it and zero failed requests; the
// hot cohort's numbers are printed, not gated.

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/metrics"
)

type connsConfig struct {
	addr     string
	conns    int
	rate     float64
	hot      int
	keys     int
	value    int
	duration time.Duration
	timeout  time.Duration
	seed     int64
	jsonPath string
	gate     bool
}

// maxIdleBytesPerConn is -conns-gate's bound on the server's resident bytes
// per connection: 8x under the ~137 KB of a connection that keeps its two
// 64 KiB session buffers while idle.
const maxIdleBytesPerConn = 16 << 10

// connsRun is the record -conns-json writes.
type connsRun struct {
	Benchmark         string  `json:"benchmark"`
	Date              string  `json:"date"`
	Connections       int64   `json:"connections"`
	ParkedConnections int64   `json:"parked_connections"`
	ActiveSessions    int64   `json:"active_sessions"`
	BufferPoolBytes   int64   `json:"buffer_pool_bytes"`
	MemInuseBytes     int64   `json:"mem_inuse_bytes"`
	BytesPerConn      int64   `json:"bytes_per_conn"`
	HotConns          int     `json:"hot_conns"`
	HotOps            int64   `json:"hot_ops"`
	HotOpsPerSec      float64 `json:"hot_ops_per_sec"`
	HotP50Us          int64   `json:"hot_p50_us"`
	HotP99Us          int64   `json:"hot_p99_us"`
	FailedRequests    int64   `json:"failed_requests"`
	RampSeconds       float64 `json:"ramp_seconds"`
}

func runConns(logger *log.Logger, cfg connsConfig) {
	if cfg.keys <= 0 {
		cfg.keys = 4096
	}
	if cfg.hot <= 0 {
		cfg.hot = 32
	}
	if cfg.rate <= 0 {
		logger.Fatal("-conn-rate must be > 0")
	}

	ctl := dial(logger, cfg.addr, "", cfg.timeout)
	defer ctl.Close()
	run := &connsRun{Benchmark: "connscale", HotConns: cfg.hot}
	logger.Printf("connscale: ramping %d conns at %.0f/s", cfg.conns, cfg.rate)

	// Preload the hot cohort's keyspace once so every measured GET is a hit.
	payload := make([]byte, cfg.value)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	hotKeys := make([]string, cfg.keys)
	for i := range hotKeys {
		hotKeys[i] = fmt.Sprintf("cs-%d", i)
	}
	if err := ctl.PipelineSet(hotKeys, payload); err != nil {
		logger.Fatalf("preload: %v", err)
	}

	var failed atomic.Int64

	// Ramp: each idle connection proves it traversed the full request path
	// once (a version round trip), then goes silent, which puts its session
	// back in the server's pool. The absolute schedule (conn i dials at
	// start + i/rate) keeps the offered ramp honest even when individual
	// round trips are slow; a small dialer pool absorbs the latency.
	idle := make([]net.Conn, cfg.conns)
	rampStart := time.Now()
	dialers := 16
	if dialers > cfg.conns {
		dialers = cfg.conns
	}
	var wg sync.WaitGroup
	for d := 0; d < dialers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := d; i < cfg.conns; i += dialers {
				due := rampStart.Add(time.Duration(float64(i) / cfg.rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				conn, err := net.DialTimeout("tcp", cfg.addr, cfg.timeout)
				if err != nil {
					failed.Add(1)
					continue
				}
				conn.SetDeadline(time.Now().Add(cfg.timeout))
				if _, err := conn.Write([]byte("version\r\n")); err != nil {
					failed.Add(1)
					conn.Close()
					continue
				}
				if _, err := conn.Read(buf); err != nil {
					failed.Add(1)
					conn.Close()
					continue
				}
				conn.SetDeadline(time.Time{})
				idle[i] = conn
			}
		}(d)
	}
	wg.Wait()
	rampTook := time.Since(rampStart)
	defer func() {
		for _, c := range idle {
			if c != nil {
				c.Close()
			}
		}
	}()
	logger.Printf("connscale: ramp done in %v (%d failed)", rampTook.Round(time.Millisecond), failed.Load())

	// Steady state: the hot cohort hammers closed-loop GETs while the idle
	// mass sits parked.
	var hist metrics.LatencyHistogram
	var hotOps atomic.Int64
	stop := make(chan struct{})
	for h := 0; h < cfg.hot; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			c, err := client.Dial(cfg.addr, cfg.timeout)
			if err != nil {
				failed.Add(1)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(cfg.seed + int64(h)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Misses are demand-filled like the main load test: a
				// cliffhanger-mode tenant starts with a small real cache and
				// grows it through bookkeeping, so early GETs legitimately
				// miss. Only transport errors count against the gate.
				key := hotKeys[rng.Intn(len(hotKeys))]
				t0 := time.Now()
				_, ok, err := c.Get(key)
				if err != nil {
					if failed.Add(1) <= 3 {
						logger.Printf("connscale: hot get %s: %v", key, err)
					}
					return
				}
				hist.Record(time.Since(t0))
				hotOps.Add(1)
				if !ok {
					if err := c.Set(key, payload); err != nil {
						if failed.Add(1) <= 3 {
							logger.Printf("connscale: hot fill %s: %v", key, err)
						}
						return
					}
					hotOps.Add(1)
				}
			}
		}(h)
	}
	measured := cfg.duration
	time.Sleep(measured)

	// Read the server's view while everything is still connected: the idle
	// mass parked, the hot cohort mid-flight.
	if err := readFrontEnd(ctl, run); err != nil {
		logger.Fatalf("stats: %v", err)
	}
	close(stop)
	wg.Wait()

	run.HotOps = hotOps.Load()
	run.HotOpsPerSec = float64(run.HotOps) / measured.Seconds()
	run.HotP50Us = hist.Quantile(0.50).Microseconds()
	run.HotP99Us = hist.Quantile(0.99).Microseconds()
	run.FailedRequests = failed.Load()
	run.RampSeconds = rampTook.Seconds()
	if run.Connections > 0 {
		run.BytesPerConn = run.MemInuseBytes / run.Connections
	}
	logger.Printf("connscale: %d conns (%d parked), %d B/conn, hot p50=%dus p99=%dus (%.0f ops/s), %d failed",
		run.Connections, run.ParkedConnections, run.BytesPerConn,
		run.HotP50Us, run.HotP99Us, run.HotOpsPerSec, run.FailedRequests)

	if cfg.jsonPath != "" {
		run.Date = time.Now().UTC().Format(time.RFC3339)
		out, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			logger.Fatal(err)
		}
		if err := os.WriteFile(cfg.jsonPath, append(out, '\n'), 0o644); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("connscale: wrote %s", cfg.jsonPath)
	}

	if cfg.gate {
		if run.FailedRequests > 0 {
			logger.Fatalf("connscale gate: %d failed requests, want 0", run.FailedRequests)
		}
		if run.BytesPerConn > maxIdleBytesPerConn {
			logger.Fatalf("connscale gate: %d B/conn, want <= %d", run.BytesPerConn, maxIdleBytesPerConn)
		}
		logger.Printf("connscale gate: PASS (%d B/conn <= %d)", run.BytesPerConn, maxIdleBytesPerConn)
	}
}

// readFrontEnd fills run's server-side fields from one plain "stats" reply.
func readFrontEnd(ctl *client.Client, run *connsRun) error {
	st, err := ctl.Stats()
	if err != nil {
		return err
	}
	for name, dst := range map[string]*int64{
		"curr_connections":   &run.Connections,
		"parked_connections": &run.ParkedConnections,
		"active_sessions":    &run.ActiveSessions,
		"buffer_pool_bytes":  &run.BufferPoolBytes,
		"mem_inuse_bytes":    &run.MemInuseBytes,
	} {
		if *dst, err = st.Int(name); err != nil {
			return err
		}
	}
	return nil
}
