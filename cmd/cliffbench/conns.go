package main

// The connection-scale scenario (-conn-rate): instead of driving throughput
// through a handful of connections, it holds open -conns mostly-idle
// connections — ramped up at -conn-rate dials per second, each proving it
// took the full request path once before going quiet — while a small hot
// cohort keeps doing closed-loop GETs. It reports the hot cohort's p50/p99
// next to the server's resident bytes per connection (mem_inuse_bytes /
// curr_connections from the stats verb), which is the number the parked
// front end exists to shrink: idle connections should cost an epoll
// registration, not a goroutine and two 64 KiB buffers.
//
// Runs append to -conns-json keyed by front-end mode (classic/parked, read
// from the server's worker_count), so driving the same scenario at a
// -workers 0 daemon and a -workers N daemon builds one comparable record;
// once both modes are present the file carries their idle-bytes-per-conn
// ratio and -conns-gate enforces the >= 8x reduction.

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

// connsRun is one mode's measured record inside BENCH_conns.json.
type connsRun struct {
	Mode              string  `json:"mode"`
	Workers           int64   `json:"workers"`
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

type connsReport struct {
	Benchmark        string               `json:"benchmark"`
	Date             string               `json:"date"`
	Runs             map[string]*connsRun `json:"runs"`
	IdleBytesRatio   float64              `json:"idle_bytes_per_conn_ratio,omitempty"`
	RatioObservation string               `json:"observation,omitempty"`
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
	run := &connsRun{Mode: "classic", HotConns: cfg.hot}
	if err := readFrontEnd(ctl, run); err != nil {
		logger.Fatalf("stats: %v", err)
	}
	if run.Workers > 0 {
		run.Mode = "parked"
	}
	logger.Printf("connscale: %s front end (%d workers), ramping %d conns at %.0f/s",
		run.Mode, run.Workers, cfg.conns, cfg.rate)

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
	// once (a version round trip through admission and a worker), then goes
	// silent, which is what hands it to the poller in parked mode. The
	// absolute schedule (conn i dials at start + i/rate) keeps the offered
	// ramp honest even when individual round trips are slow; a small dialer
	// pool absorbs the latency.
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
	// mass sits parked; their latency shows whether the event-driven front
	// end keeps busy connections on the fast path.
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

	report := mergeConnsReport(logger, cfg.jsonPath, run)

	if cfg.gate {
		if run.FailedRequests > 0 {
			logger.Fatalf("connscale gate: %d failed requests, want 0", run.FailedRequests)
		}
		classic, parked := report.Runs["classic"], report.Runs["parked"]
		if classic == nil || parked == nil {
			logger.Fatal("connscale gate: need both a classic and a parked run in the report")
		}
		if report.IdleBytesRatio < 8 {
			logger.Fatalf("connscale gate: idle bytes/conn ratio %.1fx (classic %d / parked %d), want >= 8x",
				report.IdleBytesRatio, classic.BytesPerConn, parked.BytesPerConn)
		}
		logger.Printf("connscale gate: PASS (%.1fx bytes/conn reduction)", report.IdleBytesRatio)
	}
}

// readFrontEnd fills run's server-side fields from one plain "stats" reply.
func readFrontEnd(ctl *client.Client, run *connsRun) error {
	st, err := ctl.Stats()
	if err != nil {
		return err
	}
	for name, dst := range map[string]*int64{
		"worker_count":       &run.Workers,
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

// mergeConnsReport folds this run into the JSON report, keyed by mode, and
// recomputes the classic/parked ratio when both halves are present.
func mergeConnsReport(logger *log.Logger, path string, run *connsRun) *connsReport {
	report := &connsReport{Benchmark: "connscale", Runs: map[string]*connsRun{}}
	if path == "" {
		report.Runs[run.Mode] = run
		finishConnsReport(report)
		return report
	}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, report); err != nil {
			logger.Printf("connscale: ignoring unparsable %s: %v", path, err)
			report = &connsReport{Benchmark: "connscale", Runs: map[string]*connsRun{}}
		}
		if report.Runs == nil {
			report.Runs = map[string]*connsRun{}
		}
	}
	report.Date = time.Now().UTC().Format(time.RFC3339)
	report.Runs[run.Mode] = run
	finishConnsReport(report)
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		logger.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("connscale: wrote %s", path)
	return report
}

func finishConnsReport(report *connsReport) {
	classic, parked := report.Runs["classic"], report.Runs["parked"]
	if classic == nil || parked == nil || parked.BytesPerConn <= 0 {
		return
	}
	report.IdleBytesRatio = float64(classic.BytesPerConn) / float64(parked.BytesPerConn)
	report.RatioObservation = fmt.Sprintf(
		"Idle connections cost %d B resident under goroutine-per-connection and %d B under the "+
			"event-driven parked front end (%.1fx): parking releases the goroutine stack and both "+
			"64 KiB session buffers, leaving an epoll registration and a ~200 B conn record.",
		classic.BytesPerConn, parked.BytesPerConn, report.IdleBytesRatio)
}
