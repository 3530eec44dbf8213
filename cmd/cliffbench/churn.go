// churn.go implements the -churn scenario: the runtime tenant lifecycle
// exercised under live load. Four equal phases run over -duration:
//
//	steady   baseline zipf load against the primary tenant
//	create   tenant_create "churn" — a churner starts filling the new tenant
//	shrink   tenant_resize shrinks the primary tenant to 50%, live
//	recover  tenant_resize restores the primary; tenant_delete "churn"
//
// Per-phase hit rates are reported at the end: the shrink phase should show
// a graceful degradation (evictions landing on the zipf tail) and recover
// should climb back toward the steady baseline. Any dropped connection or
// failed request against the primary tenant is fatal — the resize path must
// stay invisible to traffic. The churner expects its tenant to be deleted
// out from under it mid-run, so its errors are tolerated by design.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/protocol"
	"cliffhanger/internal/workload"
)

// churnTenant is the tenant created and deleted mid-run.
const churnTenant = "churn"

var churnPhases = [4]string{"steady", "create", "shrink", "recover"}

type churnConfig struct {
	addr     string
	conns    int
	duration time.Duration
	keys     int
	zipfS    float64
	value    int
	timeout  time.Duration
	seed     int64
	tenant   string
	tenantMB int64
	churnMB  int64
}

func runChurn(logger *log.Logger, cfg churnConfig) {
	if cfg.tenant == "" {
		cfg.tenant = "default"
	}
	if cfg.keys <= 0 {
		cfg.keys = workload.DefaultZipfKeys
	}
	payload := make([]byte, cfg.value)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}

	// Warm the primary tenant so the steady phase measures a settled cache.
	logger.Printf("warming %d keys into %s", cfg.keys, cfg.tenant)
	wc := dial(logger, cfg.addr, cfg.tenant, cfg.timeout)
	keyspace := make([]string, cfg.keys)
	for i := range keyspace {
		keyspace[i] = workload.ZipfKey(i)
	}
	const batch = 512
	for lo := 0; lo < len(keyspace); lo += batch {
		hi := min(lo+batch, len(keyspace))
		if err := wc.PipelineSetOptions(keyspace[lo:hi], payload, 0, 0); err != nil {
			logger.Fatalf("churn warmup: %v", err)
		}
	}
	wc.Close()

	type counters struct{ hits, misses atomic.Int64 }
	var (
		phase    atomic.Int32
		perPhase [4]counters
		wg       sync.WaitGroup
	)
	stop := make(chan struct{})

	// Primary-tenant workers: closed-loop GET with read-through fill. Any
	// error here fails the run — live resize must not drop a request.
	for i := 0; i < cfg.conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := dial(logger, cfg.addr, cfg.tenant, cfg.timeout)
			defer c.Close()
			rng := rand.New(rand.NewSource(cfg.seed + int64(id)))
			z := workload.NewZipf(rng, cfg.zipfS, uint64(cfg.keys))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := workload.ZipfKey(int(z.Uint64()))
				p := phase.Load()
				_, found, err := c.Get(key)
				if err != nil {
					logger.Fatalf("churn: primary get %s: %v", key, err)
				}
				if found {
					perPhase[p].hits.Add(1)
					continue
				}
				perPhase[p].misses.Add(1)
				if err := c.Set(key, payload); err != nil && !errors.Is(err, protocol.ErrRemote) {
					logger.Fatalf("churn: primary fill %s: %v", key, err)
				}
			}
		}(i)
	}

	// Churner: starts once the churn tenant exists and hammers it with a
	// set/get mix. The recover phase deletes the tenant while this
	// connection is mid-traffic, so errors past that point are the expected
	// outcome, not failures.
	churnOn := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-churnOn:
		case <-stop:
			return
		}
		c, err := client.Dial(cfg.addr, cfg.timeout)
		if err != nil {
			logger.Printf("churner dial: %v", err)
			return
		}
		defer c.Close()
		if err := c.SelectTenant(churnTenant); err != nil {
			logger.Printf("churner tenant: %v", err)
			return
		}
		rng := rand.New(rand.NewSource(cfg.seed + 7777))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("churnkey%d", rng.Intn(cfg.keys))
			if i%4 == 0 {
				if err := c.Set(key, payload); err != nil {
					return
				}
			} else if _, _, err := c.Get(key); err != nil {
				return
			}
		}
	}()

	// Controller: one connection drives the lifecycle at phase boundaries.
	ctl := dial(logger, cfg.addr, "", cfg.timeout)
	defer ctl.Close()
	phaseDur := cfg.duration / 4
	start := time.Now()

	logger.Printf("phase steady (%v): baseline against %s", phaseDur, cfg.tenant)
	time.Sleep(phaseDur)

	phase.Store(1)
	if err := ctl.TenantCreate(churnTenant, uint64(cfg.churnMB)); err != nil {
		logger.Fatalf("churn: tenant_create: %v", err)
	}
	close(churnOn)
	logger.Printf("phase create (%v): %s created at %d MiB, churner running", phaseDur, churnTenant, cfg.churnMB)
	time.Sleep(phaseDur)

	phase.Store(2)
	if err := ctl.TenantResize(cfg.tenant, uint64(cfg.tenantMB/2)); err != nil {
		logger.Fatalf("churn: tenant_resize shrink: %v", err)
	}
	logger.Printf("phase shrink (%v): %s resized %d -> %d MiB under load", phaseDur, cfg.tenant, cfg.tenantMB, cfg.tenantMB/2)
	time.Sleep(phaseDur)

	phase.Store(3)
	if err := ctl.TenantResize(cfg.tenant, uint64(cfg.tenantMB)); err != nil {
		logger.Fatalf("churn: tenant_resize restore: %v", err)
	}
	if err := ctl.TenantDelete(churnTenant); err != nil {
		logger.Fatalf("churn: tenant_delete: %v", err)
	}
	logger.Printf("phase recover (%v): %s restored to %d MiB, %s deleted", phaseDur, cfg.tenant, cfg.tenantMB, churnTenant)
	time.Sleep(phaseDur)

	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	var total int64
	for i, name := range churnPhases {
		h, m := perPhase[i].hits.Load(), perPhase[i].misses.Load()
		hr := 0.0
		if h+m > 0 {
			hr = float64(h) / float64(h+m)
		}
		total += h + m
		fmt.Printf("phase %-8s gets=%-9d hit_rate=%.4f\n", name, h+m, hr)
	}
	fmt.Printf("churn: ops=%d ops/s=%.0f phases=%d conns=%d (no request failed against %s)\n",
		total, float64(total)/elapsed.Seconds(), len(churnPhases), cfg.conns, cfg.tenant)
}
