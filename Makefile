GO ?= go

.PHONY: build test race race4 stable benchcheck benchquick vet fmt count bench bins conformance fits alloccheck fuzz replay churn verify arbiter chaos drain connscale profile clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race4 exercises the epoch-reclamation races (pin vs retire vs reclaim) with
# real parallelism; CI runs this as its own lane. The whole store package
# runs, so the footprint tests (TestArenaLeasesFollowResidency and its
# twenty-tenant Memcachier form, TestArenaQuarantineBoundedInBytes) race the
# maintenance tick's reclaim here too, and four producers storm one tenant's
# event buffers past the high-water mark while requests sweep them
# (TestBacklogBoundedUnderOverload). internal/core rides along for the
# keeps-what-fits property, whose store-level twins are in here. The second
# line repeats the concurrent arena storm (TestArenaConservationConcurrent)
# twenty times (~15 s on two CPUs): one run is not enough to see a chunk
# retired while a write still copies from it (with setLocked freeing the old
# value before the copy, two single runs in three passed and twenty
# iterations failed three). The third line runs the store package again in
# the arena's poison mode (-tags arenapoison): a retired chunk no pin covers
# is reclaimed the moment it is freed and overwritten with a poison pattern,
# so a read after retire fails every time instead of one run in many
# (setLocked retiring the old value before the copy fails
# TestStoreVerbSemantics on every run; Reader.Get without its pin fails
# TestArenaRunReadersVsFrees). Both store lines run the differential oracle:
# FuzzStoreMatchesReference's seed corpus (a synchronous store against a naive
# reference cache, every mode within capacity and both unmanaged modes under
# eviction pressure, the reference keeping the store's hit window) and
# TestStoreMatchesReferenceAsync, its asynchronous twin, and the hit window's
# own two: TestOnlyFrontHitsSkip (a GET hit that emits no event finds its key
# in a front segment) and TestUnpromotedHitsAreCounted (every settled reader
# counts the hits served within their window), the second also asynchronous,
# where the window is read by requests while sweeps publish it. The fourth line is the tenant switch on both
# sides of the socket: the client's deferred tenant line against scripted
# and real servers, the server's one-write answer, and the two switch alloc
# gates. On internal/server it
# also runs the wait/lease cycle (TestPark*: a spurious wake leases, reads
# nothing and waits again), the lazy deadlines (TestGoverned*: a stale
# deadline that fires early is re-armed, and a command whose start arrived
# behind another's is cut at the command deadline) and a run of GETs that
# holds its one epoch pin across the writer's mid-run flushes while writers
# re-set and delete its keys (TestGetRunPinnedAcrossFlushes; its store-level
# twin, TestArenaRunReadersVsFrees, rides in the store line).
race4:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/store/... ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -count=20 -run 'TestArenaConservationConcurrent$$' ./internal/store/
	GOMAXPROCS=4 $(GO) test -race -count=1 -tags arenapoison ./internal/store/...
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'Tenant' ./internal/client/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'Tenant|TestPark|TestGoverned|TestGetRun' ./internal/server/

# stable is the flake hunt for the packages with real concurrency (in
# internal/store that includes the asynchronous halves of the
# leases-follow-residency tests, whose page counts depend on when the
# maintenance tick reclaims), plus internal/core for the keeps-what-fits
# property and internal/client for the scripted-listener tests, which count the segments a
# request arrives in: 20 runs each at one, two and four Ps (CI runs it on
# demand, not on every push).
stable:
	@set -e; for p in 1 2 4; do \
		echo "stable: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -count=20 ./internal/server/ ./internal/netpoll/ ./internal/store/ ./internal/core/ ./internal/client/; \
	done

# benchcheck compiles and tests bench/, the repository benchmark. It is its
# own module, so `go build ./... && go test ./...` at the root never sees it;
# this is what catches a store or server API change that would break it.
benchcheck:
	cd bench && $(GO) vet . && $(GO) test .

# benchquick drives a daemon built from this tree with the benchmark's own
# traffic: all four workloads for about 2 s each over real sockets. It exits
# non-zero on any wrong byte, failed operation or unclean SIGTERM drain, so a
# change that breaks the daemon under that traffic fails here and not in the
# benchmark run. The numbers it prints are not comparable with full runs.
benchquick:
	bash bench/run.sh -quick

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# count prints the numbers ROADMAP tracks for aim 2, so a re-anchor reads them
# instead of recounting by hand: non-blank Go lines per package with the
# _test.go share in parentheses, the package count, the accounting plane's
# surface, the non-test `wc -l` figures ROADMAP quotes (the replay side:
# internal/sim + internal/workload + cmd/cliffbench, with its exported
# identifiers, last) and the daemon's flag definitions. "Exported" counts
# top-level declarations, methods, struct fields and const-block entries of
# the non-test files, by their gofmt shape.
NONTEST = ls $(1) | grep -v _test.go
count:
	@for d in $$(find cmd internal bench -name '*.go' -printf '%h\n' | sort -u); do \
		printf '%-26s %6d (%d)\n' $$d $$(cat $$d/*.go | grep -c .) $$(cat $$d/*_test.go 2>/dev/null | grep -c .); done
	@echo "whole repo: $$(find . -name '*.go' | xargs cat | grep -c .) non-blank Go lines, $$(find . -name '*.go' ! -name '*_test.go' | xargs cat | grep -c .) of them non-test"
	@echo "packages: $$($(GO) list ./... | wc -l), plus bench/ (its own module)"
	@echo "exported *Store methods: $$(grep -hE '^func \(s \*Store\) [A-Z]' $$($(call NONTEST,internal/store/*.go)) | wc -l)"
	@echo "partitionPolicy methods: $$(sed -n '/^type partitionPolicy interface/,/^}/p' internal/store/policy.go | grep -cE '^[[:blank:]][a-z][A-Za-z]*\(')"
	@echo "partitionPolicy implementations: $$(grep -hoE '^func \(p \*[A-Za-z]+\) resize\(' internal/store/*.go | wc -l)"
	@echo "policy.go: $$(wc -l < internal/store/policy.go) lines (wc -l)"
	@echo "non-test wc -l, internal/store + internal/core + internal/slab: $$($(call NONTEST,internal/store/*.go internal/core/*.go internal/slab/*.go) | xargs cat | wc -l)"
	@echo "exported identifiers, internal/slab + internal/core: $$($(call NONTEST,internal/slab/*.go internal/core/*.go) | xargs cat | grep -cE '^(func (\([^)]*\) )?|type |[[:blank:]])[A-Z][A-Za-z0-9]*[ (,]')"
	@echo "non-test wc -l, internal/server + internal/client + internal/protocol + cmd/cliffhangerd + cmd/cliffbench: $$($(call NONTEST,internal/server/*.go internal/client/*.go internal/protocol/*.go cmd/cliffhangerd/*.go cmd/cliffbench/*.go) | xargs cat | wc -l)"
	@echo "exported identifiers, internal/client + internal/server + internal/protocol: $$($(call NONTEST,internal/client/*.go internal/server/*.go internal/protocol/*.go) | xargs cat | grep -cE '^(func (\([^)]*\) )?|type |[[:blank:]])[A-Z][A-Za-z0-9]*[ (,]')"
	@echo "non-test wc -l, internal/cache: $$($(call NONTEST,internal/cache/*.go) | xargs cat | wc -l)"
	@echo "exported identifiers, internal/cache: $$($(call NONTEST,internal/cache/*.go) | xargs cat | grep -cE '^(func (\([^)]*\) )?|type |[[:blank:]])[A-Z][A-Za-z0-9]*[ (,]')"
	@echo "exported identifiers, internal/store: $$($(call NONTEST,internal/store/*.go) | xargs cat | grep -cE '^(func (\([^)]*\) )?|type |[[:blank:]])[A-Z][A-Za-z0-9]*[ (,]')"
	@echo "non-test wc -l, internal/sim + internal/workload + cmd/cliffbench: $$($(call NONTEST,internal/sim/*.go internal/workload/*.go cmd/cliffbench/*.go) | xargs cat | wc -l)"
	@echo "exported identifiers, internal/sim + internal/workload: $$($(call NONTEST,internal/sim/*.go internal/workload/*.go) | xargs cat | grep -cE '^(func (\([^)]*\) )?|type |[[:blank:]])[A-Z][A-Za-z0-9]*[ (,]')"
	@echo "cliffhangerd flags: $$(grep -cE 'flag\.[A-Z][A-Za-z0-9]*\("' cmd/cliffhangerd/main.go)"

# conformance walks every verb over a real socket, checks that a
# tenant-switching batch is answered in order and in a single write, and that
# the connection finds its tenant again after parking between batches, then
# runs the shipped-defaults smoke: a -mode cliffhanger,
# default:64 store is loaded with 8192 keys that fit thirty times over, and
# `stats` must report no miss and `stats cliffhanger` no eviction, no relaxed
# pointer and even partitions. Then the stats schema: every group's field
# names, in wire order, for a fixed store state. Last, settled GET hits at
# shipped defaults all hit, each replay going through the queue node its
# record remembers (no class queue indexes resident keys), and touches of
# absent keys, whose events carry no key, move only the touch counters.
conformance:
	$(GO) test -count=1 -run 'TestServerProtocolConformance|TestServerShippedDefaultsKeepWhatFits|TestServerStatsSchema|TestServerSettledHitsProbeNothing|TestServerTouchMissesProbeNothing' -v ./internal/server/

# fits repeats the keeps-what-fits tests where they used to flake: the
# store-level twins (a load that fits evicts nothing, a fill of twice the
# reservation ends up holding it, sync and async) and the grant that splits a
# queue, 200 times at one and at two Ps and 20 times at four under the race
# detector (one race iteration is 17 s on a 2-CPU box, so 200 would be an
# hour). The asynchronous twin failed about one full-suite run in thirty until
# PR 21 (the bookkeeper replaying admissions in another order reached a grant
# that left the key without room); here it gets 420 tries on every push. The
# three apply-regime tests ride along (one maintenance goroutine per store,
# the producer sweep and its bound, the backlog bound under overload): at one
# and two Ps a request's sweep and the maintenance tick interleave differently.
# So does the stale-node test: GETs, deletes, expiries and re-sets whose
# records' queue nodes go stale, or whose admissions are still pending, behind
# a held bookkeeper lock must settle to what a synchronous store holds, and so
# does the asynchronous run of the differential oracle. The
# next two pin one settle per critical section: a flush_all of 100 000 records
# moves inline_applies and producer_sweeps by at most one per shard, and an
# add that sheds a dead record past the high-water mark applies once. The last
# three hold the hit window: a GET hit that emits no event finds its key in a
# front segment, under eviction pressure with hill climbing and cliff scaling
# on, in a synchronous store; an asynchronous one, whose buffered events can
# still move the key, skips outside one at most one time in twenty; and
# every reader of a settled tenant (its hits, the per-class and queue hits,
# the arbiter's) counts the hits served within their window, sync and async.
FITS = TestColdLoadThatFitsEvictsNothing|TestWriteChurnMissesOnlyAfterDelete|TestColdFillUsesTheBudget|TestGrantThatSplitsAQueueStillMakesRoom|TestOneMaintenanceGoroutine|TestProducerSweepsAtTheBatchBoundary|TestBacklogBoundedUnderOverload|TestStaleNodesThroughStore|TestStoreMatchesReferenceAsync|TestFlushIsNotOverload|TestOneSectionSettlesOnce|TestOnlyFrontHitsSkip|TestFrontHitsSkipAsync|TestUnpromotedHitsAreCounted
FITS_COUNT ?= 200
FITS_RACE_COUNT ?= 20
fits:
	GOMAXPROCS=1 $(GO) test -timeout 30m -count=$(FITS_COUNT) -run '$(FITS)' ./internal/store/
	GOMAXPROCS=2 $(GO) test -timeout 30m -count=$(FITS_COUNT) -run '$(FITS)' ./internal/store/
	GOMAXPROCS=4 $(GO) test -timeout 30m -race -count=$(FITS_RACE_COUNT) -run '$(FITS)' ./internal/store/

# alloccheck runs the testing.AllocsPerRun gates that pin the hot-path
# allocation floors (a batch boundary's session release, netpoller wait and
# lease = 0 amortized; GetItemView hit = 0 through protocol+server+store with
# the value streamed zero-copy from an epoch-pinned arena view; GetItemView
# miss = 0 — the lookup event carries no key; a 64-deep pipelined run of GET
# hits, and one of misses, = 0 per command (one tenant resolve, one pin);
# SetItemBytes, cross-class re-set and AppendBytes/PrependBytes = 0 — value
# chunks recycled through the slab arena, item records pooled per shard;
# through protocol+server+store every other write verb, touch and delete = 0
# per command (replace, add of a present key, cas with the current and a
# stale token, touch hit and miss, incr and decr, delete: the key reaches the
# store as the parser's bytes, a touch miss's event carries no key and the
# number of incr/decr is formatted on the stack);
# SetItemBytes+Delete churn <= 1; the bookkeeper's sweep = 0 — buffers stolen
# and handed back, ordered in kept scratch — and so is an asynchronous GET
# loop whose own requests sweep at the batch boundary (with the hit window at
# 0, so that every hit emits), and so is a GET hit within its window, which
# emits nothing and is counted in its shard, sync and async; streaming client
# pipelined GET <= 1 amortized over a real socket; a tenant switch between registered
# tenants = 0 in the server, switch + GET <= 1 through client and server; in a
# full, split class queue a hit = 0 through the remembered node that a
# replayed GET hit carries, and an evicting admission <= 1, the victims it
# returns). An accidental allocation on the mutation path fails the
# build, not a future benchmark run.
alloccheck:
	$(GO) test -count=1 -run 'TestAllocGate' -v ./internal/server/ ./internal/store/ ./internal/client/ ./internal/core/

# fuzz gives each protocol fuzz target a short budget; CI runs the seed
# corpus via plain `go test`.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParser$$ -fuzztime=20s ./internal/protocol/
	$(GO) test -run=NONE -fuzz=FuzzParserPipelineSync -fuzztime=20s ./internal/protocol/
	$(GO) test -run=NONE -fuzz=FuzzNextGet -fuzztime=20s ./internal/protocol/

bench:
	$(GO) test -run=NONE -bench=BenchmarkStoreGetSet -benchmem ./internal/store/
	$(GO) test -run=NONE -bench=BenchmarkStoreReadMostly -benchmem ./internal/store/
	$(GO) test -run=NONE -bench=BenchmarkStoreWriteHeavy -benchmem ./internal/store/
	$(GO) test -run=NONE -bench=BenchmarkServerPipelined -benchmem ./internal/server/

bins:
	$(GO) build -o bin/cliffhangerd ./cmd/cliffhangerd
	$(GO) build -o bin/cliffbench ./cmd/cliffbench

# replay is the trace-replay smoke: boot cliffhangerd with the Memcachier
# tenant layout and drive it with the synthetic Memcachier trace for a couple
# of seconds (CI runs this after the unit suites).
replay: bins
	@set -e; \
	addr=127.0.0.1:13219; \
	tenants=$$(./bin/cliffbench -trace memcachier -print-tenants); \
	./bin/cliffhangerd -addr $$addr -tenants $$tenants & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	sleep 1; \
	./bin/cliffbench -addr $$addr -trace memcachier -duration 2s -pipeline 8

# churn is the tenant-lifecycle smoke: boot cliffhangerd, then run the
# cliffbench churn scenario — tenant_create mid-run, a live 50% shrink of the
# loaded tenant, restore, tenant_delete — reporting per-phase hit rates. Any
# failed request or dropped connection against the primary tenant fails the
# run.
churn: bins
	@set -e; \
	addr=127.0.0.1:13221; \
	./bin/cliffhangerd -addr $$addr -tenants default:64 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	sleep 1; \
	./bin/cliffbench -addr $$addr -churn -duration 8s -conns 4 -keys 60000 -value 900 -tenant-mb 64 -churn-mb 32

# verify cross-checks a wire replay against internal/sim for the same seeded
# Memcachier trace, in the shipped mode and in both unmanaged modes a daemon
# can start (stock memcached and global LRU), and for the facebook generator,
# whose keys change value size from one request to the next: both halves run
# sim.Replay, and their results must be equal in every count, per class
# included (also covered by the Go tests TestCrossCheckMemcachierSimVsWire and
# TestCrossCheckFacebookSimVsWire).
verify: bins
	./bin/cliffbench -trace memcachier -verify -requests 100000 -scale 0.25
	./bin/cliffbench -trace memcachier -verify -requests 100000 -scale 0.25 -mode default
	./bin/cliffbench -trace memcachier -verify -requests 100000 -scale 0.25 -mode global-lru
	./bin/cliffbench -trace facebook -verify -requests 100000

# arbiter is the memshare smoke: the default/cliffhanger/memshare
# head-to-head on the Memcachier trace with every app naively granted an
# equal partition. The gate fails unless memshare's wire aggregate beats the
# cliffhanger static split, every mode's sim-vs-wire agreement and
# conservation audit holding along the way; the store-level convergence and
# thrash proofs run under the race detector first. The report goes under the
# git-ignored .bench_build/, not into a tracked file.
arbiter: bins
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestArbiter|TestPlanArbiterMove' -v ./internal/store/
	mkdir -p .bench_build
	./bin/cliffbench -trace memcachier -scale 0.25 -hitrate-json .bench_build/hitrate.json -hitrate-gate

# chaos runs the fault-injection suite under the race detector with real
# parallelism: the connection governor, graceful drain and chaos proxy are
# driven through resets mid-payload, slow-loris dribbles, half-closed
# sockets, accept storms and panicking handlers, asserting no panics, no
# goroutine leaks, exact arena conservation and zero failed requests for the
# healthy cohort. Every connection parks in the netpoller without a session
# between batches; there is one wait path, so each scenario runs once.
chaos:
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestChaos' ./internal/server/
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/chaos/ ./internal/client/

# drain is the graceful-shutdown smoke: SIGTERM a live cliffhangerd while
# cliffbench hammers it through the chaos proxy. The daemon must exit 0
# (clean drain within -drain-timeout, every accepted in-flight request
# answered) and cliffbench must retire its workers gracefully.
drain: bins
	@set -e; \
	addr=127.0.0.1:13223; \
	./bin/cliffhangerd -addr $$addr -tenants default:64 -drain-timeout 10s & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	sleep 1; \
	./bin/cliffbench -addr $$addr -duration 30s -conns 4 -keys 20000 \
		-chaos 'latency=200us,chunk=64,reset-prob=0.00002' -tolerate-faults & bench=$$!; \
	sleep 3; \
	kill -TERM $$pid; \
	if wait $$pid; then echo "drain: daemon exited cleanly"; else \
		echo "drain: daemon failed to drain cleanly"; exit 1; fi; \
	wait $$bench || true

# connscale is the connection-scale smoke: hold CONNS mostly-idle
# connections against a daemon at shipped defaults (plus no connection cap and
# a long idle timeout), a hot cohort measuring p50/p99 and ops/s all the while,
# and write the run to the git-ignored .bench_build/conns.json. The gate
# requires zero failed requests and at most 16 KiB resident per connection:
# an idle connection holds its goroutine but no session buffers.
CONNS ?= 10000
CONN_RATE ?= 2000
connscale: bins
	@set -e; \
	addr=127.0.0.1:13225; \
	mkdir -p .bench_build; \
	./bin/cliffhangerd -addr $$addr -tenants default:64 -max-conns 0 -idle-timeout 10m & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	sleep 1; \
	./bin/cliffbench -addr $$addr -conns $(CONNS) -conn-rate $(CONN_RATE) -duration 3s -conns-json .bench_build/conns.json -conns-gate

# profile is how a performance change's ledger hypothesis is measured (the
# replayed GET hit's second queue probe, core.(*Queue).find, was found this
# way): it starts cliffhangerd at shipped defaults with -pprof-addr on
# loopback, drives it for 20 s with PIPELINE-deep pipelined zipf GETs from two
# connections, takes a 10 s CPU profile from the middle of the run into a
# temporary directory outside the tree and prints its top entries. The
# default, 64, profiles the store and the replay; `make profile PIPELINE=1`
# profiles the front end, where each GET is a batch (the wait's peek, the
# read, the write: server.readable and internal/poll's deadline code show
# there). PIPELINE is a knob of this recipe, not of the daemon. The last line
# is the daemon's CPU per command over the whole cliffbench run (its utime +
# stime ticks from /proc/<pid>/stat, over the ops= cliffbench prints), so a
# before/after pair reads in ns per GET: a profile line's flat % of it is that
# function's ns per GET. Next to it, the GET events per GET hit from the
# daemon's last stats tick (1 - get_hits_unpromoted / get_hits, with the
# stats JSON in the same directory): the share of hits that still stamp,
# append and replay an event, the rest being served within their hit window.
# Not in CI.
PIPELINE ?= 64
profile: bins
	@set -e; \
	dir=$$(mktemp -d); \
	addr=127.0.0.1:13227; paddr=127.0.0.1:13228; \
	./bin/cliffhangerd -addr $$addr -pprof-addr $$paddr -stats-interval 1s -stats-json $$dir/stats.jsonl 2>$$dir/daemon.log & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	sleep 1; \
	ticks() { awk '{print $$14 + $$15}' /proc/$$pid/stat; }; \
	t0=$$(ticks); \
	./bin/cliffbench -addr $$addr -tenant default -keys 8192 -zipf 0.99 -get-ratio 1 -pipeline $(PIPELINE) -conns 2 -duration 20s > $$dir/bench.log & bench=$$!; \
	sleep 5; \
	$(GO) tool pprof -proto -output $$dir/cpu.pb.gz "http://$$paddr/debug/pprof/profile?seconds=10" 2>/dev/null; \
	wait $$bench; \
	t1=$$(ticks); \
	cat $$dir/bench.log; \
	$(GO) tool pprof -top -nodecount=40 bin/cliffhangerd $$dir/cpu.pb.gz; \
	echo "profile: $$dir/cpu.pb.gz"; \
	ops=$$(sed -n 's/^ops=\([0-9]*\) .*/\1/p' $$dir/bench.log); \
	awk -v t=$$((t1 - t0)) -v hz=$$(getconf CLK_TCK) -v ops=$$ops \
		'BEGIN { printf "daemon CPU per command: %.0f ns (%d ticks at %d Hz over %d commands)\n", t * 1e9 / hz / ops, t, hz, ops }'; \
	last=$$(tail -n 1 $$dir/stats.jsonl); \
	hits=$$(echo "$$last" | sed -n 's/.*"get_hits":"\([0-9]*\)".*/\1/p'); \
	skipped=$$(echo "$$last" | sed -n 's/.*"get_hits_unpromoted":"\([0-9]*\)".*/\1/p'); \
	awk -v h=$${hits:-0} -v u=$${skipped:-0} \
		'BEGIN { if (h > 0) printf "GET events per GET hit: %.3f (%d of %d hits within their window)\n", 1 - u / h, u, h; else print "GET events per GET hit: no hits in the stats" }'

clean:
	rm -rf bin
