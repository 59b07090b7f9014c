# locble — reproduction of "Locating and Tracking BLE Beacons with
# Smartphones" (CoNEXT 2017). Stdlib-only; everything works offline.

GO ?= go
# Per-target budget for `make fuzz` (Go fuzzing flag syntax, e.g. 30s).
FUZZTIME ?= 10s
# Chaos-soak duration for `make soak` (parsed by TestChaosSoak).
SOAKTIME ?= 30s

.PHONY: all build test race soak fuzz cover bench benchgate ci fmtcheck lint vuln microbench repro examples loc clean help

all: build test race soak

build:
	$(GO) build ./...
	$(GO) vet ./...

# Fail on any file gofmt would rewrite (CI runs this before building).
fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Static analysis: go vet always; staticcheck when it is on PATH (the
# CI lint job installs it — offline dev environments may not have it,
# and the target must not fail on its absence).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; \
	fi

# Known-vulnerability scan: govulncheck when it is on PATH (the CI vuln
# job installs a pinned release — offline dev environments may not have
# it, and the target must not fail on its absence; same gating as
# staticcheck in `make lint`).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipped (CI runs it)"; \
	fi

test:
	$(GO) test -shuffle=on ./...

# After the full race suite, the tests of the shared fan-out
# (internal/fanout) and of its callers — LocateAll and the fleet's
# push, drain and close — run again ten times each: a race shows only
# in the interleavings a run happens to hit. So do netproto's stream
# tests: a subscriber's cursor waits on a channel that each publish
# closes and replaces, and that handoff is the same kind of code. So do
# the router's breaker and readmission tests: overlapping PushBatch
# calls share each node's breaker. So do netproto's push-exchange
# tests: concurrent pushes pipeline onto one connection, whose single
# reader hands each reply frame to its waiting exchange.
RACE_REPEAT = ^(TestRun|TestLocateAll|TestPushBatch|TestFleetDrain|TestFleetOwnsNoGoroutines|TestFleetConcurrentEquivalence|TestFleetCloseDuringIngest)
STREAM_REPEAT = ^(TestStream|TestSubscribe|TestServerCloseUnblocksSubscribers|TestServerServesEveryOpAtOnce)
BREAKER_REPEAT = ^(TestBreaker|TestRouterBreaker|TestRouterReadmits)
PUSH_REPEAT = ^(TestPipeline|TestFleetClient|TestBinaryPush|TestPushOp)

race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run='$(RACE_REPEAT)' ./internal/fanout/ ./internal/core/ ./internal/fleet/
	$(GO) test -race -count=10 -run='$(STREAM_REPEAT)' ./internal/netproto/
	$(GO) test -race -count=10 -run='$(PUSH_REPEAT)' ./internal/netproto/
	$(GO) test -race -count=10 -run='$(BREAKER_REPEAT)' ./internal/router/

# Extended chaos soak of the serving path (race-enabled): fault-injected
# publishers, connection churn, garbage frames, forced handler panics,
# then a graceful drain — asserts zero goroutine leaks and consistent
# lifecycle metrics. The fleet soak hammers the sharded session manager
# the same way: fault-injected batched ingest, silence-driven
# evict/restore churn, canceled pushes. Both tests run for <1 s inside
# `make test`; this target stretches them to $(SOAKTIME) each.
# The durability soak chains disk faults (short writes, fsync errors,
# ENOSPC) under a durable-store fleet with repeated crash-and-recover
# cycles on the same disk image.
soak:
	LOCBLE_SOAK=$(SOAKTIME) $(GO) test -race -count=1 -run='^TestChaosSoak$$' -v ./internal/netproto/
	LOCBLE_SOAK=$(SOAKTIME) $(GO) test -race -count=1 -run='^TestFleetChaosSoak$$' -v ./internal/fleet/
	LOCBLE_SOAK=$(SOAKTIME) $(GO) test -race -count=1 -run='^TestDurableChaosSoak$$' -v ./internal/fleet/

# Short coverage-guided shake of every fuzz target (decoder robustness:
# BLE deframing/AD parsing/beacon decoding, netproto frame reading,
# trace-file loading, durable WAL replay; estimator robustness: the whole
# position search over fuzzed observation sets).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDeframe -fuzztime=$(FUZZTIME) ./internal/ble/
	$(GO) test -run='^$$' -fuzz=FuzzParseADStructures -fuzztime=$(FUZZTIME) ./internal/ble/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBeacon -fuzztime=$(FUZZTIME) ./internal/ble/
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME) ./internal/netproto/
	$(GO) test -run='^$$' -fuzz=FuzzBinaryFrame -fuzztime=$(FUZZTIME) ./internal/netproto/
	$(GO) test -run='^$$' -fuzz=FuzzLoadTrace -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/durable/
	$(GO) test -run='^$$' -fuzz=FuzzSolverRun -fuzztime=$(FUZZTIME) ./internal/estimate/

# Total-statement-coverage floor for `make cover`: the measured total
# when the floor was last set (84.9%) minus a 2-point slack. Raise it
# when coverage meaningfully improves; a PR that drops the total below
# the floor fails CI's test job.
COVER_FLOOR ?= 82.9

cover:
	$(GO) test -coverprofile=cover.out ./internal/... .
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$NF); print $$NF}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# Instrumented end-to-end pipeline benchmark, as machine-readable JSON:
# LocateAll's wall, allocation deltas, stage latencies and estimate
# error; the irls (Huber-loss rerun), fleet, durability, router and
# wire sections; and the process counters, among them the solver's
# runs, searches and iterations. BENCH_pr2.json and BENCH_pr4.json are
# committed historical baselines — BENCH_pr4.json is what the gate
# compares against; regenerate it (and commit the result) only when a
# deliberate change moves the numbers.
bench:
	$(GO) run ./cmd/locble-bench -json BENCH_pr4.json

# Allowed fractional wall-clock regression for `make benchgate`. CI
# overrides this (hosted runners are slower and noisier than the
# machine that recorded the baseline); the allocation, accuracy and
# durability tolerances always run at the benchgate defaults.
BENCH_WALL_TOL ?= 0.10

# Run the benchmark and gate it against the committed baseline, one row
# per number (internal/pipebench/gate.go). It exits nonzero on:
#   - wall growth beyond $(BENCH_WALL_TOL), twice that for the fleet and
#     router walls and the wire frames/s shortfall;
#   - >10% allocs; >5% error, frame size or solver work (runs,
#     searches, iterations); >35% durability throughput or recovery;
#   - a fixed contract: a fix lost, a degraded routed result, log
#     damage, allocating warm robust fits, or the binary codec losing
#     its floors over JSON.
# Every row is armed at the default. At CI's 0.5 all rows but one stay
# armed: twice 0.5 lets wire frames/s fall to 0, so wire.speedup_x >= 2
# is the only wire-throughput check left there. The fresh report goes
# to BENCH_gate.json (a derived file, removed by `make clean`).
benchgate:
	$(GO) run ./cmd/benchgate -baseline BENCH_pr4.json -out BENCH_gate.json -wall-tol $(BENCH_WALL_TOL)

# The full CI pipeline, byte-identical to what .github/workflows/ci.yml
# runs — so "it passed make ci" means it passes CI. (Nightly long
# soak/fuzz runs live in .github/workflows/nightly.yml.)
ci: fmtcheck build lint vuln test race fuzz soak cover benchgate

# One testing.B target per paper table/figure plus pipeline micro-benches.
microbench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's full evaluation (Sec. 7 tables and figures,
# ablations, extensions) as text rows/series.
repro:
	$(GO) run ./cmd/locble-bench

repro-quick:
	$(GO) run ./cmd/locble-bench -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/lostitem
	$(GO) run ./examples/movingtarget
	$(GO) run ./examples/retailshelf
	$(GO) run ./examples/tracking

# Non-test Go lines per package directory, then the total — the line
# count ROADMAP.md tracks like a benchmark axis. Counts every line of
# every non-test .go file (perfbench and examples included; the
# benchmark's build directory excluded).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort | \
	awk '{ d = $$0; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); \
	       n = 0; while ((getline line < $$0) > 0) n++; close($$0); \
	       loc[d] += n; total += n } \
	     END { for (d in loc) printf "%6d  %s\n", loc[d], d | "sort -k2"; close("sort -k2"); \
	           printf "%6d  total\n", total }'

# Committed BENCH_*.json baselines are history, not build products —
# clean only removes derived files.
clean:
	rm -f cover.out BENCH_gate.json

help:
	@echo "make all      - build + vet + test + race + chaos soak (the full gate)"
	@echo "make ci       - the full CI pipeline (fmtcheck .. benchgate), same as GitHub Actions"
	@echo "make build    - compile and vet every package"
	@echo "make fmtcheck - fail if gofmt would rewrite any file"
	@echo "make lint     - go vet + staticcheck (skipped when not installed)"
	@echo "make vuln     - govulncheck ./... (skipped when not installed)"
	@echo "make test     - run the test suite (shuffled order)"
	@echo "make race     - run the test suite under the race detector, then the fan-out/fleet concurrency, netproto stream and push-exchange, and router breaker/readmission tests 10x"
	@echo "make soak     - $(SOAKTIME) race-enabled chaos soaks of the serving path and the fleet"
	@echo "make fuzz     - short fuzz pass over all fuzz targets (FUZZTIME=$(FUZZTIME) each)"
	@echo "make cover    - coverage summary, enforcing the $(COVER_FLOOR)% total floor"
	@echo "make bench    - instrumented pipeline benchmark -> BENCH_pr4.json"
	@echo "make benchgate - bench + regression gate against BENCH_pr4.json"
	@echo "make microbench - all go-test benchmarks (one per paper table/figure)"
	@echo "make repro    - regenerate the paper's evaluation (repro-quick: reduced trials)"
	@echo "make examples - run every example program"
	@echo "make loc      - non-test Go lines per package and in total"
