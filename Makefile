GO ?= go

.PHONY: check build vet test race bench bench-serve bench-kernel-baseline fuzz cover serve-smoke cluster-smoke crash-smoke chaos

## check: everything CI runs — vet, build, full tests, race tests.
check: vet build test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomises test (and subtest) execution order, so hidden
# inter-test dependencies surface in CI instead of in a refactor.
test:
	$(GO) test -shuffle=on ./...

# The race detector slows the simulator ~10x; -short keeps the heaviest
# figure-grid cases out while still exercising every parallel path
# (the ga/core/figures parallel-vs-serial tests all run in -short mode
# except the full figures grid). A generous -timeout covers slow CI boxes.
race:
	$(GO) test -race -short -timeout 1800s ./...

bench:
	$(GO) test -run '^$$' -bench 'Speedup|EnforceSparsity|TopK' -benchtime 1x ./...

# The microbenchmarks BENCH_kernel.json gates: the GA evaluation kernel
# (Benchmark{Kernel,ScoreAll}) and the simulator under every cold
# projection (BenchmarkDESThroughput, BenchmarkIMBRun), so a regression
# names its layer.
KERNEL_BENCH = -run '^$$' -bench 'BenchmarkKernel$$|BenchmarkScoreAll|BenchmarkDESThroughput$$|BenchmarkIMBRun' -benchmem
KERNEL_PKGS = ./internal/core ./internal/ga ./internal/imb .

# Regression gate: the kernel microbenchmarks against BENCH_kernel.json,
# then every swappbench scenario against BENCH_swappd.json, both judged by
# cmd/benchstatgate. -count 3: the gate takes each metric's minimum over
# the runs, which rides out scheduler noise on shared CI boxes. The kernel
# is gated first so a broken hot path fails before the serving scenarios
# run. Regenerate the serving baseline with:
# go run ./cmd/swappbench -out BENCH_swappd.json
bench-serve:
	$(GO) test $(KERNEL_BENCH) -benchtime 300ms -count 3 $(KERNEL_PKGS) > /tmp/kernel_bench.txt
	$(GO) run ./cmd/benchstatgate -baseline BENCH_kernel.json /tmp/kernel_bench.txt
	$(GO) run ./cmd/swappbench -out /tmp/swappd_bench.json
	$(GO) run ./cmd/benchstatgate -baseline BENCH_swappd.json /tmp/swappd_bench.json

# Rewrite BENCH_kernel.json from a fresh (longer, steadier) benchmark run
# on this host. Commit the result.
bench-kernel-baseline:
	$(GO) test $(KERNEL_BENCH) -benchtime 1s -count 3 $(KERNEL_PKGS) > /tmp/kernel_bench.txt
	$(GO) run ./cmd/benchstatgate -baseline BENCH_kernel.json -update /tmp/kernel_bench.txt

# Short mutation pass over the persistence decoders and the WAL replay
# (CI runs the same).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalIMB$$' -fuzztime 10s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalSpec$$' -fuzztime 10s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 10s ./internal/durable

# End-to-end smoke of the swappd service: start it, health-check, one
# real cached /v1/project round-trip (second call must hit), clean drain —
# then again with -faults arming an evaluation panic: 500, stay up, retry.
serve-smoke:
	./scripts/serve_smoke.sh

# Peer-aware smoke: 3 swappd replicas on one consistent-hash ring, a
# grouped /v1/batch round-trip, two peers crashed (survivor must answer
# byte-identically via local fallback), rejoin, SIGTERM clean drain.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Durability smoke: swappd with -data-dir, async job SIGKILLed mid-GA-search,
# restart on the same dir must replay the journal, resume from checkpoints,
# and finish byte-identical to an uninterrupted control run.
crash-smoke:
	./scripts/crash_smoke.sh

# Fault-tolerance suite under the race detector with shuffled order:
# injected faults, recovered panics, breaker trips, GA quarantine,
# degraded-input projections. Fast — the heavy grids are elsewhere.
chaos:
	$(GO) test -race -shuffle=on -timeout 600s \
		-run 'Chaos|Fault|Inject|Panic|Breaker|Quarantine|Degraded|Lenient|Dropped|GridGap' ./...

# Statement coverage of the -short suite; CI enforces a 72% floor.
cover:
	$(GO) test -short -count=1 -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
