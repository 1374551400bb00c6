GO ?= go

.PHONY: build vet test race check bench agg-bench bench-sched wire-smoke kv-smoke sched-stress trace-smoke watchdog-smoke fault-stress bench-allocs taskbench-smoke bench-taskbench bench-gate bench-gate-run bench-baseline benchmark-test fuzz-smoke lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The scheduler stress test must RUN (not skip): the lock-free executor
# paths only get race coverage through it. Grep the verbose output for
# its PASS marker so a skip or rename fails the gate loudly. It runs at
# GOMAXPROCS 1 AND 4 (ISSUE 9): the deque/parking protocols behave
# differently under real preemption, and until this matrix every gate
# had only ever exercised them single-CPU.
SCHED_STRESS_PROCS ?= 1 4
sched-stress:
	@for p in $(SCHED_STRESS_PROCS); do \
		echo "== sched-stress GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -race -count=1 -run TestSchedulerStress -v ./internal/scheduler | tee /tmp/sched-stress.out; \
		grep -q -- '--- PASS: TestSchedulerStress' /tmp/sched-stress.out || \
			{ echo "check: TestSchedulerStress did not run/pass (GOMAXPROCS=$$p)" >&2; exit 1; }; \
	done

# Task Bench harness smoke (ISSUE 9): the five dependency patterns must
# complete with exact task counts under the race detector at GOMAXPROCS
# 1 and 4 (multi-core coverage for the submit→steal→AM→exec pipeline),
# and the -quick matrix must produce rows for every pattern.
taskbench-smoke:
	@for p in 1 4; do \
		echo "== taskbench-smoke GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -race -count=1 -run 'TestTaskBench|TestTaskGraph' -v ./internal/bench | tee /tmp/taskbench-smoke.out; \
		grep -q -- '--- PASS: TestTaskBenchCompletionCounts' /tmp/taskbench-smoke.out || \
			{ echo "check: TestTaskBenchCompletionCounts did not run/pass (GOMAXPROCS=$$p)" >&2; exit 1; }; \
	done
	$(GO) run ./cmd/lamellar-bench taskbench -quick | tee /tmp/taskbench-quick.out > /dev/null
	@grep -q 'TASKBENCH random' /tmp/taskbench-quick.out || \
		{ echo "check: taskbench -quick produced no random-pattern rows" >&2; exit 1; }

# Seeded adversarial-fabric matrix: the whole runtime/darc/array/bale
# surface must stay exactly correct with 5% of wire frames dropped,
# duplicated, and reordered on every link (repaired by the reliable
# delivery layer), with zero panics, under the race detector. The env
# knobs reach every world via Config defaults, so the regular suites
# double as fault-stress workloads. sim/shmem run via each package's own
# transport matrix; the runtime suite also covers tcp.
FAULT_ENV = LAMELLAR_FAULT_SEED=1 LAMELLAR_FAULT_DROP=0.05 \
	LAMELLAR_FAULT_DUP=0.05 LAMELLAR_FAULT_REORDER=0.05 LAMELLAR_RETRY_MS=2
fault-stress:
	$(FAULT_ENV) $(GO) test -race -count=1 \
		./internal/runtime ./internal/darc ./internal/array \
		./internal/bale/exstack ./internal/bale/exstack2 ./internal/bale/conveyor

# Allocation-budget gate (ISSUE 6): the explicit per-path alloc budgets
# (aggregated add, fetch-add round trip, wire send/ack) must hold, and
# the -benchmem snapshot of the aggregated micro-benchmark is printed so
# regressions against the bench_results.txt ALLOC table are visible.
bench-allocs:
	$(GO) test -count=1 -run 'TestAllocBudget' -v . ./internal/runtime ./internal/array
	$(GO) test -run xxx -bench 'BenchmarkAtomicOpsAggregated$$' -benchtime=200x -benchmem -count=1 .

# KV serving smoke (ISSUE 10): the sharded store must keep an exact
# update ledger — zero lost and zero phantom updates — while an open-loop
# Zipfian mix runs over a 5% drop/dup/reorder fabric under the race
# detector. Grep for the PASS marker so a skip or rename fails loudly.
kv-smoke:
	$(GO) test -race -count=1 -run TestKVSmokeFaultedLedgerExact -v ./internal/kv | tee /tmp/kv-smoke.out
	@grep -q -- '--- PASS: TestKVSmokeFaultedLedgerExact' /tmp/kv-smoke.out || \
		{ echo "check: TestKVSmokeFaultedLedgerExact did not run/pass" >&2; exit 1; }

# Decoder fuzz smoke: aggAM is the only wire format for array element
# ops, so arbitrary bytes through its decoder and receive kernel, on a
# small array of every kind, must never panic; nor may arbitrary bytes
# through the receive walker's batch framing and envelope headers.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzAggAMApply -fuzztime=10s ./internal/array
	$(GO) test -run xxx -fuzz FuzzReceiveBatch -fuzztime=10s ./internal/runtime

# The repo benchmark (benchmark/) is a nested module, so the root
# `go test ./...` does not reach its tests; run them from inside it.
benchmark-test:
	cd benchmark && $(GO) test -count=1 ./...

# Tier-1 gate: everything that must stay green before a change lands.
check: build vet race sched-stress taskbench-smoke fault-stress wire-smoke kv-smoke trace-smoke watchdog-smoke bench-allocs benchmark-test fuzz-smoke

# Lint gate (CI `lint` job): formatting must be canonical and vet clean.
lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "lint: gofmt drift in:" >&2; echo "$$fmt_out" >&2; exit 1; \
	fi
	$(GO) vet ./...
	@echo "lint: gofmt clean, vet clean"

bench:
	$(GO) test -bench=. -benchmem .

# --- Benchmark regression gate (ISSUE 9) -------------------------------
# A pinned-iteration subset of the benchmark suite, run with -benchtime=Nx
# and -count=5 so medians are comparable across runs, and -cpu 1 so
# every run matches the baseline's GOMAXPROCS (the comparator rejects a
# -N suffix that differs from the baseline's), written to
# $(BENCH_GATE_OUT) and diffed against the committed bench_baseline.txt
# by the Go comparator (cmd/lamellar-bench gate). >15% adjusted median
# ns/op regression or ANY allocs/op increase fails. GateCalibrate is the
# machine-speed yardstick that rescales the time threshold on differently
# sized runners; allocs are compared raw. -benchmem is only passed where
# the alloc count is deterministic (the aggregated hot path): the
# taskbench cell's allocs jitter ±2 with goroutine timing, which would
# false-positive an any-increase ratchet.
BENCH_GATE_OUT ?= /tmp/bench-gate-new.txt
bench-gate-run:
	$(GO) test -cpu 1 -run xxx -bench 'BenchmarkAtomicOpsAggregated$$' -benchtime=120x -benchmem -count=5 . > $(BENCH_GATE_OUT)
	$(GO) test -cpu 1 -run xxx -bench 'InjectorPop' -benchtime=200000x -count=5 ./internal/scheduler >> $(BENCH_GATE_OUT)
	$(GO) test -cpu 1 -run xxx -bench 'BenchmarkGateCalibrate$$|BenchmarkTaskBenchCellStencil$$' -benchtime=5x -count=5 ./internal/bench >> $(BENCH_GATE_OUT)

bench-gate: bench-gate-run
	$(GO) run ./cmd/lamellar-bench gate -baseline bench_baseline.txt -new $(BENCH_GATE_OUT)

# Regenerate the committed baseline (run on a quiet machine, then commit
# bench_baseline.txt together with the change that moved the numbers).
bench-baseline: BENCH_GATE_OUT = bench_baseline.txt
bench-baseline: bench-gate-run
	@echo "bench-baseline: wrote bench_baseline.txt"

# Full Task Bench dependency-pattern matrix (bench_results.txt §TASKBENCH).
bench-taskbench:
	$(GO) run ./cmd/lamellar-bench taskbench

# Aggregated array-op micro-benchmarks (FIG2A companion).
agg-bench:
	$(GO) test -run xxx -bench 'AtomicOps' -benchmem -count=1 .

# Scheduler micro-benchmarks (bench_results.txt §SCHED): pinned
# iteration count so the queue-wait histogram sees the same backlog
# regardless of machine speed, plus the injector O(1)-pop regression.
bench-sched:
	$(GO) test -run xxx -bench 'Sched' -benchtime=1000000x -benchmem -count=1 .
	$(GO) test -run xxx -bench 'Injector' -benchtime=1000000x -count=1 ./internal/scheduler

# Wire smoke: 1 KiB AMs streamed over the reliable wire on a clean
# fabric and three seeded faulted ones (5% drop; 5% drop+dup+reorder;
# 10% reorder) must each execute exactly once, balance the sender's
# issued/completed ledger, and finish before the test's deadline instead
# of hanging. Grep for the PASS marker so a skip or rename fails loudly.
wire-smoke:
	$(GO) test -race -count=1 -run TestWireSmokeSeededPlans -v ./internal/runtime | tee /tmp/wire-smoke.out
	@grep -q -- '--- PASS: TestWireSmokeSeededPlans' /tmp/wire-smoke.out || \
		{ echo "check: TestWireSmokeSeededPlans did not run/pass" >&2; exit 1; }

# Trace smoke: one lamellar-trace run with -timeline/-metrics must fail
# unless the written file is valid Chrome trace JSON with a complete
# causal-flow graph (lamellar-trace re-parses and validates it, rejecting
# dangling flow references). The timeline must actually contain flow
# starts — a trace with zero "s" events means span propagation broke.
# The -metrics dump must carry the flight recorder's histogram series.
# The -critical-path pass then proves the flow links are rich enough to
# decompose an aggregated fetch-add round trip into queue/encode/wire/
# exec/return segments.
trace-smoke:
	$(GO) run ./cmd/lamellar-trace -kernel histo -cores 4 -workers 1 -updates 2000 -timeline /tmp/lamellar-trace-smoke.json -metrics > /tmp/lamellar-trace-metrics.out
	@grep -q '"ph":"s"' /tmp/lamellar-trace-smoke.json || \
		{ echo "trace-smoke: timeline has no flow starts" >&2; exit 1; }
	@grep -q 'lamellar_am_round_trip_seconds_bucket' /tmp/lamellar-trace-metrics.out || \
		{ echo "trace-smoke: -metrics printed no recorder histograms" >&2; exit 1; }
	$(GO) run ./cmd/lamellar-trace -critical-path -cores 8 -workers 2 -ops 128 -timeline /tmp/lamellar-critpath-smoke.json | tee /tmp/critpath-smoke.out > /dev/null
	@grep -q 'complete flows' /tmp/critpath-smoke.out || \
		{ echo "trace-smoke: critical-path produced no decomposition" >&2; exit 1; }
	@echo "trace-smoke: /tmp/lamellar-trace-smoke.json OK (flow-linked, metrics exported, critical path decomposed)"

# Watchdog smoke test: a partitioned link under a 5% fault plan must be
# detected by the stall sampler (health counters move) and then recover
# once healed. Grep for the PASS marker so a skip or rename fails loudly,
# same contract as sched-stress.
watchdog-smoke:
	$(GO) test -race -count=1 -run TestWatchdogDetectsPartitionStall -v ./internal/runtime | tee /tmp/watchdog-smoke.out
	@grep -q -- '--- PASS: TestWatchdogDetectsPartitionStall' /tmp/watchdog-smoke.out || \
		{ echo "check: TestWatchdogDetectsPartitionStall did not run/pass" >&2; exit 1; }
