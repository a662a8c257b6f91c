GO ?= go

.PHONY: all check fmt fmt-check vet build test race test-race bench bench-smoke bench-json bench-engine bench-engine-check bench-parallel bench-parallel-check bench-faults bench-prof bench-serve bench-serve-check bench-repo fuzz scenario-smoke

all: check

check: fmt vet build race bench

# CI-facing aliases: the workflow names its steps after what they verify.
fmt-check: fmt
test-race: race
bench-smoke: bench

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Smoke-run every benchmark once: catches bit-rot in the harness without
# waiting for statistically meaningful timings.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Regenerate the tracing + monitoring overhead numbers. The JSON records
# the contract that leaving WithMonitor on costs only a few percent over
# WithTracer alone.
bench-json:
	$(GO) run ./cmd/tccbench -bench monitor -out BENCH_monitor.json

# Regenerate the event-core numbers: paired ladder-vs-heap runs over a
# synthetic self-clocking workload plus Fig. 6/Fig. 7-shaped full-stack
# workloads. Fails if the two queues diverge on event count or final
# virtual time.
bench-engine:
	$(GO) run ./cmd/tccbench -bench engine -out BENCH_engine.json

# CI regression gate: rerun the engine benchmark and fail when full-stack
# ladder throughput (pingpong, posted-store) drops more than 15% below
# the committed BENCH_engine.json. The baseline is read before the fresh
# numbers overwrite the file, so the artifact CI uploads is current.
# The threshold is deliberately loose — runner hardware differs from the
# baseline machine — so the gate catches structural rot, not noise.
bench-engine-check:
	$(GO) run ./cmd/tccbench -bench engine -out BENCH_engine.json -baseline BENCH_engine.json

# Regenerate the parallel-engine numbers: serial vs 1/2/4/8 workers on
# Fig. 6/Fig. 7-shaped chain workloads plus 256-node 16x16-torus
# pingpong-mesh and ring-allreduce. Fails if any worker count diverges
# from the serial run's final virtual time or event count. Speedups are
# only meaningful relative to the recorded GOMAXPROCS/NumCPU.
bench-parallel:
	$(GO) run ./cmd/tccbench -bench parallel -out BENCH_parallel.json

# CI regression gate, mirror of bench-engine-check: rerun the parallel
# benchmark (best of 5 per configuration) and fail when any workload's
# speedup_vs_serial drops more than 15% below the committed
# BENCH_parallel.json. The gate is skipped when the runner has fewer
# CPUs than the baseline machine — a smaller runner cannot reproduce
# multi-core speedups, so the comparison would measure the hardware.
bench-parallel-check:
	$(GO) run ./cmd/tccbench -bench parallel -out BENCH_parallel.json -baseline BENCH_parallel.json -repeat 5

# Regenerate the fault-campaign numbers: reliable-channel goodput and
# recovery latency vs swept cable-outage duration, plus raw-protocol
# goodput vs injected CRC error rate.
bench-faults:
	$(GO) run ./cmd/tccbench -bench faults -out BENCH_faults.json

# Regenerate the profiler numbers and enforce its cost contract:
# profiled chain16 allreduce within 5% of the tracer-only baseline
# (per-round CPU-time minima), zero allocations on the disabled link
# send path. Exits nonzero when either gate fails.
bench-prof:
	$(GO) run ./cmd/tccbench -bench prof -out BENCH_prof.json

# Regenerate the serving-stack numbers: a steady-state chain16 cell
# pushing >=1M simulated requests through the replicated KV service,
# plus a crash cell where a mid-run NodeCrash forces replica failover
# and the windowed goodput records the SLO dip and recovery. Fails if
# any parallel worker count diverges from the serial run.
bench-serve:
	$(GO) run ./cmd/tccbench -bench serve -out BENCH_serve.json

# CI regression gate, mirror of bench-parallel-check: rerun the serve
# benchmark (best of 5) and fail when steady-state goodput throughput
# drops more than 15% below the committed BENCH_serve.json. Skipped on
# runners with fewer CPUs than the baseline machine.
bench-serve-check:
	$(GO) run ./cmd/tccbench -bench serve -out BENCH_serve.json -baseline BENCH_serve.json -repeat 5

# Repository benchmark (bench/, a nested module that the root
# `go test ./...` never reaches): run its tests, plain and under -race at
# GOMAXPROCS=2, then a short run that fails unless its last output line
# reports "correct":true — i.e. every simulated output still matches
# bench/golden.json.
bench-repo:
	cd bench && $(GO) test ./... && GOMAXPROCS=2 $(GO) test -race ./...
	@last=$$(bash bench/run.sh --seconds 2 | tail -n 1); \
	case "$$last" in \
	*'"correct":true'*) echo "bench: outputs match bench/golden.json" ;; \
	*) echo "bench: outputs do not match bench/golden.json: $$last"; exit 1 ;; \
	esac

# Smoke-run the scenario runner: the committed fault-recovery spec with
# the serial-vs-parallel determinism gate, the committed 2x2 sweep grid
# archiving one metadata-stamped result JSON per cell, the profiled
# allreduce spec whose result embeds the latency budget, the
# 256-node torus ringshift sweep proving serial ≡ parallel byte-identity
# at 2/4/8 workers under the graph-cut partitioner, and the chain16
# serving spec whose node-crash campaign exercises replica failover.
scenario-smoke:
	$(GO) run ./cmd/tccrun -check -out scenario-results scenarios/fault-recovery-chain4.json
	$(GO) run ./cmd/tccrun -out scenario-results scenarios/allreduce-sweep.json
	$(GO) run ./cmd/tccrun -check -out scenario-results scenarios/allreduce-chain16-profiled.json
	$(GO) run ./cmd/tccrun -check -out scenario-results scenarios/torus256-parallel-sweep.json
	$(GO) run ./cmd/tccrun -check -out scenario-results scenarios/serve-chain16-crash.json

# Short fuzz of the message-library wire format (frame build/parse and
# receiver-side header classification) and the scenario serve block
# (strict JSON decode + validation + config lowering). The committed
# corpus runs on every plain `go test`; this target spends a little
# extra time looking for new inputs.
fuzz:
	$(GO) test ./internal/msg -run=NONE -fuzz=FuzzFrameRoundTrip -fuzztime=10s
	$(GO) test ./internal/msg -run=NONE -fuzz=FuzzHeaderClassification -fuzztime=10s
	$(GO) test ./internal/scenario -run=NONE -fuzz=FuzzServeSpec -fuzztime=10s
