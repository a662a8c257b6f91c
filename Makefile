GO ?= go

.PHONY: all check fmt fmt-check vet build test race test-race bench bench-smoke bench-overhead bench-repo fuzz scenario-smoke

all: check

check: fmt vet build test race bench

# CI-facing aliases: the workflow names its steps after what they verify.
fmt-check: fmt
test-race: race
bench-smoke: bench

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench/ is a module of its own, so the root ./... never reaches it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# GOMAXPROCS=2 keeps two partitions of every parallel test running
# concurrently even on a 1-CPU runner, so the race detector sees the
# executor's cross-goroutine handoffs.
race:
	GOMAXPROCS=2 $(GO) test -race ./...

# Smoke-run the package benchmarks (internal/sim, internal/ht) once:
# catches bit-rot in them without waiting for statistically meaningful
# timings.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Regenerate the observability overhead numbers and enforce their cost
# contract: on a chain16 allreduce, enabling the profiler and enabling
# the live monitor each cost at most 5% CPU over a tracer-only run
# (5th percentile of per-round CPU time, configurations interleaved).
# Span emission is recorded, not gated. Exits nonzero when either gate
# fails.
bench-overhead:
	$(GO) run ./cmd/tccoverhead -out BENCH_overhead.json

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
# receiver-side header classification), the scenario serve block
# (strict JSON decode + lowering: whatever Parse accepts, serve.Config
# must accept too) and route validation (on random route tables,
# topology.Validate must agree with the pairwise hop walk). The
# committed corpus runs on every plain `go test`; this target spends a
# little extra time looking for new inputs.
fuzz:
	$(GO) test ./internal/msg -run=NONE -fuzz=FuzzFrameRoundTrip -fuzztime=10s
	$(GO) test ./internal/msg -run=NONE -fuzz=FuzzHeaderClassification -fuzztime=10s
	$(GO) test ./internal/scenario -run=NONE -fuzz=FuzzServeSpec -fuzztime=10s
	$(GO) test ./internal/topology -run=NONE -fuzz=FuzzValidateMatchesHopWalk -fuzztime=10s
