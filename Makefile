# Development targets. CI runs the same commands (see
# .github/workflows/ci.yml), so a green `make check bench-check` locally
# predicts a green CI run.

# A benchmark that fails must fail its `go test | tee` recipe line.
SHELL       := bash
.SHELLFLAGS := -o pipefail -c

BENCH_PATTERN := BenchmarkClusterReplay$$|BenchmarkClusterTapeReplay$$|BenchmarkCoolAirDecision$$|BenchmarkCoolAirDecisionTraced$$|BenchmarkPredictWindow$$|BenchmarkTMYGeneration$$|BenchmarkSeriesAppend$$|BenchmarkSeriesCollectTick$$
BENCH_COUNT   := 5

# The world-sweep throughput and cold-training benchmarks run ~0.5-1 s/op,
# so they get their own pattern with fewer repetitions to keep the gate
# fast.
BENCH_SLOW_PATTERN := BenchmarkWorldThroughput$$|BenchmarkColdTraining$$
BENCH_SLOW_COUNT   := 3

.PHONY: build test vet lint check bench-run bench bench-check fuzz serve loadtest

build:
	go build ./...

test:
	go test ./...

# vet runs the standard toolchain checks plus coolair-vet, the project's
# own analyzer suite (internal/analysis): memoguard, unitcast,
# scratchretain, floateq, statewrite, maporder, wallclock, globalrand,
# plus the driver's stale-suppression audit over //coolair:allow-*
# markers. See README "Static analysis".
# (TestListMatchesDocs pins this comment to analysis.All.)
vet:
	go vet ./...
	go run ./cmd/coolair-vet ./...

lint: vet

check: build lint
	go test -race ./...

# bench-run runs every gated benchmark into bench_new.txt. CI's bench
# job runs this target too, so the lists above are the only copy.
bench-run:
	go test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count=$(BENCH_COUNT) . | tee bench_new.txt
	go test -run '^$$' -bench '$(BENCH_SLOW_PATTERN)' -benchmem -count=$(BENCH_SLOW_COUNT) . | tee -a bench_new.txt

# bench reruns the benchmarks and refreshes the committed baseline
# (BENCH_decision.json). Run it after intentional performance changes
# and commit the result.
bench: bench-run
	go run ./cmd/coolair-bench -out BENCH_decision.json < bench_new.txt
	rm -f bench_new.txt

# bench-check compares a fresh run against the committed baseline and
# fails on regression (median ns/op beyond tolerance, or any meaningful
# allocs/op increase).
bench-check: bench-run
	go run ./cmd/coolair-bench -out bench_current.json < bench_new.txt
	go run ./cmd/coolair-bench -gate -baseline BENCH_decision.json -current bench_current.json
	rm -f bench_new.txt bench_current.json

# serve boots the telemetry daemon on localhost:8080 at one simulated
# hour per wall second. See README "Live telemetry".
serve:
	go run ./cmd/coolair-serve -speed 3600

# loadtest runs the full-scale fleet acceptance profile: a 64-site
# fleet under 2,000 concurrent mixed clients (scrape + SSE + query
# plane), SIGKILLed between two load phases, with p99 scrape/query
# latency, stall, and SSE cursor continuity thresholds enforced (exit 1
# on violation). CI runs the same harness at reduced scale with -race
# (job: fleet-smoke).
loadtest:
	go build -o coolair-serve.loadtest ./cmd/coolair-serve
	go run ./cmd/coolair-loadtest -serve-bin ./coolair-serve.loadtest \
		-fleet world:64 -scrapers 800 -streamers 800 -query-clients 400 \
		-duration 20s -p99 250ms -kill
	rm -f coolair-serve.loadtest

# fuzz exercises the trace JSONL round-trip fuzzer, the cluster
# aggregate oracle fuzzer, the cluster tape fuzzer and the LMS median
# selection fuzzer beyond their checked-in corpora. CI runs the same
# 10-second budgets.
fuzz:
	go test -run '^FuzzTraceRoundTrip$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime 10s ./internal/trace/
	go test -run '^FuzzClusterAggregates$$' -fuzz '^FuzzClusterAggregates$$' -fuzztime 10s ./internal/hadoop/
	go test -run '^FuzzClusterTape$$' -fuzz '^FuzzClusterTape$$' -fuzztime 10s ./internal/hadoop/
	go test -run '^FuzzMedianSelect$$' -fuzz '^FuzzMedianSelect$$' -fuzztime 10s ./internal/mlearn/
