GO ?= go
GOLANGCI ?= golangci-lint
# Coverage floor (percent) enforced by `make cover` over the public API
# package and the shard planner.
COVER_FLOOR ?= 75
COVER_PKGS = ./setcontain/... ./internal/stats/...

.PHONY: all build vet test bench bench-tier1 bench-baseline bench-compare perfbench-check fuzz-smoke lint cover check linkcheck vet-examples serve snapshot-smoke crash-smoke scatter-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# Run every benchmark once, across all packages, without re-running unit
# tests — the CI bench-smoke job uses the same invocation.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Tier-1 hot-path benchmarks: the CPU-performance gate of the README's
# "CPU performance" section, plus the expression planner's
# planned-vs-naive pair and the streaming-execution trio
# (streaming-vs-materializing, limit early exit, batch CSE). This is the
# list's only definition: bench-tier1 runs it, bench-compare derives
# its filter from it, and the CI bench-smoke job calls bench-tier1.
TIER1_BENCH = BenchmarkSubset|BenchmarkEquality|BenchmarkSuperset|BenchmarkExprPlanner|BenchmarkExprStream|BenchmarkExprLimit|BenchmarkExprCSE
BENCH_TIME ?= 500x
# Samples per benchmark; benchjson keeps the fastest (min ns/op), which
# gates robustly on machines with background load.
BENCH_COUNT ?= 5
# ns/op regression tolerance for bench-compare, in percent.
BENCH_TOLERANCE ?= 10

# Run the tier-1 set: raw output in bench-new.txt, the standardized
# per-benchmark JSON (ns/op, allocs/op, pages/op, decoded-hit-rate;
# schema setcontain-bench/v1, see cmd/benchjson) in bench-new.json. The
# raw output goes to a file rather than a pipe so a failing or
# non-compiling benchmark fails the target.
bench-tier1:
	$(GO) test -run '^$$' -bench '$(TIER1_BENCH)' -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) -benchmem . > bench-new.txt
	$(GO) run ./cmd/benchjson < bench-new.txt > bench-new.json

# Refresh the checked-in CPU baseline: BENCH_PR3.json plus its raw-text
# twin for benchstat.
bench-baseline: bench-tier1
	cp bench-new.txt BENCH_PR3.txt
	cp bench-new.json BENCH_PR3.json

# Compare a fresh tier-1 run against the checked-in baseline, failing on
# >$(BENCH_TOLERANCE)% ns/op regression. benchstat summarises the raw
# runs when installed; the pass/fail gate is benchjson -compare either
# way (no external dependency).
bench-compare: bench-tier1
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat BENCH_PR3.txt bench-new.txt; \
	else \
		echo "benchstat not installed; skipping statistical summary"; \
	fi
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_TOLERANCE) \
		-filter '^($(TIER1_BENCH))' BENCH_PR3.json bench-new.json

# The end-to-end serving benchmark is a module of its own (perfbench/,
# driven by perfbench/run.py); vet and self-test it against the current
# tree so API drift that breaks the benchmark fails CI, not a run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short coverage-guided runs of every fuzz target (go allows one -fuzz
# target per invocation): the expression-grammar round-trip fuzzer, the
# WAL replay/record fuzzers, and the vbyte codec fuzzers. The CI fuzz
# job uses the same invocations; corpus findings land in testdata and
# fail `make test` thereafter.
FUZZ_TIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseExpr$$' -fuzztime $(FUZZ_TIME) ./setcontain
	$(GO) test -run '^$$' -fuzz '^FuzzReplaySegment$$' -fuzztime $(FUZZ_TIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime $(FUZZ_TIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzUint32$$' -fuzztime $(FUZZ_TIME) ./internal/vbyte
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePostings$$' -fuzztime $(FUZZ_TIME) ./internal/vbyte

lint:
	$(GOLANGCI) run ./...

# Verify relative markdown links in README.md, docs/, and the example
# READMEs resolve; the CI docs job runs this.
linkcheck:
	./scripts/linkcheck.sh

# The examples are the documentation's code snippets writ large: vet
# them explicitly so a drifting API fails the docs job, not a reader.
vet-examples:
	$(GO) vet ./examples/...

# Serve a demo dataset locally (see cmd/setcontaind -help for flags).
serve:
	$(GO) run ./cmd/setcontaind -synthetic 100000 -index sharded

# Durability end-to-end: build a synthetic index, snapshot, restore, and
# verify the restored instance's answer digest matches — per engine kind,
# clean and with pending inserts + tombstones. The CI matrix runs this.
snapshot-smoke:
	./scripts/snapshot-smoke.sh

# Durability under fire: start setcontaind with a write-ahead log, apply
# acknowledged mutations over HTTP, kill -9, restart, and verify every
# acknowledged write survived (then again across a checkpoint). The CI
# matrix runs this.
crash-smoke:
	./scripts/crash-smoke.sh

# Distribution end-to-end: two shard daemons plus a coordinator versus a
# single-node daemon on the same dataset — mixed query/expr/limit
# traffic must digest-compare identical (built, pending, merged), and
# killing one shard must surface a clean error naming it. The CI matrix
# runs this.
scatter-smoke:
	./scripts/scatter-smoke.sh

cover:
	$(GO) test -coverprofile=coverage.out $(COVER_PKGS)
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { seen = 1; sub(/%/, "", $$3); \
		 if ($$3 + 0 < floor) { printf "FAIL: coverage %.1f%% below floor %d%%\n", $$3, floor; exit 1 } \
		 else { printf "coverage %.1f%% (floor %d%%)\n", $$3, floor } } \
		 END { if (!seen) { print "FAIL: no coverage total (go tool cover failed?)"; exit 1 } }'

# Remove build/bench/coverage droppings (all of them .gitignore'd):
# bench-compare output, coverage profiles, locally built CLI binaries,
# and the cached fuzzing corpus.
clean:
	rm -f bench-new.json bench-new.txt coverage.out bench-output.txt
	rm -f oifbench oifquery setcontaind setgen benchjson
	$(GO) clean -fuzzcache

check: build vet test
