# nestedtx build/test entry points. `make test` is the tier-1 flow:
# vet runs before the tests, as in CI.

GO ?= go

.PHONY: all build vet fmt-check test race bench bench-short sim sim-mine fuzz fuzz-short metrics-smoke tools-smoke loc perf-check perf-check-smoke clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any Go file outside the benchmark's build directory is not
# gofmt-clean, listing the offenders.
fmt-check:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Tier-1: build + vet + full test suite. bench/ is a nested module, so
# the root ./... patterns never compile it; vet and test it explicitly
# or a refactor can break the benchmark without tier-1 noticing.
test: build vet
	$(GO) test ./...
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# Every suite under the race detector — including the fault-injection
# (faultnet, client pool, server cuts/stalls/partitions, network soak),
# crash-recovery (WAL, 100-seed kill-at-byte, drain durability) and
# replication (shipper/follower, promotion, failover) tests.
race: vet
	$(GO) test -race ./...

# The experiment/benchmark suite (short run of every benchmark).
bench:
	$(GO) test -bench . -benchtime 1x ./...
	$(GO) test -run XXX -bench ServerThroughput -benchtime 200x ./internal/server
	$(GO) test -run XXX -bench ShardScaling -benchtime 1000x ./internal/lockmgr
	$(GO) test -run XXX -bench AbortBesideHolders -benchtime 20000x ./internal/lockmgr
	$(GO) test -run XXX -bench 'RegisterUniverse/(counters=65536|durable)' -benchtime 20x .
	$(GO) test -run XXX -bench 'RegisterUniverse/counters=64$$' -benchtime 20000x .
	$(GO) test -run XXX -bench HotCounterReads -benchtime 200000x .
	$(GO) test -run XXX -bench HotCounterWriteThenRead -benchtime 200000x .
	$(GO) test -run XXX -bench 'NestedTree|GoTree' -benchtime 20000x .
	$(GO) test -run XXX -bench LookupUniverse -benchtime 400000x .
	$(GO) test -run XXX -bench E17SnapshotScans -benchtime 5x .

# Smoke-run every benchmark once (CI: catches bit-rot in bench code
# without paying for statistically meaningful timings).
bench-short:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# Deterministic whole-system simulation: the dst unit tests (generator
# properties + byte-identical-log determinism) under the race detector,
# the checked-in seed corpus through txdst, two cross-process
# determinism checks (two txdst invocations of the same seed must emit
# identical event logs), one per durable crash scenario, and seeds 1–50
# of the three crash scenarios at scale 0.25, stopping at the first red seed
# with its reproduction line. txdst and the logs go to a fresh temporary
# directory that is removed afterwards.
sim: vet
	$(GO) test -race ./internal/dst/...
	$(GO) run -race ./cmd/txdst -corpus internal/dst/corpus.txt
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/txdst" ./cmd/txdst; \
	for s in crash-bitrot-checkpoint crash-recovery crash-in-checkpoint; do \
		echo "txdst -scenario $$s -seed 1 -log, twice"; \
		"$$d/txdst" -scenario $$s -seed 1 -log > "$$d/a.txt"; \
		"$$d/txdst" -scenario $$s -seed 1 -log > "$$d/b.txt"; \
		cmp "$$d/a.txt" "$$d/b.txt"; \
	done; \
	for s in crash-recovery crash-bitrot-checkpoint crash-in-checkpoint; do \
		echo "txdst -scenario $$s -seed 1..50 -scale 0.25"; \
		for n in $$(seq 1 50); do \
			"$$d/txdst" -scenario $$s -seed $$n -scale 0.25 > /dev/null || \
				{ echo "reproduce: txdst -scenario $$s -seed $$n -scale 0.25"; exit 1; }; \
		done; \
	done

# Regenerate the seed corpus: two passing seeds per scenario, at the
# scale the -race corpus replay can afford. Full-size cells run via
# `txdst -scenario <name>` directly (see EXPERIMENTS.md E18).
sim-mine:
	$(GO) run ./cmd/txdst -mine 2 -scale 0.25 > internal/dst/corpus.txt

fuzz:
	$(GO) test -fuzz FuzzTheorem34 -fuzztime 30s ./internal/checker

# Short fuzz smoke for CI: the wire framing/decode surface, the WAL
# segment scanner, the hand-written JSON codecs against the
# encoding/json implementations they replaced, the lock tables against
# the set-based M(X) they refine, the object index against a Go map, and
# the Theorem-34 checker on generated schedules, ten seconds each. The lock tables' runs are a
# whole script each, so minimising every input that reaches new code is
# capped or it eats the ten seconds.
fuzz-short:
	$(GO) test -run XXX -fuzz FuzzReadFrame -fuzztime 10s ./internal/wire
	$(GO) test -run XXX -fuzz FuzzSegmentScan -fuzztime 10s ./internal/wal
	$(GO) test -run XXX -fuzz FuzzSyntaxMatchesEncodingJSON -fuzztime 10s ./internal/jscan
	$(GO) test -run XXX -fuzz FuzzAdtCodecMatchesEncodingJSON -fuzztime 10s ./internal/adt
	$(GO) test -run XXX -fuzz FuzzWireCodecMatchesEncodingJSON -fuzztime 10s ./internal/wire
	$(GO) test -run XXX -fuzz FuzzRecordEncodeMatchesEncodingJSON -fuzztime 10s ./internal/wal
	$(GO) test -run XXX -fuzz FuzzCheckpointEncodeMatchesEncodingJSON -fuzztime 10s ./internal/wal
	$(GO) test -run XXX -fuzz FuzzLockTablesRefineMX -fuzztime 10s -fuzzminimizetime 100x ./internal/lockmgr
	$(GO) test -run XXX -fuzz FuzzIndexMatchesMap -fuzztime 10s ./internal/snap
	$(GO) test -run XXX -fuzz FuzzTheorem34 -fuzztime 10s ./internal/checker

# End-to-end observability probe against the real binaries: starts a
# traced txserver, drives load with txmetrics -exercise, and asserts the
# METRICS histograms reconcile exactly with the counters in the same
# payload; a durable txserver must report itself a replication leader.
metrics-smoke:
	./scripts/metrics_smoke.sh

# The experiment, verifier and trace tools still run end to end: one
# small txsim experiment, 24 random verified systems, the first 2,000
# enumerated schedules in each lock mode, one trace.
tools-smoke:
	$(GO) run ./cmd/txsim -exp e7
	$(GO) run ./cmd/txverify -runs 24
	$(GO) run ./cmd/txverify -exhaustive -limit 2000
	$(GO) run ./cmd/txverify -exhaustive -limit 2000 -exclusive
	$(GO) run ./cmd/txtrace -seed 1 >/dev/null

# The number every simplicity PR quotes: non-test Go lines outside bench/.
loc:
	./scripts/loc.sh

# The gate for a change that claims or risks performance: BASE against
# this checkout, PAIRS interleaved runs of bench/run.sh per side, then its
# --compare table. Exit status 1 means a bounded metric got worse or the
# runs spread too widely to tell. About seven minutes per pair.
BASE ?= HEAD~1
PAIRS ?= 10
WORKLOAD ?= all
perf-check:
	./scripts/perf-check.sh $(BASE) $(PAIRS) $(WORKLOAD)

# CI: the tool still runs end to end. HEAD against itself, two pairs of
# one workload — too few to trust the verdict (a 100 µs setup_s spreads
# past its bound over two runs), so only a failure to compare (status 2)
# fails the step.
perf-check-smoke:
	./scripts/perf-check.sh HEAD 2 embed_hot_rw; test $$? -le 1

clean:
	$(GO) clean ./...
