GO ?= go

.PHONY: build test race race-all vet fmt-check lint examples bench bench-smoke benchcmp fuzz fuzz-smoke soak soak-overload crash sched-crash verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Run every example's main; `go build ./...` only compiles them. A non-zero
# exit fails the target. Under a few seconds.
examples:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# Race-detect the packages with real concurrency: the batch-extraction
# worker pool, the market store (event stream included), its write-ahead
# journal, the scheduler and KPI services, the admission gate, the metric
# families (each creates children under its write lock, up to its bound),
# and the commands that drive them. The allocation tests in these packages
# hold under -race too.
race:
	$(GO) test -race ./internal/pipeline ./internal/market ./internal/wal ./internal/sched ./internal/kpi ./internal/admission ./internal/obs ./cmd/flexextract ./cmd/mirabeld

race-all:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail when any tracked Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Run the full flexvet suite — the domain invariants go vet cannot know
# about, doccheck's contract-package doc coverage included
# (docs/LINTING.md describes every analyzer).
lint:
	$(GO) run ./scripts/flexvet ./...

bench:
	$(GO) test -bench . -benchmem -run XXX .

# Build and test the bench/ module, which the root `go test ./...` does
# not reach (bench/ is its own module), so an internal API change that
# breaks the benchmark fails here. Offline; about 10 s.
bench-smoke:
	cd bench && $(GO) test ./...

# The one perf gate: flexbench (BENCHMARK.json) on BASE and on the working
# tree in five alternating pairs per workload. Fails on a failed check, a
# higher failed share, or a gated metric worse than its bound
# (docs/TESTING.md). About a quarter of an hour.
BASE ?= HEAD
benchcmp:
	$(GO) run ./scripts/benchcmp $(BASE)

# Every fuzz target, as Target:package. `make fuzz` runs each for 30 s;
# `make fuzz-smoke`, CI's short pass, runs the same list for 10 s, enough
# to catch a freshly introduced panic without stalling the workflow.
FUZZ_TARGETS := \
	FuzzParamsValidate:./internal/core \
	FuzzOfferValidate:./internal/flexoffer \
	FuzzReadJSON:./internal/flexoffer \
	FuzzOfferJSON:./internal/flexoffer \
	FuzzReadCSV:./internal/timeseries \
	FuzzParseStamp:./internal/timeseries \
	FuzzParseValue:./internal/timeseries \
	FuzzSeriesJSON:./internal/timeseries \
	FuzzSubmitBatch:./internal/market \
	FuzzListQuery:./internal/market \
	FuzzDecodeEvent:./internal/market \
	FuzzWALReplay:./internal/wal \
	FuzzScheduleQuery:./internal/sched \
	FuzzKPIQuery:./internal/kpi \
	FuzzLintDirectives:./internal/lint

fuzz: FUZZTIME := 30s
fuzz-smoke: FUZZTIME := 10s

# One recipe line per target (the definition ends in an empty line), so
# make stops at the first failing target and `make -n` lists each command.
define fuzz-target
$(GO) test -run XXX -fuzz $(word 1,$(subst :, ,$(1))) -fuzztime $(FUZZTIME) $(word 2,$(subst :, ,$(1)))

endef

fuzz fuzz-smoke:
	$(foreach t,$(FUZZ_TARGETS),$(call fuzz-target,$(t)))

# Soak: the end-to-end extraction→market loop under fault injection and
# the race detector (see docs/TESTING.md).
soak:
	$(GO) test -race -timeout 5m -run TestSoak ./cmd/flexload

# Overload soak only: flexload -overload at several times the admission
# capacity (shed accounting, Retry-After compliance, bounded-subscription
# resync) plus the mid-soak drain with zero acked-offer loss
# (see docs/TESTING.md). A subset of `make soak` for fast iteration on
# the overload path.
soak-overload:
	$(GO) test -race -timeout 5m -run 'TestSoakOverload|TestSoakDrainShutdown' ./cmd/flexload

# Crash: the kill-and-recover suite under the race detector — seeded disk
# faults tear the journal mid-append and recovery must rebuild exactly
# the acknowledged state (see docs/TESTING.md). Covers the market store's
# journal and the scheduler's decision ledger.
crash:
	$(GO) test -race -timeout 5m -run 'TestCrash|TestJournaled|TestDiskFault|TestTornTail|TestCorrupt' ./internal/wal ./internal/faultinject ./internal/market ./internal/sched

# Just the scheduler-ledger half of the crash suite: seeded kills around
# the write-ahead decision journal, then the acked ≤ recovered ≤ acked+1
# invariant on reopen (docs/SCHEDULING.md).
sched-crash:
	$(GO) test -race -timeout 5m -run TestCrashSchedulerLedger ./internal/sched

# The full pre-merge gate, and what CI runs: formatting, vet, flexvet,
# build, test, the examples, the race detector over the concurrent
# packages, then the bench/ module's build and tests, which `go test ./...`
# cannot reach.
verify: fmt-check vet lint build test examples race bench-smoke
