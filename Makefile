# Tier-1 verification: build, vet, staticcheck (when installed; CI installs
# it, local runs without it just print a notice), full test suite (property
# harness and examples included), and the concurrency-bearing packages plus
# the CCM core and property suites under the race detector (see ROADMAP.md).
# The deadexport gate fails on an exported identifier under internal/ that
# only its own package's tests reference (internal/tools/deadexport).
# The repo benchmark (ccmbench/) is its own module, so `./...` skips it: it
# is vetted and tested separately, and a change that breaks its build fails
# here. Metric exposition text (# HELP / # TYPE) may only be written by the
# one metric registry, internal/obs/registry.go, and only the sweep-kind
# table, internal/experiment/kinds.go, may switch on a kind's name.
# Set FUZZ=1 to also smoke the native fuzz targets (see fuzz-smoke).
verify:
	go build ./...
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "verify: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	go test ./...
	go run ./internal/tools/deadexport
	go test -race ./internal/core/... ./internal/obs/... ./internal/simtest/... ./internal/experiment/... ./internal/serve/... ./internal/cluster/...
	cd ccmbench && go vet ./... && go test ./...
	@if grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build -e '# HELP' -e '# TYPE' . | grep -vx './internal/obs/registry.go'; then \
		echo "verify: metric exposition text outside internal/obs/registry.go (register the metric instead)"; exit 1; \
	fi
	@if grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build -e 'case[^:]*\bSweep(Range|Density|Loss)\b' -e 'case[^:]*"(range|density|loss)"' . | grep -vx './internal/experiment/kinds.go'; then \
		echo "verify: switch on a sweep-kind name outside internal/experiment/kinds.go (add to the kind's table entry instead)"; exit 1; \
	fi
ifeq ($(FUZZ),1)
	$(MAKE) fuzz-smoke
endif

# Scale tier: the simtest differential oracles at 10^4–10^5 tags plus the
# million-tag smoke session (duration + live-heap budgets, bitmap held to
# DirectBitmap exactly). Opt-in via CCM_SCALE=1 so `go test ./...` stays
# fast; CI runs it as its own job with timeout headroom.
test-scale:
	CCM_SCALE=1 go test -run 'TestScale' -v -timeout 20m ./internal/simtest/

# End-to-end crash-resume smoke against a real ccmserve process: submit a
# sweep, kill -9 at ~50% of its points, restart on the same checkpoint dir,
# and assert the resumed result is byte-identical to an uninterrupted run.
serve-e2e:
	./scripts/serve_e2e.sh

# Telemetry load smoke against a real ccmserve process: gentle ccmload run
# gated on its p99/alert/series checks, then induced overload to watch the
# burn-rate alert fire and resolve (API, /metrics, and structured log).
load-smoke:
	./scripts/load_smoke.sh

# Cluster failover e2e: 3 ccmserve workers behind ccmrouter, a gentle
# ccmload gate through the router, then kill one worker mid-run — its
# breaker must trip (visible on /metrics and /api/v1/alerts), its keyspace
# re-route, and every re-executed job byte-match the single-node reference;
# finally the worker restarts and the breaker closes via half-open probes.
cluster-e2e:
	./scripts/cluster_e2e.sh

# Short coverage-guided runs of every native fuzz target, one at a time (the
# go tool accepts a single -fuzz pattern per package invocation). The
# checked-in corpora under */testdata/fuzz/ always run as plain tests; this
# target additionally mutates for FUZZTIME per target.
FUZZTIME ?= 10s
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzBitmapOps$$' -fuzztime $(FUZZTIME) ./internal/bitmap/
	go test -run '^$$' -fuzz '^FuzzDeriveSeed$$' -fuzztime $(FUZZTIME) ./internal/prng/
	go test -run '^$$' -fuzz '^FuzzTopologyTiers$$' -fuzztime $(FUZZTIME) ./internal/topology/
	go test -run '^$$' -fuzz '^FuzzTopologyAdjacency$$' -fuzztime $(FUZZTIME) ./internal/topology/
	go test -run '^$$' -fuzz '^FuzzSICP$$' -fuzztime $(FUZZTIME) ./internal/sicp/
	go test -run '^$$' -fuzz '^FuzzSession$$' -fuzztime $(FUZZTIME) ./internal/simtest/
	go test -run '^$$' -fuzz '^FuzzJobSpecKey$$' -fuzztime $(FUZZTIME) ./internal/serve/
	go test -run '^$$' -fuzz '^FuzzCheckpointReplay$$' -fuzztime $(FUZZTIME) ./internal/serve/
	go test -run '^$$' -fuzz '^FuzzStreamCursor$$' -fuzztime $(FUZZTIME) ./internal/serve/
	go test -run '^$$' -fuzz '^FuzzHashRing$$' -fuzztime $(FUZZTIME) ./internal/cluster/
	go test -run '^$$' -fuzz '^FuzzRouterPath$$' -fuzztime $(FUZZTIME) ./internal/cluster/
	go test -run '^$$' -fuzz '^FuzzParseRules$$' -fuzztime $(FUZZTIME) ./internal/obs/timeseries/

# Sequential-vs-parallel sweep benchmark (one full Quick() sweep each;
# results are bit-identical, only the wall clock differs).
bench-sweep:
	go test -bench=ExperimentQuick -benchtime=1x -run='^$$' .

# The tracked benchmark suite: the deployment draw, the topology build and
# the SICP collection at the paper's ranges and at scale-1e5's 10^5 tags,
# the CICP collection at the paper's ranges, tracing overhead (core),
# the pooled session kernel at 10^4–10^6 tags plus arena reuse (allocs/op
# pinned at the small per-session constant — any per-round allocation
# regression multiplies it and trips the alloc gate), the bitmap OR-merge
# hot paths, sweep worker scaling, the serve
# layer's submission fast paths (content-address hashing, cache hits,
# warm-cache Submit), and the per-point execution path with observability
# off (pinned at zero allocs) and fully on. The raw `go test -bench` lines
# plus per-benchmark mean/min/max rollups land in BENCH_observability.json
# (recover a benchstat input with `jq -r '.benchmarks[].raw'`).
BENCH_PKGS    = ./internal/geom/ ./internal/topology/ ./internal/sicp/ ./internal/core/ ./internal/bitmap/ ./internal/experiment/ ./internal/serve/ ./internal/obs/timeseries/ ./internal/cluster/
BENCH_PATTERN = 'Deploy|BuildPaper|BuildN1e5|CollectPaper|CollectCICPPaper|CollectN1e5|SessionTracer|SessionN|SessionPaper|RunnerReuse|Bitmap|SweepWorkers|ServeSpecKey|ServeSubmitHit|ServePointDone|Timeseries|ClusterRouteAdmit'
bench:
	go test -bench=$(BENCH_PATTERN) -benchmem -count=5 -run='^$$' $(BENCH_PKGS) \
		| tee /dev/stderr | go run ./internal/tools/benchjson > BENCH_observability.json

# Regression gate: re-run the suite and fail (exit 1) when any benchmark's
# mean ns/op or allocs/op regressed beyond tolerance against the committed
# baseline. Update the baseline deliberately with `make bench` (see
# DESIGN.md's baseline update policy), never as part of a failing run.
BENCH_COUNT           ?= 3
BENCH_TIME            ?= 0.3s
BENCH_TOLERANCE       ?= 0.50
BENCH_ALLOC_TOLERANCE ?= 0.10
bench-compare:
	go test -bench=$(BENCH_PATTERN) -benchmem -count=$(BENCH_COUNT) \
		-benchtime=$(BENCH_TIME) -run='^$$' $(BENCH_PKGS) \
		| go run ./internal/tools/benchjson compare \
			-baseline BENCH_observability.json \
			-tolerance $(BENCH_TOLERANCE) -alloc-tolerance $(BENCH_ALLOC_TOLERANCE)

# Report-only A/B of the tracked benchmarks: BASE (a git revision) against
# the working tree, each side's test binaries run as PAIRS interleaved pairs
# with the side that goes first alternating (scripts/bench_ab.sh). Per
# benchmark it prints the change's wins, both medians, the base's IQR and a
# one-sided sign-test p; 9 wins of 10 is p ≈ 0.011. Narrow it with BENCH,
# e.g. make bench-ab BASE=HEAD~1 BENCH='SessionPaper|BuildN1e5'.
BASE  ?= HEAD
BENCH ?= $(BENCH_PATTERN)
PAIRS ?= 10
bench-ab:
	./scripts/bench_ab.sh '$(BASE)' '$(subst ',,$(BENCH))' '$(PAIRS)' '$(BENCH_TIME)' $(BENCH_PKGS)

# Report-only A/B of the repository benchmark (ccmbench/): BASE against the
# working tree, PAIRS interleaved pairs of untraced runs at seed E2E_SEED of
# every workload BENCHMARK.json lists, each run_seconds long
# (scripts/ccmbench_ab.sh). Per workload and end-to-end metric it prints the
# change's wins, in the direction BENCHMARK.json's "better" names, both
# medians, the base's IQR and a one-sided sign-test p. A pair of 30 s runs
# takes ~65 s, so 10 pairs of the three workloads take ~35 minutes.
E2E_SEED ?= 1
bench-ab-e2e:
	./scripts/ccmbench_ab.sh '$(BASE)' '$(PAIRS)' '$(E2E_SEED)'

.PHONY: verify test-scale serve-e2e load-smoke cluster-e2e fuzz-smoke bench bench-sweep bench-compare bench-ab bench-ab-e2e
