# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short test-race bench bench-json reproduce examples vet lint glvet fuzz-smoke chaos-smoke alloc-gates trace-smoke serve-smoke serve-chaos-smoke

all: build lint test test-race

build:
	go build ./...

vet:
	go vet ./...

# The repo's own analyzer suite (cmd/glvet): determinism, cycle-path purity,
# metric-name and fault-site hygiene. See DESIGN.md §8.
glvet:
	go run ./cmd/glvet ./...

# Static gate: vet, the glvet suite, and a gofmt cleanliness check over the
# whole tree.
lint: vet glvet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Alloc regression gates: the AllocsPerRun tests pinning zero steady-state
# allocation on the engine/noc/coherence/cpu cycle paths (the engine's
# overflow tier included) and the disabled
# span-emit path, the allocation bound on building a 32-core system, plus
# the allocfree static check over //glvet:cyclepath functions. See
# DESIGN.md §10.
alloc-gates:
	go test -run 'ZeroAlloc|SimNewAllocs' -v ./internal/engine ./internal/noc ./internal/coherence ./internal/cpu ./internal/trace ./internal/sim
	go run ./cmd/glvet -only allocfree ./...

# Timeline smoke: export a small traced run as Chrome trace-event JSON into
# artifacts/ and run the exporter/attribution validation tests. The artifact
# loads at ui.perfetto.dev; CI uploads artifacts/ when a test job fails.
trace-smoke:
	mkdir -p artifacts
	go run ./cmd/glsim -bench SYNTH -barrier GL -cores 16 -tier test -trace-out artifacts/synth_gl_16.trace.json
	go test -run 'TestWriteChrome|TestTraceAttribution' -v ./internal/trace .

# Job-server smoke: glsimd starts on a random loopback port, a test-tier
# job is submitted and polled to completion, then the identical spec is
# resubmitted and the check asserts a pure cache hit (no new simulation,
# cache.hits counted, byte-identical report). End to end in ~2 s; see
# DESIGN.md §12.
serve-smoke:
	go run ./cmd/glsimd -smoke

# Service chaos smoke: the host-fault campaign against in-process glsimd
# servers — seeded random plans checked by the accounting/monotonicity/
# identity/conservation oracles, the committed quarantine corpus, and the
# journal kill-and-restart recovery check — all under the race detector.
# Deterministic and well under a minute; see DESIGN.md §14.
serve-chaos-smoke:
	go test -race -count=1 ./internal/hostchaos/

# Ten-second fuzz smoke per target — the fault-plan parser, the cache model,
# the G-line barrier schedule, the engine's event queue against a sorted
# reference, both chaos layers' .repro parsers, the host-fault plan parser,
# glsimd's job-spec parser and its job-journal decoder: catches regressions
# without a dedicated fuzzing job.
fuzz-smoke:
	go test -fuzz=FuzzParsePlan -fuzztime=10s -run '^$$' ./internal/fault
	go test -fuzz=FuzzCacheOperations -fuzztime=10s -run '^$$' ./internal/cache
	go test -fuzz=FuzzBarrierSchedule -fuzztime=10s -run '^$$' ./internal/core
	go test -fuzz=FuzzEngineSchedule -fuzztime=10s -run '^$$' ./internal/engine
	go test -fuzz=FuzzParseReproducer -fuzztime=10s -run '^$$' ./internal/chaos
	go test -fuzz=FuzzParseHostPlan -fuzztime=10s -run '^$$' ./internal/serve/hostfault
	go test -fuzz=FuzzParseJobSpec -fuzztime=10s -run '^$$' ./internal/serve
	go test -fuzz=FuzzJournal -fuzztime=10s -run '^$$' ./internal/serve

# Chaos smoke: replay the minimized-reproducer corpus (pinned oracle
# verdicts) and check the fixed-seed campaign against
# testdata/chaos-campaign.golden, then explore that campaign (seed 7, 24
# plans, every protocol oracle) through the CLI. Deterministic and well
# under a minute; see DESIGN.md §9.
chaos-smoke:
	go test -run 'TestChaosCorpusReplay|TestChaosCampaignGolden' .
	go run ./cmd/reproduce -seed 7 -budget 24 -corpus testdata/chaos-corpus chaos
	go run ./cmd/reproduce -seed 7 -budget 24 chaos

test:
	go test ./...

test-short:
	go test -short ./...

# Race-detector gate over the fast tests; part of `all`.
test-race:
	go test -race -short ./...

bench:
	go test -bench=. -benchmem .

# Machine-readable benchmark snapshot: BENCH_<date>.json carries the git
# SHA and UTC timestamp the numbers were taken at plus one entry per
# benchmark result, for diffing runs over time. A later snapshot on the
# same day takes the first free name of BENCH_<date>b.json,
# BENCH_<date>c.json, ..., so no snapshot is overwritten and byte order
# stays time order. The run is pinned to
# -cpu 1, so benchmark names carry no -N GOMAXPROCS suffix and snapshots
# from hosts with different CPU counts pair by name. The bench run lands in
# a temp file first so a failing `go test -bench` propagates its exit code
# instead of leaving a truncated JSON behind. Values are located by their
# unit token (ns/op, B/op, allocs/op) rather than by column, so benchmarks
# with extra b.ReportMetric columns parse correctly. When an older
# BENCH_*.json exists, cmd/benchdelta prints the per-benchmark delta
# against the most recent one, picked before the new file is written (it
# reads legacy bare-array snapshots too).
# Set BENCH_FAIL_ABOVE=<pct> to turn the delta into a gate: the target
# fails when any benchmark's ns/op regressed by more than that percentage.
bench-json:
	@prev=$$(ls BENCH_*.json 2>/dev/null | LC_ALL=C sort | tail -1); \
	day=$$(date +%Y%m%d); out=BENCH_$$day.json; \
	for s in b c d e f g h i j k l m n o p q r s t u v w x y z; do \
		[ -e "$$out" ] || break; out=BENCH_$$day$$s.json; \
	done; \
	if [ -e "$$out" ]; then echo "bench-json: no free BENCH_$$day*.json name" >&2; exit 1; fi; \
	tmp=$$(mktemp); \
	if ! go test -bench=. -benchmem -cpu 1 -run '^$$' ./... >"$$tmp" 2>&1; then \
		cat "$$tmp"; rm -f "$$tmp"; \
		echo "bench-json: benchmark run failed; no JSON written" >&2; exit 1; \
	fi; \
	cat "$$tmp"; \
	sha=$$(git rev-parse HEAD 2>/dev/null || echo unknown); \
	ts=$$(date -u +%Y-%m-%dT%H:%M:%SZ); \
	awk -v sha="$$sha" -v ts="$$ts" \
		'BEGIN{printf("{\n\"git_sha\": \"%s\",\n\"generated_at\": \"%s\",\n\"results\": [\n", sha, ts)} \
		/^Benchmark/{ ns="0"; bytes="0"; allocs="0"; \
		for (i = 3; i <= NF; i++) { \
			if ($$i == "ns/op") ns = $$(i-1); \
			else if ($$i == "B/op") bytes = $$(i-1); \
			else if ($$i == "allocs/op") allocs = $$(i-1); \
		} \
		if (n++) printf(",\n"); \
		printf("  {\"name\":\"%s\",\"iters\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}", $$1, $$2, ns, bytes, allocs) } \
		END{print "\n]\n}"}' "$$tmp" > "$$out"; \
	rm -f "$$tmp"; \
	echo "wrote $$out"; \
	if [ -n "$$prev" ]; then \
		go run ./cmd/benchdelta $${BENCH_FAIL_ABOVE:+-fail-above $$BENCH_FAIL_ABOVE} "$$prev" "$$out"; \
	else echo "bench-json: no previous BENCH_*.json baseline; nothing to compare yet"; fi

# Regenerate every paper table/figure at the repro tier (paper data sizes).
reproduce:
	go run ./cmd/reproduce -tier repro all

examples:
	go run ./examples/quickstart
	go run ./examples/stencil
	go run ./examples/multibarrier
	go run ./examples/hierarchical
