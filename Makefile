# Convenience targets for the DSN'05 coordinated-checkpointing reproduction.

GO ?= go

.PHONY: all build test vet race bench bench-smoke bench-record bench-trend cover ci validate-scenarios sweep-resume-smoke obs-smoke provenance-smoke vr-smoke e2ebench-check e2ebench-pairs figures figures-check figures-paper examples clean

all: build vet test

build:
	$(GO) build ./...

# Vet plus formatting: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test: vet
	$(GO) test ./...

# Data-race tier: vet plus the full suite under the race detector. The
# execution engine (internal/exec) and everything layered on it must pass.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# One benchmark per paper figure plus ablations and micro-benchmarks.
# The scheduler benchmarks (BenchmarkSettle, BenchmarkTrajectory) compare
# the incremental dependency-index path against the full-scan fallback;
# BenchmarkObsOverhead pins the instrumented event loop within 3% of the
# bare one (recorded in REPORT.md); the internal/obs benchmarks measure
# the registry primitives themselves.
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -run NONE -bench . -benchmem -count=5 ./internal/des ./internal/san ./internal/model ./internal/obs

# The sentinel's benchmark set, declared once for bench-smoke, bench-record
# and CI, and only code the simulator runs: the SAN executor's calendar at
# the base model's depth, the instance-recycle benchmarks, the incremental
# base-model trajectory (the san settle hot loop) and the span check's
# window fold on a recycled error-propagation instance. -benchtime=1x was
# a measurement theater — a single iteration times mostly setup and
# scheduler noise, so the archived ns/op could swing 10x between identical
# commits; 100 iterations × 3 samples gives compare's median+MAD detector
# something with an actual central tendency, while staying cheap enough
# for every CI run.
SENTINEL_BENCH = -run NONE -bench 'Calendar$$|RecycleVsRebuild|Trajectory/incremental$$|SpanWindow$$' \
	-benchtime=100x -count=3 -benchmem ./internal/san ./internal/model

# Allocation-economy smoke: the sentinel set, archived as BENCH_5.json via
# ccbench.
bench-smoke:
	$(GO) test $(SENTINEL_BENCH) | $(GO) run ./cmd/ccbench -o BENCH_5.json

# Run the sentinel set and append a provenance-stamped report to the local
# history (CI's bench-trend job records through this target).
bench-record:
	$(GO) test $(SENTINEL_BENCH) | $(GO) run ./cmd/ccbench record -history BENCH_HISTORY.jsonl -o BENCH_5.json

# Performance-regression sentinel: record, render the trend, and gate on
# the last two entries (median + MAD noise band; -warn-only keeps local
# runs informative rather than fatal — CI drops the flag).
bench-trend: bench-record
	$(GO) run ./cmd/ccbench trend -history BENCH_HISTORY.jsonl
	$(GO) run ./cmd/ccbench compare -history BENCH_HISTORY.jsonl -warn-only

# Coverage profile plus a per-package summary (total line last).
cover:
	$(GO) test -cover -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@echo "per-function detail: $(GO) tool cover -func=coverage.out"
	@echo "HTML report:         $(GO) tool cover -html=coverage.out"

# Scenario-catalog gate: every scenario (built-in catalog plus the
# registry plumbing) must parse, validate, convert to a model
# configuration, and complete a deterministic smoke run inside its
# expected useful-work band, and the registry-built configurations must
# stay bit-identical to the hand-built differential ones.
validate-scenarios:
	$(GO) test -run 'TestBuiltinCatalog|TestSmokeRunEveryScenario' ./internal/scenario
	$(GO) test -run 'TestScenarioRegistryPinsVariants' ./internal/model

# Crash-resume gate for the block-sharded sweep engine (internal/blocks):
# plan a sweep into a run directory, race two real worker processes over
# it, SIGKILL one mid-block, -resume, finish with a fresh worker, -reduce,
# and require the merged journal to be byte-identical (timestamps aside)
# to a monolithic single-process run — across two catalog scenarios — and
# the reduced -work forecast to equal the monolithic one.
sweep-resume-smoke:
	$(GO) test -count=1 -run 'TestCrashResumeBitIdentical' -v ./cmd/ccsweep
	$(GO) test -run 'TestWorkersBitIdentical|TestTornJournalIsIncompleteNotFatal' ./internal/blocks

# Fleet-telemetry gate: two real worker processes run a planned sweep with
# fast heartbeats, one is SIGKILLed mid-block, and the run directory's
# telemetry must tell the story — victim flagged dead by heartbeat age
# with its flight-recorder postmortem intact, survivor's final snapshot
# says "done", -fleet/-timeline emit valid JSON (Perfetto-loadable, one
# track per worker, a span per committed block), and the merged fleet
# registry renders as parseable Prometheus text exposition. Plus the
# in-process gates: snapshot-merge property, Scan state partition,
# /metricz.prom endpoint.
obs-smoke:
	$(GO) test -count=1 -run 'TestFleetTelemetryEndToEnd' -v ./cmd/ccsweep
	$(GO) test -run 'TestMergeSnapshots|TestWriteProm|TestDebugServerPromEndpoint|TestFlightRecorder' ./internal/obs
	$(GO) test -run 'TestScanStateSingleValued|TestWorkWritesHeartbeats|TestCollectFleet|TestWriteTimeline' ./internal/blocks

# Provenance-and-profiles gate: two real worker processes run a planned
# sweep and the run directory must identify what produced it — heartbeats
# stamped with binary provenance and the manifest hash, a doctored stamp
# flagged as a mixed-binary fleet with the minority worker marked, and an
# armed ProfileCapture leaving parseable pprof files. Plus the in-process
# gates: fleet majority vote, Work-loop stamping, and the ccbench sentinel
# end-to-end (bench → record → doctored regression → compare exits 1).
provenance-smoke:
	$(GO) test -count=1 -run 'TestProvenanceAndProfilesEndToEnd' -v ./cmd/ccsweep
	$(GO) test -run 'TestCollectFleetProvenanceMismatch|TestWorkStampsProvenance' ./internal/blocks
	$(GO) test -count=1 -run 'TestSentinelEndToEnd' ./cmd/ccbench

# Variance-reduction gate (DESIGN.md §19): a seeded ~30-second paired-vs-
# plain convergence comparison on the base scenario. The hard gate is the
# engine's measured variance-reduction factor — the CRN pairing's CI
# shrink (Var A + Var B)/Var(A−B) on a small design change — at 2×, plus
# "antithetic must help, never hurt" (antithetic's theoretical ceiling on
# exponential-noise steady-state estimates is 1/(π²/6−1) ≈ 2.8×, too close
# to 2× to gate robustly on its own). The same measurement in benchmark
# form is archived into BENCH_HISTORY.jsonl so the sentinel watches
# statistical efficiency — replications_to_halfwidth, lower is better —
# alongside events/s. Everything is seeded: a gate flip means the pairing
# machinery changed, not an unlucky run.
vr-smoke:
	$(GO) test -count=1 -run 'TestVRSmokeGate' -v .
	$(GO) test -run NONE -bench 'VRSmoke$$' -benchtime=1x . | $(GO) run ./cmd/ccbench record -history BENCH_HISTORY.jsonl -o BENCH_VR.json
	$(GO) run ./cmd/ccbench compare -history BENCH_HISTORY.jsonl -metric replications_to_halfwidth -warn-only

# Benchmark-module gate: e2ebench/ is its own module (go.mod with a
# replace onto this one), so `./...` at the root never compiles it and an
# API break in runner or blocks would otherwise surface only when the
# benchmark runs. Build (binary discarded), vet and test it in place.
e2ebench-check:
	cd e2ebench && $(GO) build -o /dev/null ./... && $(GO) vet ./... && $(GO) test ./...

# Paired end-to-end comparison of revision REF against the working tree on
# one e2ebench workload: REF is built from a git worktree under
# .bench_build/, each side through its own e2ebench/run.sh; PAIRS pairs
# alternate which side runs first, pair i runs seed SEED+i-1 on both
# sides, and every end-to-end metric's per-side median, the reference's
# quartiles and the median ratio are printed (scripts/e2ebench-pairs.sh).
REF ?= HEAD
WORKLOAD ?= compare-correlated
PAIRS ?= 10
SEED ?= 1
e2ebench-pairs:
	bash scripts/e2ebench-pairs.sh "$(REF)" "$(WORKLOAD)" "$(PAIRS)" "$(SEED)"

# Everything the GitHub Actions workflow runs (.github/workflows/ci.yml),
# locally: the tier-1 suite, every example run once, the race tier, the
# coverage profile, the scenario-catalog gate, the sweep crash-resume
# gate, the figure gate, the fleet telemetry gate, the
# provenance/sentinel gate, the variance-reduction gate, and the
# benchmark-module gate.
ci: all examples race cover validate-scenarios sweep-resume-smoke figures-check obs-smoke provenance-smoke vr-smoke e2ebench-check

# Regenerate every paper figure (quick scale, seed 1) into results/ and,
# in the same pass, the claim table heading REPORT.md (the hand-written
# sections after its "claims pass." line are kept as they are). Fails if
# any claim fails.
figures:
	$(GO) run ./cmd/ccfigures -extras -out results/ -report REPORT.md

# Figure gate: regenerate the quick-scale figures and the claim table into
# a temp dir (the table into a copy of REPORT.md) and require both
# byte-identical to the committed results/ and REPORT.md, with every claim
# passing (the figures are seeded and worker-count invariant, so any diff
# is a real change that needs `make figures`).
figures-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		cp REPORT.md "$$tmp/REPORT.md" && \
		$(GO) run ./cmd/ccfigures -extras -out "$$tmp/results" -report "$$tmp/REPORT.md" && \
		diff -r results "$$tmp/results" && diff REPORT.md "$$tmp/REPORT.md" && \
		echo "figures-check: results/ and REPORT.md are up to date; every claim passes"

# Paper-scale windows (5 reps × 1000h warmup × 4000h measured) — slow.
figures-paper:
	$(GO) run ./cmd/ccfigures -paper -extras -out results-paper/

# Run every example once: they drive the public API end to end (capacity
# through OptimalProcessors, jobplanner through Sensitivity and Compare).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/capacity
	$(GO) run ./examples/interval
	$(GO) run ./examples/correlated
	$(GO) run ./examples/protocol
	$(GO) run ./examples/validate
	$(GO) run ./examples/jobplanner

clean:
	rm -rf results results-paper coverage.out
