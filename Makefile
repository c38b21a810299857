# hetgrid build/verify harness.
#
#   make verify   — everything the CI gate runs: a gofmt check, build,
#                   vet (plus a check that only internal/sim,
#                   internal/proto, cmd/* and bench import
#                   internal/perf), race tests,
#                   the end-to-end benchmark harness's own tests (bench/),
#                   a 10 s fuzz smoke of the requirement-vector oracle,
#                   the scenario loader, the sharded engine's
#                   determinism battery, the aggregation table's
#                   churn differential and the central comparator's
#                   candidate index, a short benchmark pass that
#                   regenerates BENCH_22.json against the BENCH_21.json
#                   baseline and fails on >15%
#                   ns/op or allocs/op regressions, the 10k-node ScaleXL,
#                   100k-node ScaleXXL and 1M-node ScaleXXXL smoke runs,
#                   and telemetry smoke runs that exercise the
#                   metrics/trace exports — including the sharded
#                   figure's telemetry byte-compared at GOMAXPROCS=1
#                   and 4, the scenario metric checkpoints and the
#                   serial-vs-sharded scenario byte comparison, once
#                   with the corpus scheduler and once with the central
#                   comparator under protocol churn.

GO ?= go
BENCHTMP ?= /tmp/hetgrid_bench
ARTIFACTS ?= artifacts

.PHONY: all fmt-check build vet test race bench-harness fuzz-smoke bench bench-xl bench-xxl bench-xxxl metrics-smoke scenario-smoke verify

all: build

# fmt-check fails when any Go file in the tree, bench/ included, is not
# gofmt-clean, and lists the offenders.
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "fmt-check: run gofmt -w on the files above"; exit 1; }

build:
	$(GO) build ./...

# vet also fails when a package outside internal/sim, internal/proto
# and cmd/* imports internal/perf in non-test code (bench/ is its own
# module and is not listed): the registry holds only the two counters
# the end-to-end benchmark reads, and must not grow back.
vet:
	$(GO) vet ./...
	@bad=$$($(GO) list -f '{{range .Imports}}{{if eq . "hetgrid/internal/perf"}}{{$$.ImportPath}} {{end}}{{end}}' ./... \
		| tr ' ' '\n' | grep -Ev '^(hetgrid/(internal/(sim|proto)|cmd/[^/]+))?$$'); \
		test -z "$$bad" || { echo "vet: only internal/sim, internal/proto, cmd/* and bench may import hetgrid/internal/perf; found:" $$bad; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-harness runs the tests of bench/, the end-to-end benchmark
# harness. It is a Go module of its own, so the root `go test ./...`
# never enters it; this target is what keeps its bucketer, percentile
# helpers and toy-scale smoke run in CI (about 2 s).
bench-harness:
	$(GO) -C bench test ./...

# fuzz-smoke runs five fuzz targets for 10 s each past their committed
# seed corpora (which `go test` already replays): FuzzJobReq compares
# the type-sorted CE requirement vector with its map-keyed oracle,
# FuzzScenarioLoad feeds mutated scenario YAML through parse, decode and
# validate, which must return errors, never panic, and builds each
# accepted spec of at most 64 nodes with NewWorld, which must not panic,
# FuzzShardedDeterminism requires a random actor workload to report
# byte-identically at every (S, W), FuzzChurnIncremental requires
# the aggregation table, synchronized across random churn and refresh
# boundaries, to match a full recompute bit for bit, and
# FuzzCentralIndex requires the central comparator, across random
# interleavings of submissions, time, joins, leaves, dirty-set
# poisoning and placements, to decide exactly as the full-scan
# reference and to keep ranked lists equal to a rebuild.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzJobReq$$' -fuzztime 10s ./internal/resource
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioLoad$$' -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzShardedDeterminism$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzChurnIncremental$$' -fuzztime 10s ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzCentralIndex$$' -fuzztime 10s ./internal/sched

# bench regenerates BENCH_22.json: the figure drivers run at 3 iterations
# (each iteration is a full reduced-scale experiment); the hot-path
# micro-benchmarks — placement, aggregation refresh and greedy CAN
# routing at d=5 and d=11 (CANRoute) — run at 1000 so the overlay
# caches' one-time build cost amortizes out and ns/op reflects the
# steady state (the pre-cache
# baselines are iteration-count-independent, so the comparison is
# unaffected). Each suite repeats (-count; 10 for the millisecond-cheap
# hot suite, 5 for the figure drivers) and benchjson keeps the fastest
# run per benchmark — the low-noise estimator (external interference
# only ever adds time, so min-of-N converges on the true cost as N
# grows; 3 was not enough on busy shared runners) — before
# embedding BENCH_21.json entries as baselines; the gate then fails the
# build when any entry regresses >15% ns/op, or grows its allocs/op by
# more than 15% and at least one whole allocation (so the zero-alloc
# hot paths fail on any new allocation). The microsecond-scale hot
# suite runs first, while the machine is coolest; the 10k-node
# incremental-aggregation and churn-storm suites run at 100 iterations
# (their all-dirty / full-rebuild cases cost milliseconds each). The
# figure-driver and aggregation suites each run as TWO separate go
# test processes: their run-to-run variance is process-level, not
# iteration-level (the same binary has measured Fig8 vanilla/dims=11
# at 112 ms in one process and 145–180 ms across all -count repeats of
# another — heap layout and host frequency state stick for a process
# lifetime), so min-of-N only converges when the N samples come from
# independent processes. The sharded-engine suite runs as two processes
# for the same reason; its entries carry the runner's GOMAXPROCS in the
# JSON, and the gate only compares them against baselines measured at
# the same parallelism (see cmd/benchjson). The sharded telemetry
# overhead pair (metrics=off / metrics=on over the identical heartbeat
# workload) also runs as two processes; its gated entries keep the
# plane's per-barrier sampling cost from creeping. The sharded churn-storm
# pair (ChurnStormSharded W=1 / W=max) runs the same way: it prices
# control-plane churn under sustained heartbeat traffic; the anchored
# regex keeps the ungated 100k smoke variant out of the gate.
bench:
	$(GO) test -run '^$$' -bench 'Placement|PlaceSteadyState|AggRefresh$$|CANRoute$$' \
		-benchmem -benchtime 1000x -count 10 . | tee $(BENCHTMP)_hot.txt
	$(GO) test -run '^$$' -bench 'AggRefreshIncremental|ChurnStorm$$' \
		-benchmem -benchtime 100x -count 3 . | tee $(BENCHTMP)_agg1.txt
	$(GO) test -run '^$$' -bench 'AggRefreshIncremental|ChurnStorm$$' \
		-benchmem -benchtime 100x -count 3 . | tee $(BENCHTMP)_agg2.txt
	$(GO) test -run '^$$' -bench 'ShardedEngine' \
		-benchmem -benchtime 100x -count 3 . | tee $(BENCHTMP)_shard1.txt
	$(GO) test -run '^$$' -bench 'ShardedEngine' \
		-benchmem -benchtime 100x -count 3 . | tee $(BENCHTMP)_shard2.txt
	$(GO) test -run '^$$' -bench 'ShardedHeartbeatMetricsOverhead' \
		-benchmem -benchtime 3x -count 3 . | tee $(BENCHTMP)_tele1.txt
	$(GO) test -run '^$$' -bench 'ShardedHeartbeatMetricsOverhead' \
		-benchmem -benchtime 3x -count 3 . | tee $(BENCHTMP)_tele2.txt
	$(GO) test -run '^$$' -bench 'ChurnStormSharded$$' \
		-benchmem -benchtime 3x -count 3 . | tee $(BENCHTMP)_churn1.txt
	$(GO) test -run '^$$' -bench 'ChurnStormSharded$$' \
		-benchmem -benchtime 3x -count 3 . | tee $(BENCHTMP)_churn2.txt
	$(GO) test -run '^$$' -bench 'Fig5InterArrival|Fig8Messages|HeartbeatRound|ChurnRound|WorkloadGen' \
		-benchmem -benchtime 3x -count 3 . | tee $(BENCHTMP)_figs1.txt
	$(GO) test -run '^$$' -bench 'Fig5InterArrival|Fig8Messages|HeartbeatRound|ChurnRound|WorkloadGen' \
		-benchmem -benchtime 3x -count 3 . | tee $(BENCHTMP)_figs2.txt
	cat $(BENCHTMP)_figs1.txt $(BENCHTMP)_figs2.txt \
		$(BENCHTMP)_agg1.txt $(BENCHTMP)_agg2.txt \
		$(BENCHTMP)_shard1.txt $(BENCHTMP)_shard2.txt \
		$(BENCHTMP)_tele1.txt $(BENCHTMP)_tele2.txt \
		$(BENCHTMP)_churn1.txt $(BENCHTMP)_churn2.txt $(BENCHTMP)_hot.txt > $(BENCHTMP)_all.txt
	$(GO) run ./cmd/benchjson -parse $(BENCHTMP)_all.txt -pr 22 -prev BENCH_21.json -gate 15 -out BENCH_22.json

# bench-xl is the extra-large smoke: one full 10,000-node load-balance
# run (reduced job count), proving the incremental aggregation plane
# holds up an order of magnitude past the paper's evaluation. Kept out
# of the BENCH_*.json gate — a single iteration is too noisy to gate,
# and the incremental suite above already gates the underlying costs.
bench-xl:
	$(GO) test -run '^$$' -bench 'ScaleXLLoadBalance' \
		-benchtime 1x -count 1 -timeout 20m . | tee $(BENCHTMP)_xl.txt

# bench-xxl is the churn-regime smoke two orders past the paper's
# evaluation: one full 100,000-node load-balance run, the
# 100k-population churn-storm comparison (membership sync vs full
# rebuild), and two sharded-core speedup pairs over identical 100k-node
# workloads at one worker and at GOMAXPROCS — pure heartbeats
# (ShardedHeartbeat100k) and heartbeats under sustained churn
# (ChurnStormSharded100k); each pair's W=1/W=max ns/op ratio in the
# log is the engine's parallel speedup on this runner.
# Ungated like bench-xl — single iterations are too noisy to gate, and
# the 10k ChurnStorm entry in the BENCH_*.json gate already pins the
# sync path's cost — but the run fails outright if the sync path stops
# engaging (the benchmark asserts every refresh synchronized membership)
# or if the churn storm never injects a failure. The generous timeout is
# headroom for slow shared runners.
bench-xxl:
	$(GO) test -run '^$$' -bench 'ScaleXXLLoadBalance|ChurnStormXXL|ShardedHeartbeat100k|ChurnStormSharded100k' \
		-benchtime 1x -count 1 -timeout 60m . | tee $(BENCHTMP)_xxl.txt

# bench-xxxl is the million-node smoke — the regime the sharded core
# exists for: one full ScaleXXXL load-balance run (reduced job count)
# proving that a seven-figure grid completes end to end. Ungated like
# its siblings; the timeout is sized for slow shared runners.
bench-xxxl:
	$(GO) test -run '^$$' -bench 'ScaleXXXLLoadBalance' \
		-benchtime 1x -count 1 -timeout 120m . | tee $(BENCHTMP)_xxxl.txt

# metrics-smoke exercises the whole telemetry plane end to end at tiny
# scale: the measured heartbeat-volume figure with sampled metrics, a
# load-balancing run with metrics + placement-span tracing, the
# traceview span tree over the result, and the sharded-core figure's
# telemetry — the serial Figure 8 registrations sampled at window
# barriers — exported as both JSONL and CSV. The sharded figure runs at
# GOMAXPROCS=1 and GOMAXPROCS=4 (shards = workers = GOMAXPROCS) and its
# JSONL, CSV and text must be byte-identical across the two, so a break
# of the (S, W) determinism contract fails the target. Artifacts land
# in $(ARTIFACTS)/ (uploaded by CI).
metrics-smoke: build
	mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/figures -fig hb -scale 0.04 -seed 1 \
		-metrics $(ARTIFACTS)/fighb_metrics.jsonl -out $(ARTIFACTS)/fighb.txt
	$(GO) run ./cmd/hetgridsim -nodes 60 -jobs 300 -arrival 20 \
		-metrics $(ARTIFACTS)/lb_metrics.jsonl -trace $(ARTIFACTS)/lb_trace.jsonl \
		> $(ARTIFACTS)/lb.txt
	$(GO) run ./cmd/traceview -spans -top 5 $(ARTIFACTS)/lb_trace.jsonl \
		> $(ARTIFACTS)/lb_spans.txt
	GOMAXPROCS=1 $(GO) run ./cmd/figures -fig sharded -scale 0.04 -seed 1 -metrics-interval 10 \
		-metrics $(ARTIFACTS)/sharded_metrics.jsonl \
		-metrics-csv $(ARTIFACTS)/sharded_metrics.csv -out $(ARTIFACTS)/sharded.txt
	GOMAXPROCS=4 $(GO) run ./cmd/figures -fig sharded -scale 0.04 -seed 1 -metrics-interval 10 \
		-metrics $(ARTIFACTS)/sharded_metrics_p4.jsonl \
		-metrics-csv $(ARTIFACTS)/sharded_metrics_p4.csv -out $(ARTIFACTS)/sharded_p4.txt
	@for f in sharded_metrics.jsonl sharded_metrics.csv sharded.txt; do \
		cmp $(ARTIFACTS)/$$f $(ARTIFACTS)/$$(echo $$f | sed 's/\./_p4./') \
			|| { echo "metrics-smoke: $$f differs between GOMAXPROCS=1 and GOMAXPROCS=4"; exit 1; }; done
	@test -s $(ARTIFACTS)/fighb_metrics.jsonl || { echo "metrics-smoke: empty figure telemetry"; exit 1; }
	@test -s $(ARTIFACTS)/lb_metrics.jsonl || { echo "metrics-smoke: empty run telemetry"; exit 1; }
	@test -s $(ARTIFACTS)/sharded_metrics.jsonl || { echo "metrics-smoke: empty sharded telemetry"; exit 1; }
	@test -s $(ARTIFACTS)/sharded_metrics.csv || { echo "metrics-smoke: empty sharded CSV telemetry"; exit 1; }
	@grep -q place.match $(ARTIFACTS)/lb_trace.jsonl || { echo "metrics-smoke: no placement spans in trace"; exit 1; }
	@echo "metrics-smoke: ok ($$(wc -l < $(ARTIFACTS)/lb_metrics.jsonl) metric points, $$(wc -l < $(ARTIFACTS)/lb_trace.jsonl) trace events, $$(wc -l < $(ARTIFACTS)/sharded_metrics.jsonl) sharded points, identical at GOMAXPROCS=1 and 4)"

# scenario-smoke lints and executes the whole fault-injection corpus
# (examples/scenarios/) through the CLI — churn_storm_sharded runs on
# the sharded parallel core by its own `engine: sharded` key — failing
# on any assertion violation, then re-runs one scenario with telemetry
# export and byte-compares both the reports and the exported streams —
# the determinism contract the engine promises. The sharded engine gets
# the same treatment cross-engine: the churn-storm scenario runs under
# -engine serial, -shards 1 and -shards 4 and all three reports must be
# byte-identical (the engine key buys wall-clock only, never accuracy).
# The same scenario with `scheduler: central` substituted runs under
# -engine serial and -shards 4 and must cmp equal too: no corpus spec
# selects the central comparator, so this is where its candidate index
# meets protocol churn. It also tightens a metric checkpoint past what the run achieves and
# requires the CLI to exit non-zero, proving checkpoints actually gate.
# Reports land in $(ARTIFACTS)/ (uploaded by CI).
scenario-smoke: build
	mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/hetgridsim validate examples/scenarios/*.yaml
	$(GO) run ./cmd/hetgridsim run examples/scenarios/*.yaml \
		| tee $(ARTIFACTS)/scenarios.txt
	$(GO) run ./cmd/hetgridsim run -metrics $(ARTIFACTS)/rack_failure_a.jsonl \
		examples/scenarios/rack_failure.yaml > $(ARTIFACTS)/rack_failure_a.txt
	$(GO) run ./cmd/hetgridsim run -metrics $(ARTIFACTS)/rack_failure_b.jsonl \
		examples/scenarios/rack_failure.yaml > $(ARTIFACTS)/rack_failure_b.txt
	@cmp $(ARTIFACTS)/rack_failure_a.txt $(ARTIFACTS)/rack_failure_b.txt \
		|| { echo "scenario-smoke: report not byte-identical across runs"; exit 1; }
	@cmp $(ARTIFACTS)/rack_failure_a.jsonl $(ARTIFACTS)/rack_failure_b.jsonl \
		|| { echo "scenario-smoke: telemetry not byte-identical across runs"; exit 1; }
	@test -s $(ARTIFACTS)/rack_failure_a.jsonl \
		|| { echo "scenario-smoke: empty scenario telemetry"; exit 1; }
	$(GO) run ./cmd/hetgridsim run -engine serial examples/scenarios/churn_storm_sharded.yaml \
		> $(ARTIFACTS)/churn_storm_serial.txt
	$(GO) run ./cmd/hetgridsim run -engine sharded -shards 1 examples/scenarios/churn_storm_sharded.yaml \
		> $(ARTIFACTS)/churn_storm_s1.txt
	$(GO) run ./cmd/hetgridsim run -engine sharded -shards 4 examples/scenarios/churn_storm_sharded.yaml \
		> $(ARTIFACTS)/churn_storm_s4.txt
	@cmp $(ARTIFACTS)/churn_storm_serial.txt $(ARTIFACTS)/churn_storm_s4.txt \
		|| { echo "scenario-smoke: sharded report not byte-identical to serial"; exit 1; }
	@cmp $(ARTIFACTS)/churn_storm_s1.txt $(ARTIFACTS)/churn_storm_s4.txt \
		|| { echo "scenario-smoke: S=1 and S=4 reports differ"; exit 1; }
	@sed 's/^  scheduler: .*/  scheduler: central/' examples/scenarios/churn_storm_sharded.yaml \
		> $(ARTIFACTS)/churn_storm_central.yaml
	@grep -q '^  scheduler: central$$' $(ARTIFACTS)/churn_storm_central.yaml \
		|| { echo "scenario-smoke: central substitution did not take"; exit 1; }
	$(GO) run ./cmd/hetgridsim run -engine serial $(ARTIFACTS)/churn_storm_central.yaml \
		> $(ARTIFACTS)/churn_storm_central_serial.txt
	$(GO) run ./cmd/hetgridsim run -engine sharded -shards 4 $(ARTIFACTS)/churn_storm_central.yaml \
		> $(ARTIFACTS)/churn_storm_central_s4.txt
	@cmp $(ARTIFACTS)/churn_storm_central_serial.txt $(ARTIFACTS)/churn_storm_central_s4.txt \
		|| { echo "scenario-smoke: central churn-storm report differs between serial and -shards 4"; exit 1; }
	@sed 's/^    min: 36$$/    min: 40/' examples/scenarios/checkpointed_recovery.yaml \
		> $(ARTIFACTS)/checkpoint_violated.yaml
	@if $(GO) run ./cmd/hetgridsim run $(ARTIFACTS)/checkpoint_violated.yaml \
		> $(ARTIFACTS)/checkpoint_violated.txt 2>&1; then \
		echo "scenario-smoke: violated checkpoint did not fail the run"; exit 1; fi
	@grep -q 'below min 40' $(ARTIFACTS)/checkpoint_violated.txt \
		|| { echo "scenario-smoke: checkpoint violation missing from report"; exit 1; }
	@echo "scenario-smoke: ok ($$(ls examples/scenarios/*.yaml | wc -l) scenarios, engine parity, central under churn, checkpoint gate enforced)"

verify: fmt-check build vet race bench-harness fuzz-smoke bench bench-xl bench-xxl bench-xxxl metrics-smoke scenario-smoke
