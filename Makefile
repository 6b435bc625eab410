GO ?= go

.PHONY: check fmt vet build test race loc fault-smoke grouping-smoke bench-smoke service-smoke fuzz-smoke bench-compare

# The full pre-commit gate: formatting and static checks, build, the
# race-enabled suite (which holds every test the *-smoke targets below pick
# out for local iteration, so check does not run those twice — except
# grouping-smoke, whose -cpu list the suite's single run does not have, and
# service-smoke, whose -count does not either), the fuzz smoke and one
# iteration of the benchmarks.
check: fmt vet build race grouping-smoke service-smoke fuzz-smoke bench-smoke

# Fails, listing them, when files are not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages a replay runs through go again at two widths: at -cpu 2
# sim.Domains.Drive runs tenant-groups on two goroutines between barriers, so
# a group touching another group's state inside a window is a race — among
# them the telemetry a group writes (its events through its hub view, its
# trace ops in its router and its monitor's log) and the node pool every
# group's lifecycle writes. The generator is among them: workload.Compose
# builds tenants' activity GOMAXPROCS wide.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2 -count=1 ./internal/sim ./internal/replay ./internal/recovery/... ./internal/experiments ./internal/telemetry ./internal/router ./internal/monitor ./internal/cluster ./internal/scaling ./internal/master ./internal/workload .

# Non-test Go lines per package and in total, the number of thriftyd flags
# and the field counts of the option structs — the size and option-surface
# figures ROADMAP.md, CHANGES.md and the issues quote. A field count is the
# names declared between the struct's braces. CI prints them after
# `make check`.
KNOBS = master/master.go:Options scaling/scaling.go:Config \
	admission/admission.go:Config replay/replay.go:Options service/service.go:Config \
	recovery/chaos/chaos.go:Window advisor/advisor.go:Config recovery/chaos/crashes.go:Crashes \
	recovery/chaos/slowdown.go:Slowdowns recovery/chaos/outage.go:Outages \
	recovery/chaos/storm.go:Storm recovery/chaos/takeover.go:TakeOver
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs wc -l | \
		awk '$$2 == "total" { next } { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2
	@printf '%7d thriftyd flags\n' $$($(GO) run ./cmd/thriftyd -h 2>&1 | grep -c '^  -')
	@for k in $(KNOBS); do f=$${k%:*}; d=$${f%/*}; \
		awk -v t=$${k#*:} -v name=$${d##*/}.$${k#*:} '$$0 ~ "^type " t " struct" { on = 1; next } \
			on && /^}/ { exit } on && NF && $$1 !~ /^\/\// { n++; for (i = 1; i < NF; i++) if ($$i ~ /,$$/) n++ } \
			END { printf "%7d %s fields\n", n, name }' internal/$$f; done

# Bounded fault smokes with the race detector on, one per fault class, each a
# small deployment replayed through the one chaos.Run under one fault value
# (~1 s each): crashes injected on every group's engine, detected at the
# controller's next 30-s grid instant and recovered autonomously; a
# noisy-tenant storm against an admission-armed group, the aggressor
# throttled while compliant tenants hold their guarantee; a fail-slow storm
# (stuck, gradual, flapping) against the bare deployment, served through and
# lifted with the SLA accounting balanced; and a whole-domain outage
# against a spread-placed deployment, quarantine re-routing, the scarcity
# triage and re-spread leaving zero dropped queries. All four end on a
# leak-free pool. A break in Run or in the replay it drives fails all four.
fault-smoke:
	$(GO) test -race -short -run 'TestChaosSmoke|TestOverloadSmoke|TestGraySmoke|TestDomainSmoke' ./internal/recovery/chaos

# Solver-equivalence property tests under the race detector — synthetic,
# adversarial and composed-log (benchmark-shaped) instances at
# workers {0,1,3,4,8} — at three GOMAXPROCS settings, because Workers 0 (what
# every caller leaves it at) takes its width from there and the runner's own
# width is one point; the composed one is what catches state shared between
# two size classes' searches. The same three widths run the other phases of a
# plan that go GOMAXPROCS wide — Verify (and its error precedence), the
# advisor's exclusion and quantisation (the pinned plan digests) and
# Reconsolidate's kept-group check. Plus bench-smoke.
grouping-smoke: bench-smoke
	$(GO) test -race -cpu 1,2,4 -run 'TestSolverMatchesReference|TestLaunchOrder|TestVerifyErrorPrecedence|TestReconsolidate|TestPlanDigestPinned' -count=1 ./internal/grouping ./internal/advisor .

# One iteration of the solver-scale benchmarks, the planner's per-stage ones
# (solve, verify, quantize and burst detection on one 500-tenant composed
# population), the whole planning cycle at the facade, the service's submit
# paths (single, 64-batch, and parallel singles to distinct groups and to one
# group) over a 200-tenant deployment,
# the Prometheus scrape of a registry shaped like that deployment's, the
# replay of that deployment's 7-day logs — bare, with admission,
# as a flagless thriftyd deploys it and with the §5.1 scaler per group — and
# the generator on plan-4x500's four populations,
# so a benchmark that no longer builds or runs is caught before commit without
# paying full benchmark time. The composed solve (BenchmarkTwoStepComposed500
# on the 3 s grid and ...Fine on the 0.1 s one, which no benchmark workload
# plans on) and the planning cycle run serial and two wide, as do the clock
# domains' windowed driver (BenchmarkDomainsDrive), the replay and the
# generator.
bench-smoke:
	$(GO) test -bench 'BenchmarkTwoStep2000|BenchmarkPickBest|BenchmarkVerifyComposed500|BenchmarkQuantize500' -benchtime=1x -run '^$$' ./internal/grouping
	$(GO) test -bench 'BenchmarkTwoStepComposed500' -cpu 1,2 -benchtime=1x -run '^$$' ./internal/grouping
	$(GO) test -bench 'BenchmarkDetectBursts500' -benchtime=1x -run '^$$' ./internal/advisor
	$(GO) test -bench 'BenchmarkServeSubmit' -benchtime=1x -run '^$$' ./internal/service
	$(GO) test -bench 'BenchmarkWritePrometheus' -benchtime=1x -run '^$$' ./internal/telemetry
	$(GO) test -bench 'BenchmarkDomainsDrive' -cpu 1,2 -benchtime=1x -run '^$$' ./internal/sim
	$(GO) test -bench 'BenchmarkReplay/(bare|admission|default|scaler)$$' -cpu 1,2 -benchtime=1x -run '^$$' .
	$(GO) test -bench 'BenchmarkGenerateWorkload' -cpu 1,2 -benchtime=1x -run '^$$' ./internal/workload
	$(GO) test -bench 'BenchmarkPlanCycle' -cpu 1,2 -benchtime=1x -run '^$$' .

# Batched-submit smoke with the race detector on: per-item error
# partitioning over /v1/submit-batch (a 400/422/429/504 never drops a
# healthy batch-mate, and all 33 submits to a group with no Ready MPPDB
# retry and time out, none shed), batched-vs-per-query telemetry
# equivalence, and — ten times over, since several goroutines reach the
# groups' clock-domain locks and the pacing origin without a server-wide
# lock — concurrent single submits in a storm beside scrapes and group
# reads.
service-smoke:
	$(GO) test -race -run 'TestBatchErrorPartitioning' -count=1 ./internal/service
	$(GO) test -race -run 'TestConcurrentSubmitsAndScrapes|TestShardedConcurrentSubmits' -count=10 ./internal/service
	$(GO) test -race -run 'TestBatchSubmitEquivalence' -count=1 .

# Five seconds of differential fuzzing per kernel with a naive oracle: the
# hand-written request decoders against encoding/json, the replay arrival
# stream against collect-then-stable-sort, the CountSet algebra (Add, Fill,
# the previews and the top-level view) against one slot per epoch, the
# DenseSet (Add, Reset, the previews, the patch and its three bitmaps)
# against the same oracle and against a CountSet, the
# ref-indexed monitor with its chunked record log against the map-and-slice
# monitor it replaced, the tracer's spans read from groups' trace ops —
# attached directly and through a deployment's views under Drive — against
# a naive ring of whole span records fed the same queries in (time, group,
# sequence) order, the MPPDB executor under submits, node faults and
# slowdowns against plain processor sharing stepped
# from scratch, the event engine under schedules, cancels, re-keys,
# sources, steps and runs against a slice scanned for its least (time,
# sequence) key, and the clock domains' windowed driver (Domains.Drive) under
# per-group plain and shared schedules and coordinator events, each group
# logging through a buffer merged at the barriers, against a linear scan for
# the least (time, group), and the node pool under the lifecycle's stage,
# ready, cut-over, abort and swap, fail-any, domain outages and re-images
# against a naive owner map, and the registry's Prometheus text under
# registrations, updates and scrapes against the Fprintf encoder it replaced,
# and the fault schedule validators (ValidateSlowdowns, ValidateOutages)
# against O(n²) restatements of their contracts, with what BuildSlowdowns and
# BuildOutages derive validating (go test -fuzz takes one target per run). A
# failing input lands in the package's testdata/fuzz; commit it.
# FuzzCountSet, FuzzDenseSet, FuzzMonitorOps, FuzzTracerRing,
# FuzzPrometheusText, FuzzInstancePS, FuzzEngine, FuzzDomainsDrive,
# FuzzPoolLifecycle and FuzzFaultSchedules find new coverage all the time and
# the default minute of minimizing each find would eat the whole smoke.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSubmit$$' -fuzztime=5s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime=5s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzStreamOrder$$' -fuzztime=5s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzCountSet$$' -fuzztime=5s -fuzzminimizetime=20x ./internal/epoch
	$(GO) test -run '^$$' -fuzz '^FuzzDenseSet$$' -fuzztime=5s -fuzzminimizetime=20x ./internal/epoch
	$(GO) test -run '^$$' -fuzz '^FuzzMonitorOps$$' -fuzztime=5s -fuzzminimizetime=20x ./internal/monitor
	$(GO) test -run '^$$' -fuzz '^FuzzTracerRing$$' -fuzztime=5s -fuzzminimizetime=20x ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzPrometheusText$$' -fuzztime=5s -fuzzminimizetime=20x ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzInstancePS$$' -fuzztime=5s -fuzzminimizetime=20x ./internal/mppdb
	$(GO) test -run '^$$' -fuzz '^FuzzEngine$$' -fuzztime=5s -fuzzminimizetime=20x ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzDomainsDrive$$' -fuzztime=5s -fuzzminimizetime=20x ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzPoolLifecycle$$' -fuzztime=5s -fuzzminimizetime=20x ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzFaultSchedules$$' -fuzztime=5s -fuzzminimizetime=20x ./internal/recovery/chaos

# Paired comparison of the working tree against another commit on one
# benchmark workload, the procedure a performance claim needs: ./benchmark is
# built from a temporary checkout of BASE and from the tree, PAIRS pairs of
# untraced runs alternate which side goes first (pair i uses seed i), and
# -compare judges every end-to-end metric; throughput, latency_p50_us and
# peak_rss_mb are also listed pair by pair with the pairs the tree won.
# WORKLOAD=all runs the four workloads one after the other through the same
# binaries into one -compare table, which is what the merge gate judges.
# Reports stay in .bench_build/compare.
#	make bench-compare BASE=HEAD~1 WORKLOAD=replay-7d [PAIRS=10] [RUN_SECONDS=15]
BASE ?= HEAD~1
WORKLOAD ?= replay-7d
PAIRS ?= 10
RUN_SECONDS ?= 15
WORKLOADS = $(if $(filter all,$(WORKLOAD)),plan-4x500 replay-7d serve-single serve-mixed,$(WORKLOAD))
bench-compare:
	@set -e; out=$(CURDIR)/.bench_build/compare; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	rm -rf $$out; mkdir -p $$out $$tmp/base; \
	git archive $(BASE) | tar -x -C $$tmp/base; \
	(cd $$tmp/base && $(GO) build -o $$tmp/base.bin ./benchmark); \
	$(GO) build -o $$tmp/tree.bin ./benchmark; \
	for wl in $(WORKLOADS); do \
		for i in $$(seq 1 $(PAIRS)); do \
			order="base tree"; [ $$((i % 2)) -eq 0 ] && order="tree base"; \
			for side in $$order; do \
				dir=$(CURDIR); [ $$side = base ] && dir=$$tmp/base; \
				echo "$$wl pair $$i: $$side"; \
				(cd $$dir && $$tmp/$$side.bin --workload $$wl --seed $$i --seconds $(RUN_SECONDS) --trace 0 -out $$out/$$side.jsonl >/dev/null); \
			done; \
		done; \
	done; \
	$$tmp/tree.bin -compare $$out/base.jsonl $$out/tree.jsonl; \
	for wl in $(WORKLOADS); do \
		for m in throughput:1 latency_p50_us:-1 peak_rss_mb:-1; do \
			for side in base tree; do \
				grep '"workload":"'$$wl'"' $$out/$$side.jsonl | sed -n 's/.*"'$${m%:*}'":{"value":\([0-9.e+]*\).*/\1/p' > $$tmp/$$side.col; \
			done; \
			paste $$tmp/base.col $$tmp/tree.col | awk -v wl=$$wl -v m=$${m%:*} -v up=$${m#*:} '{ printf "%s pair %d %s: base %.6g tree %.6g\n", wl, NR, m, $$1, $$2; if (($$2 - $$1) * up > 0) won++ } END { printf "%s: tree won %d of %d pairs on %s\n", wl, won, NR, m }'; \
		done; \
	done
