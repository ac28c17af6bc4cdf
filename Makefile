# Convenience targets; CI runs the same commands.

.PHONY: test race paper loc startup alloc-gate obs-inline fuzz fault-smoke bench-smoke bench-packet hook-price cli-golden mem-smoke benchmark-smoke bench bench-diff flowtrace-smoke

test:
	go build ./... && go test ./...

race:
	go test -race -short ./...

# The paper's claim table as a scorecard: TestPaperClaims prints one
# line per §6 claim (verdict, section, experiment entry at Short,
# measured metrics, tolerance) and fails if one does not hold; about
# 8 s, skipped under -short. `go test ./...` runs the same test.
paper:
	go test -count=1 -v -run TestPaperClaims ./internal/paper

# The size numbers ROADMAP aim 2 and every CHANGES.md entry quote:
# non-test Go lines (wc -l) of the four engine-side packages, the
# oracle solvers and the CLI, the repo's Go outside benchmark/ (non-test, and with tests), the
# field count of leap.Engine, and the harness's exported Run* entry
# points (one per scenario family plus the single-engine experiments;
# a per-engine fork shows up here), the width of the obs seam (lines of
# the two event loops that touch a hook), and the schedule players: non-test
# files outside the engines and benchmark/ that admit an arrival
# schedule into a flow-level engine themselves (AddFlow at an arrival's
# At) — one, harness.playArrivals' substrate; and the packet engine's
# three packages together (ROADMAP item 5's size bound); and the lone
# exports: exported non-test functions and methods whose name appears in
# no other non-test file outside benchmark/ (a heuristic: it also counts
# the public API, interface methods and names whose callers share their
# file — CHANGES names each — so a rise means an export that only tests
# call). Six rows are gated (ROADMAP item 9): make loc fails, naming
# the row, when internal/fluid, leap + fluid, internal/oracle,
# internal/harness or internal/obs non-test lines, or the harness's
# exported Run*, exceed the ceilings below. A change that shrinks a row
# lowers its ceiling; one that must raise it says why in CHANGES.md.
LOC_CEIL_FLUID      = 1970
LOC_CEIL_LEAP_FLUID = 3234
LOC_CEIL_ORACLE     = 1241
LOC_CEIL_HARNESS    = 2280
LOC_CEIL_RUNS       = 9
LOC_CEIL_OBS        = 1742
# nontest counts the non-test Go lines of the files $(1) names.
nontest = ls $(1) | grep -v _test.go | xargs cat | wc -l
harness_runs = ls internal/harness/*.go | grep -v _test.go | xargs awk '/^func Run[A-Z]/{n++} END{print n+0}'
loc:
	@for d in leap fluid obs harness oracle; do \
		printf 'internal/%-8s non-test %6d\n' $$d $$($(call nontest,internal/$$d/*.go)); \
	done
	@printf 'cmd/numfabric     non-test %6d\n' $$($(call nontest,cmd/numfabric/*.go))
	@printf 'leap + fluid      non-test %6d\n' $$($(call nontest,internal/leap/*.go internal/fluid/*.go))
	@printf 'netsim + sim + queue non-test %3d\n' $$($(call nontest,internal/netsim/*.go internal/sim/*.go internal/queue/*.go))
	@printf 'repo              non-test %6d\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l)
	@printf 'repo            with tests %6d\n' $$(find . -name '*.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l)
	@printf 'leap.Engine         fields %6d\n' $$(awk '/^type Engine struct/{on=1;next} on&&/^}/{exit} on&&!/^[ \t]*(\/\/|$$)/{n++} END{print n}' internal/leap/leap.go)
	@printf 'obs hook sites  leap+fluid %3d + %d\n' $$(grep -c 'e\.hooks\.' internal/leap/leap.go) $$(grep -c 'e\.hooks\.' internal/fluid/engine.go)
	@printf 'harness exported      Run* %6d\n' $$($(harness_runs))
	@printf 'schedule players     files %6d\n' $$(grep -rlE 'AddFlow\(.*[Aa]t\.Seconds\(\)' --include='*.go' . | grep -vcE '_test\.go$$|^\./(internal/(leap|fluid|refsim)|benchmark|\.bench_build)/')
	@files=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*'); \
	printf 'lone exports         funcs %6d\n' $$(for f in $$files; do \
		for n in $$(sed -nE 's/^func (\([^)]*\) )?([A-Z][A-Za-z0-9_]*).*/\2/p' $$f | sort -u); do \
			grep -lw "$$n" $$files | grep -qvx "$$f" || echo "$$f $$n"; \
		done; \
	done | wc -l)
	@fail=0; over() { if [ "$$2" -gt "$$3" ]; then echo "loc: $$1 is $$2, over its ceiling $$3" >&2; fail=1; fi; }; \
	over 'internal/fluid non-test' $$($(call nontest,internal/fluid/*.go)) $(LOC_CEIL_FLUID); \
	over 'leap + fluid non-test' $$($(call nontest,internal/leap/*.go internal/fluid/*.go)) $(LOC_CEIL_LEAP_FLUID); \
	over 'internal/oracle non-test' $$($(call nontest,internal/oracle/*.go)) $(LOC_CEIL_ORACLE); \
	over 'internal/harness non-test' $$($(call nontest,internal/harness/*.go)) $(LOC_CEIL_HARNESS); \
	over 'harness exported Run*' $$($(harness_runs)) $(LOC_CEIL_RUNS); \
	over 'internal/obs non-test' $$($(call nontest,internal/obs/*.go)) $(LOC_CEIL_OBS); \
	exit $$fail

# The start-up footprint README quotes (ROADMAP aim 1): for a program
# built on the library alone (examples/quickstart) and for numfabric,
# the only one that links the debug HTTP server, the binary's size in
# bytes and the packages it links (go list -deps, the standard library
# included). -trimpath and -buildvcs=false keep the size independent of
# where the checkout sits and whether it is clean.
STARTUP_PROGS = ./examples/quickstart ./cmd/numfabric
startup:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && set -e && \
	for p in $(STARTUP_PROGS); do \
		go build -trimpath -buildvcs=false -o "$$tmp/bin" $$p; \
		printf '%-22s %10d bytes %4d packages\n' $$p $$(wc -c < "$$tmp/bin") $$(go list -deps $$p | wc -l); \
	done

# The zero-allocation steady-state pins: AllocsPerOp == 0 for a full
# churn wave through the leap engine with hooks detached (and bounded
# with the full obs stack attached), plus the per-event ReadMemStats
# bounds and the table-recycling invariants behind them; and the
# allocator kernels' per-iteration pins (MaxMinWorkspace.Fill allocates
# 0, oracle.Solve the same count at 5 and 500 iterations, a warm
# XWI.AllocateSubset on FCTMin flows plus a multipath group 0 — the
# α-fair plan's columns and the group scan are reused — and a warm
# Oracle.Allocate 0: its core.Problem is rebuilt in place); and the
# packet engine's: 0 per forwarded packet on a warmed
# two-hop line, behind STFQ and behind DropTail, and 0 per dropped packet
# on rounds that overflow STFQ, DropTail, MultiQueue and PFabric.
alloc-gate:
	go test -v -run 'TestAllocsPerOpSteadyState|TestReleaseFinishedRecycles|TestSteadyStateAllocations' -count=1 ./internal/leap/
	go test -v -run 'TestKernelsAllocateNothingPerIteration' -count=1 ./internal/oracle/
	go test -v -run 'TestXWISubsetAllocatesNothingWarm|TestOracleAllocatesNothingWarm' -count=1 ./internal/fluid/
	go test -v -run 'TestPacketHopAllocations' -count=1 ./internal/netsim/

# The engines call the obs hooks unguarded, so a detached hook costs
# one branch only while each engine-facing method stays an inlinable
# nil-check wrapper. Fails naming the method the compiler no longer
# inlines (for instance after its body grew past the inlining budget).
OBS_INLINE = '(*PhaseProfiler).Arm' '(*PhaseProfiler).Lap' \
	'(*Tracer).Clock' '(*Tracer).Span' \
	'(*Live).Due' '(*Live).Batch' '(*Live).Solve' \
	'(*FlowTracer).Admit' '(*FlowTracer).AdmitRate' '(*FlowTracer).Rate' \
	'(*FlowTracer).Rates' '(*FlowTracer).Complete' '(*FlowTracer).Publish'
obs-inline:
	@out=$$(go build -gcflags=-m ./internal/obs 2>&1) || { echo "$$out" >&2; exit 1; }; \
	for m in $(OBS_INLINE); do \
		echo "$$out" | grep -qwF "can inline $$m" || { echo "obs-inline: $$m is not inlinable" >&2; exit 1; }; \
	done; echo "obs-inline: $(words $(OBS_INLINE)) wrappers inlinable"

# Explore the leap-vs-reference fuzz target beyond its committed
# corpus (CI runs 30s per push; run longer locally when touching the
# event loop, the fault path or the tables). -fuzzminimizetime caps
# go's minimization of each new interesting input, which otherwise
# idles the workers for most of the run. FuzzSchedule then explores
# the event schedule alone against its sorted-slice model, and
# FuzzParseFaults the -faults grammar (no panic, no negative time, an
# accepted list re-parses to itself), and FuzzReadFlowTrace the offline
# flow-trace reader (a defined error or a trace that re-encodes to
# itself), and FuzzPowerMatchesPow the fixed-exponent power kernel
# (core.Power ≡ math.Pow on any pair of bit patterns), and FuzzEventQueue
# the packet engine's event set (sim.Engine against a sorted (at, seq)
# model under Schedule/After/Run(until)/Stop interleavings), and FuzzSTFQ
# the STFQ scheduler (against a map-keyed model: start-tag bits, dequeue
# order and drops under enqueue/dequeue/drain interleavings), and
# FuzzPreparedFill the prepared max-min (Prepare + Fill against the
# one-shot WeightedMaxMin, bit for bit, on palette capacities that make
# links alike), and FuzzSortFloats the stats package's sort (its radix
# path and sortFloats against sort.Float64s, element by element, on NaNs,
# signed zeros, infinities and subnormals at lengths on both sides of the
# radix cutoff). LEAP_FUZZTIME sets the first target's budget (CI's
# fuzz-smoke job runs this target with 30s).
LEAP_FUZZTIME ?= 60s
fuzz:
	go test -run '^$$' -fuzz FuzzLeapMatchesReference -fuzztime $(LEAP_FUZZTIME) -fuzzminimizetime 2s ./internal/leap/
	go test -run '^$$' -fuzz FuzzSchedule -fuzztime 10s -fuzzminimizetime 2s ./internal/leap/
	go test -run '^$$' -fuzz FuzzParseFaults -fuzztime 10s -fuzzminimizetime 2s ./internal/workload/
	go test -run '^$$' -fuzz FuzzReadFlowTrace -fuzztime 10s -fuzzminimizetime 2s ./internal/obs/
	go test -run '^$$' -fuzz FuzzPowerMatchesPow -fuzztime 10s -fuzzminimizetime 2s ./internal/core/
	go test -run '^$$' -fuzz FuzzEventQueue -fuzztime 10s -fuzzminimizetime 2s ./internal/sim/
	go test -run '^$$' -fuzz FuzzSTFQ -fuzztime 10s -fuzzminimizetime 2s ./internal/queue/
	go test -run '^$$' -fuzz FuzzPreparedFill -fuzztime 10s -fuzzminimizetime 2s ./internal/oracle/
	go test -run '^$$' -fuzz FuzzSortFloats -fuzztime 10s -fuzzminimizetime 2s ./internal/stats/

# Fault-injection smoke: the leap fault test suite (property, analytic,
# and lost-service identity tests) plus the end-to-end example —
# scripted switch/link faults, stranded-flow resume.
fault-smoke:
	go test -run 'TestFault|TestStranded|TestNested|TestSameInstant|TestAllocatorsZeroCapacity|TestAllocatorCapacityRecovery|TestGroupResplitOnDeadLink' \
		-count=1 ./internal/leap/ ./internal/fluid/
	go run ./examples/leapfail

# One full iteration of the leap benchmark, with its built-in
# accuracy assertions; then one iteration of the quick experiments of
# the paper table (BenchmarkPaper: Table 1, Figures 2, 9 and 10) and of
# each allocator-kernel ledger row (the prepared max-min's Fill,
# ProportionalFair and FCTMin components, the Oracle through Allocate,
# the power kernel against math.Pow, a million slowdowns sorted by radix
# and by sort.Float64s, a web-search arrival drawn by PoissonGen.Draw and
# by Next) so the rows CHANGES.md quotes cannot rot.
bench-smoke:
	go test -run '^$$' -bench 'BenchmarkLeapFCT$$' -benchtime 1x .
	go test -run '^$$' -bench 'BenchmarkPaper/(table1|fig2|fig9|fig10)$$' -benchtime 1x .
	go test -run '^$$' -bench 'MaxMinFill|XWISolve|DGDSolve|OracleSolve' -benchtime 1x ./internal/fluid/
	go test -run '^$$' -bench AlphaKernel -benchtime 1x ./internal/core/
	go test -run '^$$' -bench 'SortFloats/.*/n=1000000$$' -benchtime 3x ./internal/stats/
	go test -run '^$$' -bench PoissonCount -benchtime 1000000x ./internal/workload/

# The packet engine's layers in isolation: ns per event at fig7's gap
# mix and ~675 pending, and ns per event piled into one calendar bucket
# (sim), ns and allocations per packet-hop on a two-hop line (netsim),
# ns per enqueue+dequeue with every dequeue ending a busy period (drain,
# fig7's regime) and at backlog 1/16/256 (queue.STFQ).
bench-packet:
	go test -run '^$$' -bench 'BenchmarkEngineGapMix|BenchmarkEngineScheduleRun|BenchmarkPortHop|BenchmarkSTFQ' -benchmem ./internal/sim/ ./internal/netsim/ ./internal/queue/

# The price of each observability hook numfabric -experiment leapfct
# attaches (ROADMAP items 3e and 9): a 100k-flow leapfct play with no
# hooks, the phase profiler, a 1 % flow tracer, and both, reported as
# ns per flow and each set's ratio to none (the *-x columns), five
# times over. Read the medians; a shared machine moves single runs by
# several percent.
hook-price:
	go test -run '^$$' -bench BenchmarkLeapFCTHooks -count 5 .

# The two CLI experiments that print harness.RunDynamicWith on the
# fat-tree, at seed 1 and scaled size (about 30 s each; leapfct's load
# 0.30 is nearly all of its share), diffed against goldens generated at
# PR 20's parent commit: every deterministic leapfct.csv column (all but
# flows_per_s and the *_ns phase times), and the scripted leapfail row
# without its wall time (scripted mode writes no CSV).
CSV_DETERMINISTIC = awk -F, 'NR==1{for(i=1;i<=NF;i++) keep[i]=($$i!="flows_per_s" && $$i!~/_ns$$/)} \
	{out="";for(i=1;i<=NF;i++) if(keep[i]) out=out (out==""?"":",") $$i; print out}'
cli-golden:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && set -e && \
	go build -o "$$tmp/numfabric" ./cmd/numfabric && \
	"$$tmp/numfabric" -experiment leapfct -seed 1 -out "$$tmp" >/dev/null && \
	$(CSV_DETERMINISTIC) "$$tmp/leapfct.csv" | diff cmd/numfabric/testdata/leapfct_seed1.csv - && \
	"$$tmp/numfabric" -experiment leapfail -seed 1 -faults "agg0.0@10ms+8ms,link3@25ms+5ms" | \
		awk '$$1=="scripted"{NF--; print}' | diff cmd/numfabric/testdata/leapfail_scripted_seed1.txt - && \
	echo "cli-golden: leapfct.csv and the scripted leapfail row match cmd/numfabric/testdata"

# `numfabric -experiment leapfct -scale full -seed 1` in a child
# process whose peak resident set (rusage) must stay under 220 MB —
# 115–135 MB since the harness streams the schedule, ≈ 432 MB before.
mem-smoke:
	go test -run TestFullLeapFCTPeakRSS -count=1 -v ./cmd/numfabric

# Two three-second plays through the benchmark driver's entry, each of
# whose last line must report every flow correct: fig5-leap (the
# Figure 5 pipeline; almost no engine time) and poisson-wf (the leap
# event loop against benchmark/'s referee). Timing is not gated.
benchmark-smoke:
	@for w in fig5-leap poisson-wf; do \
		result=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 | tail -n 1); \
		echo "$$result"; \
		echo "$$result" | grep -q '"correct":true' || { echo "benchmark-smoke: $$w not correct" >&2; exit 1; }; \
	done

# The repository benchmark (BENCHMARK.json, benchmark/README.md): all
# six workloads, every metric by name, correctness checked; about two
# minutes. SEED defaults to 1, the seed changes get tuned on — rerun
# with SEED=2 before claiming anything.
SEED ?= 1
bench:
	bash benchmark/run.sh -seed $(SEED) -out benchmark/out/latest.json

# Before/after table of two benchmark records against the bounds:
#   make bench-diff A=parent.json B=benchmark/out/latest.json
bench-diff:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-diff A=before.json B=after.json" >&2; exit 2; }
	bash benchmark/run.sh -diff $(A) $(B)

# End-to-end flow-tracing smoke: a leapfct run writing a
# flow-lifecycle trace, analyzed by flowreport (CI's obs-smoke job
# runs the same pair plus live endpoint scrapes).
flowtrace-smoke:
	go run ./cmd/numfabric -experiment leapfct \
		-flowtrace-out /tmp/flowtrace.jsonl
	go run ./cmd/flowreport /tmp/flowtrace.jsonl
