package numfabric

// BenchmarkPaper reports the headline numbers of every experiment in
// the paper's evaluation (§6) from internal/paper's table, the one
// `cmd/numfabric` prints; the engine benchmarks after it measure the
// fast engines themselves. README.md's engine comparison table records
// their headline numbers.

import (
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/obs"
	"numfabric/internal/paper"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// BenchmarkPaper runs each experiment at paper.Short scale, seed 1,
// with its report discarded, as a sub-benchmark named by its id:
// `go test -bench 'Paper/fig9'` regenerates Figure 9's numbers.
func BenchmarkPaper(b *testing.B) {
	for _, e := range paper.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			var m paper.Metrics
			for i := 0; i < b.N; i++ {
				m = e.Run(paper.Env{Writer: io.Discard}, paper.Short, 1)
			}
			for name, v := range m {
				b.ReportMetric(v, name)
			}
		})
	}
}

// engineBenchConfig is the shared scenario for the engine comparison:
// a web-search Poisson workload on the scaled leaf-spine fabric.
func engineBenchConfig(flows int) harness.DynamicConfig {
	cfg := harness.DefaultDynamic(harness.NUMFabric, workload.WebSearch(), 0.4)
	cfg.Flows = flows
	cfg.SkipFluidIdeal = true
	return cfg
}

// BenchmarkEngineFluidVsPacket runs the identical dynamic workload
// through the packet-level simulator and the fluid engine and reports
// flows simulated per wall-clock second for each — the headline
// fast-path metric.
func BenchmarkEngineFluidVsPacket(b *testing.B) {
	b.Run("packet", func(b *testing.B) {
		flows := 0
		for i := 0; i < b.N; i++ {
			res := harness.RunDynamicWith(harness.EnginePacket, engineBenchConfig(200))
			flows += len(res.Records) + res.Unfinished
		}
		b.ReportMetric(float64(flows)/b.Elapsed().Seconds(), "flows/s")
	})
	b.Run("fluid", func(b *testing.B) {
		flows := 0
		for i := 0; i < b.N; i++ {
			res := harness.RunDynamicWith(harness.EngineFluid, engineBenchConfig(200))
			flows += len(res.Records) + res.Unfinished
		}
		b.ReportMetric(float64(flows)/b.Elapsed().Seconds(), "flows/s")
	})
}

// BenchmarkFluidFatTree simulates a 50k-flow web-search workload on a
// k=8 fat-tree (128 hosts, 768 directed links) under fluid xWI
// dynamics — a regime the packet engine cannot reach — and reports
// flows/s plus the speedup over the packet engine's extrapolated rate
// (the packet engine's cost is at best linear in flow count, so its
// small-scale flows/s is an upper bound on its large-scale rate).
func BenchmarkFluidFatTree(b *testing.B) {
	pktStart := time.Now()
	pktRes := harness.RunDynamicWith(harness.EnginePacket, engineBenchConfig(200))
	pktRate := float64(len(pktRes.Records)+pktRes.Unfinished) / time.Since(pktStart).Seconds()

	const nflows = 50000
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultDynamic(harness.NUMFabric, workload.WebSearch(), 0.5)
		cfg.FatTree, cfg.Flows, cfg.Seed = fluid.NewFatTree(8, 10e9), nflows, uint64(i)+1
		cfg.FluidEpoch, cfg.Drain = 100*sim.Microsecond, sim.Second
		done += len(harness.RunDynamicWith(harness.EngineFluid, cfg).Records)
	}
	fluidRate := float64(done) / b.Elapsed().Seconds()
	b.ReportMetric(fluidRate, "flows/s")
	b.ReportMetric(fluidRate/pktRate, "speedup-vs-packet")
}

// BenchmarkLeapFCT is the event-driven engine's headline: a
// million-flow sparse web-search workload on a k=8 fat-tree, played
// through the leap engine and through the epoch engine at matched
// accuracy, under the identical stationary WaterFill allocator (so
// the engines differ only in how they advance time). "Matched
// accuracy" pins the epoch: leap's event times are exact, and the
// epoch engine's systematic error — each arrival waits for the next
// epoch boundary — shrinks with the epoch. The median web-search
// flow's line-rate FCT is ~42 µs, so at the 100 µs default the epoch
// engine is >2× off on this workload, at 2 µs ~2.3% off at the
// median, and at the 1 µs used here the two distributions agree
// within ~1% — comfortably inside the 5% acceptance band the run
// asserts. The sparse load (1.5%) is the leap
// regime the ROADMAP names: mean inter-event gap ~110 µs >> the
// accuracy epoch, so the epoch engine burns almost all its steps
// re-draining an unchanged allocation while leap pays only per event
// — and most of those events hit the independence fast path, so even
// the allocator mostly stays idle.
func BenchmarkLeapFCT(b *testing.B) {
	const (
		nflows = 1_000_000
		load   = 0.015
	)
	var speedup, medRatio, p95Ratio, leapRate float64
	for i := 0; i < b.N; i++ {
		// DCTCP's flow-level model is WaterFill on both engines; the
		// schedule is the seed's, so both play the identical workload.
		cfg := harness.DefaultDynamic(harness.DCTCP, workload.WebSearch(), load)
		cfg.FatTree, cfg.Flows, cfg.Seed = fluid.NewFatTree(8, 10e9), nflows, uint64(i)+1

		runtime.GC()
		cfg.FluidEpoch, cfg.Drain = sim.Microsecond, sim.Second // the accuracy epoch
		epoch := harness.RunDynamicWith(harness.EngineFluid, cfg)
		normE := epoch.Slowdowns()
		medE, p95E := stats.Median(normE), stats.Percentile(normE, 0.95)
		epoch.Records, normE = nil, nil

		runtime.GC()
		cfg.Drain = sim.Duration(sim.Forever)
		leap := harness.RunDynamicWith(harness.EngineLeap, cfg)
		normL := leap.Slowdowns()

		if epoch.Unfinished > 0 || leap.Unfinished > 0 {
			b.Fatalf("unfinished flows: epoch %d, leap %d", epoch.Unfinished, leap.Unfinished)
		}
		// Both sides are the engine's run alone (DynamicResult.RunWall).
		speedup = epoch.RunWall.Seconds() / leap.RunWall.Seconds()
		medRatio = stats.Median(normL) / medE
		p95Ratio = stats.Percentile(normL, 0.95) / p95E
		leapRate = float64(len(normL)) / leap.RunWall.Seconds()
		// The speed claim only counts at equal accuracy: the two FCT
		// distributions must agree within 5% at the median and p95.
		if math.Abs(medRatio-1) > 0.05 || math.Abs(p95Ratio-1) > 0.05 {
			b.Errorf("FCT distributions disagree: median ratio %.3f, p95 ratio %.3f (want within 5%%)",
				medRatio, p95Ratio)
		}
		// Component-local reallocation must cut the allocator work
		// (allocations × flows-per-solve) at least 2× against the
		// global-re-solve counterfactual the engine tracks.
		s := leap.LeapStats
		if 2*s.SolvedFlows > s.FullSolveFlows {
			b.Errorf("allocator work %d flows vs %d global-equivalent: < 2x reduction",
				s.SolvedFlows, s.FullSolveFlows)
		}
		b.ReportMetric(float64(s.SolvedFlows), "alloc-flows")
		b.ReportMetric(float64(s.FullSolveFlows)/math.Max(float64(s.SolvedFlows), 1), "alloc-work-reduction")
		b.ReportMetric(float64(s.MaxComponent), "max-component")
	}
	b.ReportMetric(leapRate, "leap-flows/s")
	b.ReportMetric(speedup, "speedup-vs-epoch")
	b.ReportMetric(medRatio, "median-fct-ratio")
	b.ReportMetric(p95Ratio, "p95-fct-ratio")
}

// BenchmarkLeapFCTHooks prices the observability hooks numfabric
// -experiment leapfct always attaches: a 100k-flow leapfct play (k=8
// fat-tree, web-search at load 0.05, xWI with the FCT-min utility, run
// to completion) through harness.RunDynamicWith with no hooks, the
// phase profiler alone, a 1 % flow tracer alone, and both — the CLI's
// default stack. Every iteration plays the same schedule twice under
// each set, in the order none, profiler, flowtrace, both, both,
// flowtrace, profiler, none (so a drift across the iteration charges
// every set alike), and reports ns per flow of the play
// (DynamicResult.RunWall) for each set plus each set's ratio to the
// hook-free play. `make hook-price` runs it five times.
func BenchmarkLeapFCTHooks(b *testing.B) {
	const nflows = 100_000
	ft := fluid.NewFatTree(8, 10e9)
	profiler := func() obs.Hooks { return obs.Hooks{Profiler: obs.NewPhaseProfiler()} }
	flowTrace := func() obs.Hooks {
		t := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 0.01})
		t.SetLinkName(ft.LinkName)
		return obs.Hooks{FlowTrace: t}
	}
	sets := []struct {
		name  string
		hooks func() obs.Hooks
	}{
		{"none", func() obs.Hooks { return obs.Hooks{} }},
		{"profiler", profiler},
		{"flowtrace", flowTrace},
		{"both", func() obs.Hooks {
			h := flowTrace()
			h.Profiler = profiler().Profiler
			return h
		}},
	}
	wall := make([]time.Duration, len(sets))
	for i := 0; i < b.N; i++ {
		for k := range 2 * len(sets) {
			j := min(k, 2*len(sets)-1-k)
			s := sets[j]
			cfg := harness.DefaultFCTMin(harness.NUMFabric, harness.ScaledTopology(), 0.05)
			cfg.FatTree, cfg.Flows, cfg.Seed, cfg.Obs = ft, nflows, 1, s.hooks()
			cfg.Drain = sim.Duration(sim.Forever)
			runtime.GC()
			res := harness.RunDynamicWith(harness.EngineLeap, cfg)
			if res.Unfinished > 0 {
				b.Fatalf("%s: %d unfinished flows", s.name, res.Unfinished)
			}
			wall[j] += res.RunWall
		}
	}
	for j, s := range sets {
		b.ReportMetric(float64(wall[j].Nanoseconds())/float64(2*b.N*nflows), s.name+"-ns/flow")
		if j > 0 {
			b.ReportMetric(wall[j].Seconds()/wall[0].Seconds(), s.name+"-x")
		}
	}
}

// BenchmarkFluidPooling runs the ≥10k-subflow multipath fat-tree
// resource-pooling scenario — 1280 aggregate flow groups, each
// pooling 8 ECMP subflows under one proportional-fair utility of the
// aggregate rate, on a k=8 fat-tree — through the fluid engine's
// group-aware xWI dynamics, and reports the realized fraction of the
// pooled optimum (host line rate per group; the fabric is
// full-bisection). The packet engine's §6.3 run tops out near ~256
// subflows; this is two orders of magnitude past it.
func BenchmarkFluidPooling(b *testing.B) {
	cfg := harness.DefaultFatTreePooling(true)
	subflows := cfg.Groups * cfg.Subflows
	if subflows < 10000 {
		b.Fatalf("scenario has %d subflows, want ≥ 10000", subflows)
	}
	var res harness.PoolingResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res = harness.RunFatTreePooling(cfg)
	}
	b.ReportMetric(float64(subflows), "subflows")
	b.ReportMetric(float64(subflows)*float64(cfg.Epochs)*float64(b.N)/b.Elapsed().Seconds(), "subflow-epochs/s")
	b.ReportMetric(res.TotalThroughputPct(), "total-pct-of-optimal")
	b.ReportMetric(res.JainIndex(), "jain")
}
