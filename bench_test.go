package numfabric

// One benchmark per table and figure of the paper's evaluation (§6).
// Each benchmark regenerates the corresponding result at reduced scale
// (so `go test -bench .` completes in minutes) and reports the
// headline numbers as custom benchmark metrics; `cmd/numfabric
// -scale full` runs the paper-scale versions. README.md's engine
// comparison table records the measured headline numbers.

import (
	"math"
	"runtime"
	"testing"
	"time"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/obs"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// BenchmarkTable1_UtilityFunctions solves a representative NUM problem
// for every utility family of Table 1 and reports the induced
// allocations.
func BenchmarkTable1_UtilityFunctions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// α-fair and weighted α-fair.
		p := core.NewProblem([]float64{10e9})
		p.AddFlow([]int{0}, core.NewWeightedAlphaFair(1, 1))
		p.AddFlow([]int{0}, core.NewWeightedAlphaFair(1, 3))
		r := oracle.Solve(p, oracle.SolveOptions{})
		if i == 0 {
			b.ReportMetric(r.Rates[1]/r.Rates[0], "weighted-ratio")
		}

		// FCT minimization: small flow takes (nearly) everything.
		p2 := core.NewProblem([]float64{10e9})
		p2.AddFlow([]int{0}, core.FCTMin(10<<10, 0.125))
		p2.AddFlow([]int{0}, core.FCTMin(10<<20, 0.125))
		r2 := oracle.Solve(p2, oracle.SolveOptions{})
		if i == 0 {
			b.ReportMetric(r2.Rates[0]/1e9, "fctmin-small-Gbps")
		}

		// Resource pooling: aggregate utility pools two paths.
		p3 := core.NewProblem([]float64{10e9, 10e9})
		g := p3.AddAggregate(core.ProportionalFair())
		p3.AddSubflow(g, []int{0})
		p3.AddSubflow(g, []int{1})
		r3 := oracle.Solve(p3, oracle.SolveOptions{})
		if i == 0 {
			b.ReportMetric((r3.Rates[0]+r3.Rates[1])/1e9, "pooled-Gbps")
		}

		// Bandwidth functions: §2's water-fill via the NUM encoding.
		p4 := core.NewProblem([]float64{25e9})
		p4.AddFlow([]int{0}, core.NewBWUtility(harness.Fig2Flow1(), 5))
		p4.AddFlow([]int{0}, core.NewBWUtility(harness.Fig2Flow2(), 5))
		r4 := oracle.Solve(p4, oracle.SolveOptions{})
		if i == 0 {
			b.ReportMetric(r4.Rates[0]/1e9, "bwf-flow1-Gbps")
		}
	}
}

// BenchmarkTable2_DefaultParameters exercises a full NUMFabric
// stack construction with Table 2 defaults (the cost of setting up a
// fabric: topology, queues, agents).
func BenchmarkTable2_DefaultParameters(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fab := NewFabric(ScaledFabric(), SchemeNUMFabric)
		if fab.Hosts() != 32 {
			b.Fatal("bad fabric")
		}
	}
}

// BenchmarkFig2_BandwidthFunctionWaterfill reproduces Figure 2's
// allocations at 10 and 25 Gb/s.
func BenchmarkFig2_BandwidthFunctionWaterfill(b *testing.B) {
	funcs := []*core.BandwidthFunction{harness.Fig2Flow1(), harness.Fig2Flow2()}
	var last []float64
	for i := 0; i < b.N; i++ {
		oracle.BwESingleLink(10e9, funcs)
		last = oracle.BwESingleLink(25e9, funcs)
	}
	b.ReportMetric(last[0]/1e9, "flow1@25G-Gbps")
	b.ReportMetric(last[1]/1e9, "flow2@25G-Gbps")
}

// benchSemiDynamic runs a reduced semi-dynamic convergence experiment
// for one scheme and reports median/p95 convergence times in ms.
func benchSemiDynamic(b *testing.B, s harness.Scheme) {
	var res harness.SemiDynamicResult
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultSemiDynamic(s)
		cfg.Events = 6
		cfg.Seed = uint64(i + 1)
		res = harness.RunSemiDynamicWith(harness.EnginePacket, cfg)
	}
	b.ReportMetric(res.Median()*1e3, "median-ms")
	b.ReportMetric(res.P95()*1e3, "p95-ms")
	b.ReportMetric(float64(res.Unconverged), "unconverged")
}

// BenchmarkFig4a_ConvergenceCDF regenerates Figure 4a's convergence
// comparison: NUMFabric should be ~2-3x faster than DGD and RCP*.
func BenchmarkFig4a_ConvergenceCDF(b *testing.B) {
	b.Run("NUMFabric", func(b *testing.B) { benchSemiDynamic(b, harness.NUMFabric) })
	b.Run("DGD", func(b *testing.B) { benchSemiDynamic(b, harness.DGD) })
	b.Run("RCP", func(b *testing.B) { benchSemiDynamic(b, harness.RCP) })
}

// benchRateTrace samples one flow's rate trace and reports the
// fraction of samples within 10% of the Oracle rate — near zero for
// DCTCP (Figure 4b: "DCTCP flows essentially never converge") and
// high for NUMFabric (Figure 4c).
func benchRateTrace(b *testing.B, s harness.Scheme) {
	var within float64
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultSemiDynamic(s)
		cfg.Events = 3
		tr := harness.RunRateTrace(cfg, 0, 100*sim.Microsecond)
		n := 0
		for j := range tr.Rates {
			if tr.OracleRates[j] > 0 &&
				absF(tr.Rates[j]-tr.OracleRates[j])/tr.OracleRates[j] <= 0.10 {
				n++
			}
		}
		if len(tr.Rates) > 0 {
			within = float64(n) / float64(len(tr.Rates))
		}
	}
	b.ReportMetric(within*100, "samples-within-10pct-%")
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkFig4b_DCTCPRateTimeseries regenerates Figure 4b.
func BenchmarkFig4b_DCTCPRateTimeseries(b *testing.B) {
	benchRateTrace(b, harness.DCTCP)
}

// BenchmarkFig4c_NUMFabricRateTimeseries regenerates Figure 4c.
func BenchmarkFig4c_NUMFabricRateTimeseries(b *testing.B) {
	benchRateTrace(b, harness.NUMFabric)
}

// benchDeviation runs the Figure 5 dynamic-workload experiment and
// reports the median deviation of the large-flow bins.
func benchDeviation(b *testing.B, cdf *workload.SizeCDF) {
	var med, medBig float64
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultDynamic(harness.NUMFabric, cdf, 0.4)
		cfg.Flows = 200
		cfg.Seed = uint64(i + 1)
		res := harness.RunDynamicWith(harness.EnginePacket, cfg)
		var all []float64
		for _, rec := range res.Records {
			all = append(all, rec.Deviation())
		}
		med = stats.Median(all)
		bins := res.DeviationByBin()
		if s, ok := bins["(10-100)"]; ok {
			medBig = s.Median
		}
	}
	b.ReportMetric(med, "median-deviation")
	b.ReportMetric(medBig, "median-dev-10-100BDP")
}

// BenchmarkFig5a_WebSearchDeviation regenerates Figure 5a.
func BenchmarkFig5a_WebSearchDeviation(b *testing.B) {
	benchDeviation(b, workload.WebSearch())
}

// BenchmarkFig5b_EnterpriseDeviation regenerates Figure 5b.
func BenchmarkFig5b_EnterpriseDeviation(b *testing.B) {
	benchDeviation(b, workload.Enterprise())
}

// BenchmarkFig6a_SensitivityDt regenerates Figure 6a (median
// convergence vs the window slack dt).
func BenchmarkFig6a_SensitivityDt(b *testing.B) {
	var pts []harness.SweepPoint
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultSemiDynamic(harness.NUMFabric)
		cfg.Events = 4
		pts = harness.SweepDT(cfg, []sim.Duration{
			6 * sim.Microsecond, 12 * sim.Microsecond, 24 * sim.Microsecond,
		})
	}
	for _, pt := range pts {
		b.ReportMetric(pt.MedianConvergence*1e3, "median-ms@dt"+itoa(int(pt.Param))+"us")
	}
}

// BenchmarkFig6b_SensitivityUpdateInterval regenerates Figure 6b.
func BenchmarkFig6b_SensitivityUpdateInterval(b *testing.B) {
	var pts []harness.SweepPoint
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultSemiDynamic(harness.NUMFabric)
		cfg.Events = 4
		pts = harness.SweepPriceInterval(cfg, []sim.Duration{
			30 * sim.Microsecond, 60 * sim.Microsecond, 128 * sim.Microsecond,
		})
	}
	for _, pt := range pts {
		b.ReportMetric(pt.MedianConvergence*1e3, "median-ms@"+itoa(int(pt.Param))+"us")
	}
}

// BenchmarkFig6c_SensitivityAlpha regenerates Figure 6c (α sweep at 1x
// and 2x-slowed control loops).
func BenchmarkFig6c_SensitivityAlpha(b *testing.B) {
	var normal, slowed []harness.SweepPoint
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultSemiDynamic(harness.NUMFabric)
		cfg.Events = 3
		normal, slowed = harness.SweepAlpha(cfg, []float64{0.5, 1, 2}, 2)
	}
	for i := range normal {
		a := itoa(int(normal[i].Param * 10))
		b.ReportMetric(normal[i].MedianConvergence*1e3, "1x-ms@a"+a)
		b.ReportMetric(slowed[i].MedianConvergence*1e3, "2x-ms@a"+a)
	}
}

// BenchmarkFig7_FCTvsPFabric regenerates Figure 7: normalized FCT of
// NUMFabric (FCT-min utility) vs pFabric at 40% and 60% load.
func BenchmarkFig7_FCTvsPFabric(b *testing.B) {
	var nf4, pf4, nf6, pf6 harness.FCTPoint
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultFCT()
		cfg.FlowsPerLoad = 150
		cfg.Seed = uint64(i + 1)
		nf4 = harness.RunFCTWith(harness.EnginePacket, cfg, harness.NUMFabric, 0.4)
		pf4 = harness.RunFCTWith(harness.EnginePacket, cfg, harness.PFabric, 0.4)
		nf6 = harness.RunFCTWith(harness.EnginePacket, cfg, harness.NUMFabric, 0.6)
		pf6 = harness.RunFCTWith(harness.EnginePacket, cfg, harness.PFabric, 0.6)
	}
	b.ReportMetric(nf4.MeanNormFCT, "numfabric@0.4")
	b.ReportMetric(pf4.MeanNormFCT, "pfabric@0.4")
	b.ReportMetric(nf6.MeanNormFCT, "numfabric@0.6")
	b.ReportMetric(pf6.MeanNormFCT, "pfabric@0.6")
}

// BenchmarkFig8a_ResourcePoolingThroughput regenerates Figure 8a:
// total throughput vs subflow count, pooling on and off.
func BenchmarkFig8a_ResourcePoolingThroughput(b *testing.B) {
	var one, pooled4, nopool4 harness.PoolingResult
	for i := 0; i < b.N; i++ {
		one = harness.RunPoolingWith(harness.EnginePacket, harness.DefaultPooling(1, false))
		pooled4 = harness.RunPoolingWith(harness.EnginePacket, harness.DefaultPooling(4, true))
		nopool4 = harness.RunPoolingWith(harness.EnginePacket, harness.DefaultPooling(4, false))
	}
	b.ReportMetric(one.TotalThroughputPct(), "1subflow-%")
	b.ReportMetric(nopool4.TotalThroughputPct(), "4subflows-nopool-%")
	b.ReportMetric(pooled4.TotalThroughputPct(), "4subflows-pooled-%")
}

// BenchmarkFig8b_ResourcePoolingFairness regenerates Figure 8b: flow-
// level fairness under pooling.
func BenchmarkFig8b_ResourcePoolingFairness(b *testing.B) {
	var pooled, nopool harness.PoolingResult
	for i := 0; i < b.N; i++ {
		pooled = harness.RunPoolingWith(harness.EnginePacket, harness.DefaultPooling(4, true))
		nopool = harness.RunPoolingWith(harness.EnginePacket, harness.DefaultPooling(4, false))
	}
	b.ReportMetric(pooled.JainIndex(), "jain-pooled")
	b.ReportMetric(nopool.JainIndex(), "jain-nopool")
}

// BenchmarkFig9_BandwidthFunctions regenerates Figure 9: the capacity
// sweep of two bandwidth-function flows; reports worst-case deviation
// from the BwE water-fill.
func BenchmarkFig9_BandwidthFunctions(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		pts := harness.RunBWFCapacitySweep([]sim.BitRate{
			5 * sim.Gbps, 15 * sim.Gbps, 25 * sim.Gbps, 35 * sim.Gbps,
		}, 5, 10*sim.Millisecond)
		worst = 0
		for _, pt := range pts {
			worst = maxF(worst, absF(pt.Flow1-pt.Want1)/pt.Capacity)
			worst = maxF(worst, absF(pt.Flow2-pt.Want2)/pt.Capacity)
		}
	}
	b.ReportMetric(worst*100, "worst-dev-%of-capacity")
}

// BenchmarkFig10_BwFuncResourcePooling regenerates Figure 10:
// bandwidth functions + resource pooling across the 5→17 Gb/s step.
func BenchmarkFig10_BwFuncResourcePooling(b *testing.B) {
	var before, after harness.BWFPoolSample
	for i := 0; i < b.N; i++ {
		samples := harness.RunBWFPooling(5, 15*sim.Millisecond, 30*sim.Millisecond, sim.Millisecond)
		for _, s := range samples {
			if s.At < sim.Time(14*sim.Millisecond) {
				before = s
			}
			after = s
		}
	}
	b.ReportMetric(before.Flow1/1e9, "flow1-before-Gbps")
	b.ReportMetric(before.Flow2/1e9, "flow2-before-Gbps")
	b.ReportMetric(after.Flow1/1e9, "flow1-after-Gbps")
	b.ReportMetric(after.Flow2/1e9, "flow2-after-Gbps")
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// --- Fluid engine benchmarks ---

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
			cfg := harness.DefaultDynamic(harness.NUMFabric, workload.WebSearch(), 0.05)
			cfg.FatTree, cfg.Flows, cfg.Seed, cfg.Obs = ft, nflows, 1, s.hooks()
			cfg.UtilityFor = func(size int64) core.Utility { return core.FCTMin(size, 0.125) }
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
