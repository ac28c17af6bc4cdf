package leap

import (
	"math"
	"runtime"
	"testing"
	"time"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// normFCTStats returns the median and p95 of FCT normalized by each
// flow's line-rate wire time.
func normFCTStats(flows []*fluid.Flow, linkRate float64) (median, p95 float64) {
	norm := make([]float64, 0, len(flows))
	for _, f := range flows {
		norm = append(norm, f.FCT()*linkRate/(float64(f.SizeBytes)*8))
	}
	return stats.Median(norm), stats.Percentile(norm, 0.95)
}

// BenchmarkLeapComponents is the component-local A/B: the same
// web-search schedule on a k=8 fat-tree — denser than the root
// BenchmarkLeapFCT's, so coupled events dominate — through the leap
// engine twice, component-local versus the global reference mode
// (every active-set change re-solves the whole active set). It lives
// here because only this package can force that mode. The FCT
// distributions must match exactly (WaterFill is separable across
// components; the engine's property test pins byte-identity), and the
// reported metrics quantify the win: allocator flows-per-solve,
// wall-clock speedup, and the component sizes the workload actually
// produces.
func BenchmarkLeapComponents(b *testing.B) {
	const (
		nflows   = 200_000
		load     = 0.10
		linkRate = 10e9
	)
	var localRate, speedup, workRatio, avgComp float64
	for i := 0; i < b.N; i++ {
		// harness.FatTreeWebSearch's schedule (harness imports this
		// package, so it is drawn here): web-search Poisson arrivals and
		// one random ECMP path pick each, from one seeded stream.
		ft := fluid.NewFatTree(8, linkRate)
		rng := sim.NewRNG(uint64(i) + 1)
		arrivals := workload.Poisson(workload.PoissonConfig{
			Hosts:    ft.Hosts(),
			HostLink: sim.BitRate(ft.Rate),
			Load:     load,
			CDF:      workload.WebSearch(),
			Duration: sim.Duration(sim.Forever / 2),
			MaxFlows: nflows,
		}, rng)
		paths := make([][]int, len(arrivals))
		for j, a := range arrivals {
			paths[j] = ft.Route(a.Src, a.Dst, rng.Intn(ft.K*ft.K/4))
		}

		run := func(global bool) ([]*fluid.Flow, Stats, float64) {
			runtime.GC()
			wall := time.Now()
			eng := newEngine(ft.Net, Config{Allocator: fluid.NewWaterFill()}, global)
			flows := make([]*fluid.Flow, len(arrivals))
			for j, a := range arrivals {
				flows[j] = eng.AddFlow(paths[j], core.ProportionalFair(), a.Size, a.At.Seconds())
			}
			eng.Run(math.Inf(1))
			return flows, eng.Stats(), time.Since(wall).Seconds()
		}
		lFlows, lStats, lWall := run(false)
		gFlows, gStats, gWall := run(true)

		medL, p95L := normFCTStats(lFlows, linkRate)
		medG, p95G := normFCTStats(gFlows, linkRate)
		if medL != medG || p95L != p95G {
			b.Errorf("component-local FCTs diverge from global: median %v vs %v, p95 %v vs %v",
				medL, medG, p95L, p95G)
		}
		if 2*lStats.SolvedFlows > gStats.SolvedFlows {
			b.Errorf("allocator work %d flows vs %d global: < 2x reduction",
				lStats.SolvedFlows, gStats.SolvedFlows)
		}
		localRate = float64(len(lFlows)) / lWall
		speedup = gWall / lWall
		workRatio = float64(gStats.SolvedFlows) / math.Max(float64(lStats.SolvedFlows), 1)
		avgComp = float64(lStats.SolvedFlows) / math.Max(float64(lStats.Allocs), 1)
	}
	b.ReportMetric(localRate, "flows/s")
	b.ReportMetric(speedup, "speedup-vs-global")
	b.ReportMetric(workRatio, "alloc-work-reduction")
	b.ReportMetric(avgComp, "avg-component")
}
