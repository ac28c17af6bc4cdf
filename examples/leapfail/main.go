// Fault injection on the leap engine: scripted link/switch failures,
// stranded-flow survival, and degradation accounting.
//
// A k=4 fat-tree plays a small web-search workload twice:
//
//  1. healthy — no faults, the baseline;
//  2. faulted — a scripted schedule (workload.ParseFaults +
//     harness.ExpandFaults, handed to the harness as
//     DynamicConfig.Faults) fails aggregation switch 0.0 (all eight of
//     its directed links) and later one host link, each recovering a
//     few milliseconds on. Fault events ride the same heap as
//     completions and retire in a canonical order.
//
// Flows crossing a dead link are stranded — rate zero, completion
// cancelled, payload frozen — and resume automatically when the link
// recovers, so with every failure paired to a recovery the run still
// finishes every flow. The engine accounts the degradation
// (Stats.{Faults,Stranded,Resumed,StrandedSec,CapacityLostBitSec}),
// and a FlowTracer on the faulted run checks the lost-service
// identity per flow: the per-link lost-service integrals — stranded
// time included, attributed to the failed bottleneck — sum to
// FCT − IdealFCT.
package main

import (
	"fmt"
	"math"

	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/obs"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

func main() {
	const (
		k, linkRate = 4, 10e9
		load, flows = 0.3, 400
		spec        = "agg0.0@10ms+8ms,link3@25ms+5ms"
	)

	// run plays the workload through harness.RunDynamicWith on a fresh
	// fat-tree (faults mutate its capacities in place) under the
	// scripted faults, if any.
	run := func(faultSpec string) (harness.DynamicResult, *obs.FlowTracer) {
		ft := fluid.NewFatTree(k, linkRate)
		tracer := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 1})
		tracer.SetLinkName(ft.LinkLabel)
		// DCTCP's flow-level model is max-min water-filling, the leap
		// engine's stationary allocator.
		cfg := harness.DefaultDynamic(harness.DCTCP, workload.WebSearch(), load)
		cfg.FatTree, cfg.Flows, cfg.Drain = ft, flows, sim.Duration(sim.Forever)
		cfg.Obs = obs.Hooks{FlowTrace: tracer}
		if faultSpec != "" {
			scripted, err := workload.ParseFaults(faultSpec)
			if err != nil {
				panic(err)
			}
			sched, err := harness.ExpandFaults(ft, scripted)
			if err != nil {
				panic(err)
			}
			cfg.Faults = func(sim.Time) []workload.Fault { return sched }
		}
		res := harness.RunDynamicWith(harness.EngineLeap, cfg)
		if res.Unfinished > 0 {
			panic(fmt.Sprintf("%d flows never finished — a stranded flow did not resume", res.Unfinished))
		}
		return res, tracer
	}

	healthy, _ := run("")
	faulted, tracer := run(spec)

	hs, fs := healthy.LeapStats, faulted.LeapStats
	if hs.Faults != 0 || fs.Faults == 0 {
		panic(fmt.Sprintf("fault counters wrong: healthy %d, faulted %d", hs.Faults, fs.Faults))
	}
	if fs.Stranded != fs.Resumed || fs.LinksDown != 0 {
		panic(fmt.Sprintf("every failure recovers, yet stranded %d != resumed %d (links down %d)",
			fs.Stranded, fs.Resumed, fs.LinksDown))
	}

	// Lost-service identity on every traced flow of the faulted run:
	// ΣLost (stranded time included) == FCT − IdealFCT.
	checked := tracer.Records()
	for _, r := range checked {
		if gap := r.FCT - r.IdealFCT; math.Abs(r.TotalLost()-gap) > 1e-6 {
			panic(fmt.Sprintf("flow %d: lost-service identity broken: %v vs %v",
				r.ID, r.TotalLost(), gap))
		}
	}

	hNorm, fNorm := healthy.Slowdowns(), faulted.Slowdowns()
	fmt.Printf("k=%d fat-tree, %d web-search flows, faults %q\n\n", k, len(hNorm), spec)
	fmt.Printf("%-8s %7s %9s %8s %10s %11s %9s %9s\n",
		"run", "faults", "stranded", "resumed", "strand(ms)", "lost(Gb·s)", "p50 slow", "p95 slow")
	fmt.Printf("%-8s %7d %9d %8d %10.3f %11.3f %9.2f %9.2f\n",
		"healthy", hs.Faults, hs.Stranded, hs.Resumed, hs.StrandedSec*1e3,
		hs.CapacityLostBitSec/1e9, stats.Median(hNorm), stats.Percentile(hNorm, 0.95))
	fmt.Printf("%-8s %7d %9d %8d %10.3f %11.3f %9.2f %9.2f\n",
		"faulted", fs.Faults, fs.Stranded, fs.Resumed, fs.StrandedSec*1e3,
		fs.CapacityLostBitSec/1e9, stats.Median(fNorm), stats.Percentile(fNorm, 0.95))
	fmt.Printf("\nall %d flows finished in both runs; %d stranded flows resumed; "+
		"lost-service identity held on %d traced flows\n",
		len(hNorm), fs.Resumed, len(checked))
}
