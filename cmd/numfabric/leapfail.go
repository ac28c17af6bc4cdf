package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/leap"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/trace"
	"numfabric/internal/workload"
)

// runLeapFail is the fault-injection experiment: the leapfct workload
// (web-search Poisson on a k=8 fat-tree, FCT-min utility, leap engine)
// run under a seeded random link-failure process, swept across failure
// rates. Each failed link drops to zero capacity, stranding the flows
// crossing it until the link recovers; the engine re-solves exactly
// the components the fault touches. The table reports the degradation
// accounting (faults applied, flows stranded/resumed, stranded time,
// capacity lost) next to the FCT distribution, with the zero-rate row
// as the healthy baseline.
//
// With -faults the sweep is replaced by one run under the scripted
// fault list (targets resolve against the fat-tree: linkN, hostN,
// edgeP.E, aggP.A, coreC; a switch target fails every incident link).
func runLeapFail(full bool, seed uint64) {
	const k, linkRate = 8, 10e9
	nflows, load := 10000, 0.3
	failRates := []float64{0, 20, 60, 200} // link failures per second
	if full {
		nflows = 100000
		failRates = []float64{0, 20, 60}
	}
	const meanDowntime = 5 * sim.Millisecond
	cfg := harness.DefaultConfig(harness.NUMFabric, harness.ScaledTopology())
	fmt.Printf("leap fault injection: k=%d fat-tree, websearch load %.2f, %d flows, mean downtime %v\n",
		k, load, nflows, meanDowntime)
	fmt.Printf("%-10s %7s %8s %8s %8s %9s %10s %9s %8s %8s %6s %9s\n",
		"failrate", "faults", "stranded", "resumed", "ttr(ms)", "strand(s)", "lost(Gb·s)", "allocs", "medNorm", "p95Norm", "unfin", "wall")
	tab := trace.NewTable("fail_rate", "faults", "links_down", "stranded", "resumed",
		"time_to_recover_s", "stranded_s", "capacity_lost_bit_s", "allocs",
		"median_norm_fct", "p95_norm_fct", "unfinished")

	run := func(label string, mkFaults func(ft *fluid.FatTree, horizon sim.Duration) []workload.Fault) (leap.Stats, []float64) {
		// A fresh fat-tree per run: faults mutate its capacities in
		// place, and permanent failures leave links dead.
		ft := fluid.NewFatTree(k, linkRate)
		arrivals, paths := harness.FatTreeWebSearch(ft, load, nflows, sim.NewRNG(seed))
		horizon := sim.Duration(0)
		if len(arrivals) > 0 {
			horizon = sim.Duration(arrivals[len(arrivals)-1].At)
		}
		hooks := cliObs
		if tracer := hooks.FlowTrace; tracer != nil {
			tracer.Reset()
			// LinkLabel annotates links that end the run dead.
			tracer.SetLinkName(ft.LinkLabel)
		}
		eng := leap.NewEngine(ft.Net, leap.Config{
			Allocator: harness.LeapAllocatorFor(cfg),
			Obs:       hooks,
		})
		harness.ScheduleFaults(eng, mkFaults(ft, horizon))
		for i, a := range arrivals {
			eng.AddFlow(paths[i], core.FCTMin(a.Size, 0.125), a.Size, a.At.Seconds())
		}
		wall := time.Now()
		eng.Run(math.Inf(1))
		elapsed := time.Since(wall)

		var norm []float64
		for _, f := range eng.Finished() {
			norm = append(norm, f.FCT()/(float64(f.SizeBytes)*8/linkRate))
		}
		s := eng.Stats()
		unfinished := nflows - len(norm)
		// Mean time stranded flows spent at rate zero before resuming —
		// the flow-level time-to-recover.
		ttr := 0.0
		if s.Resumed > 0 {
			ttr = s.StrandedSec / float64(s.Resumed)
		}
		med, p95 := stats.Median(norm), stats.Percentile(norm, 0.95)
		fmt.Printf("%-10s %7d %8d %8d %8.2f %9.4f %10.2f %9d %8.2f %8.2f %6d %9v\n",
			label, s.Faults, s.Stranded, s.Resumed, ttr*1e3, s.StrandedSec,
			s.CapacityLostBitSec/1e9, s.Allocs, med, p95, unfinished,
			elapsed.Round(time.Millisecond))
		return s, norm
	}

	if faultSpec != "" {
		scripted, err := workload.ParseFaults(faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		run("scripted", func(ft *fluid.FatTree, _ sim.Duration) []workload.Fault {
			faults, err := harness.ExpandFaults(ft, scripted)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			return faults
		})
		return
	}

	for _, rate := range failRates {
		rate := rate
		s, norm := run(fmt.Sprintf("%.0f/s", rate), func(ft *fluid.FatTree, horizon sim.Duration) []workload.Fault {
			return workload.FaultSchedule(workload.FaultConfig{
				Links:        ft.Net.Links(),
				Rate:         rate,
				MeanDowntime: meanDowntime,
				Horizon:      horizon,
			}, sim.NewRNG(seed+0x9e3779b9))
		})
		ttr := 0.0
		if s.Resumed > 0 {
			ttr = s.StrandedSec / float64(s.Resumed)
		}
		_ = tab.Append(rate, float64(s.Faults), float64(s.LinksDown), float64(s.Stranded),
			float64(s.Resumed), ttr, s.StrandedSec, s.CapacityLostBitSec, float64(s.Allocs),
			stats.Median(norm), stats.Percentile(norm, 0.95), float64(nflows-len(norm)))
	}
	writeCSV("leapfail.csv", tab)
}
