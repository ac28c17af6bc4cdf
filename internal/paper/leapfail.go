package paper

import (
	"fmt"
	"time"

	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/trace"
	"numfabric/internal/workload"
)

// leapFail is the fault-injection experiment: the leapfct workload
// (web-search Poisson on a k=8 fat-tree, FCT-min utility, leap engine)
// run under a seeded random link-failure process, swept across failure
// rates. Each failed link drops to zero capacity, stranding the flows
// crossing it until the link recovers; the engine re-solves exactly
// the components the fault touches. The table reports the degradation
// accounting (faults applied, flows stranded/resumed, stranded time,
// capacity lost) next to the FCT distribution, with the zero-rate row
// as the healthy baseline.
//
// With env.Faults the sweep is replaced by one run under that
// scripted list (already expanded against LeapFailTree: a switch
// target fails every incident link). Every run is
// harness.RunDynamicWith(EngineLeap, …) with DynamicConfig.Faults.
func leapFail(env Env, s Scale, seed uint64) Metrics {
	nflows, load := 10000, 0.3
	failRates := []float64{0, 20, 60, 200} // link failures per second
	if s == Full {
		nflows = 100000
		failRates = []float64{0, 20, 60}
	}
	const meanDowntime = 5 * sim.Millisecond
	fmt.Fprintf(env, "leap fault injection: k=%d fat-tree, websearch load %.2f, %d flows, mean downtime %v\n",
		LeapFailTree().K, load, nflows, meanDowntime)
	fmt.Fprintf(env, "%-10s %7s %8s %8s %8s %9s %10s %9s %8s %8s %6s %9s\n",
		"failrate", "faults", "stranded", "resumed", "ttr(ms)", "strand(s)", "lost(Gb·s)", "allocs", "medNorm", "p95Norm", "unfin", "wall")
	tab := trace.NewTable("fail_rate", "faults", "links_down", "stranded", "resumed",
		"time_to_recover_s", "stranded_s", "capacity_lost_bit_s", "allocs",
		"median_norm_fct", "p95_norm_fct", "unfinished")

	// run plays the workload under one fault schedule, prints its row
	// and appends it to tab under the given failure rate.
	run := func(label string, rate float64, faults func(lastArrival sim.Time) []workload.Fault) {
		// A fresh fat-tree per run: faults mutate its capacities in
		// place, and permanent failures leave links dead.
		ft := LeapFailTree()
		hooks := env.Obs
		if tracer := hooks.FlowTrace; tracer != nil {
			tracer.Reset()
			// LinkLabel annotates links that end the run dead.
			tracer.SetLinkName(ft.LinkLabel)
		}
		cfg := fatTreeFCTMin(ft, load, nflows, seed, hooks)
		cfg.Faults = faults
		res := harness.RunDynamicWith(harness.EngineLeap, cfg)
		st, norm := res.LeapStats, stats.Summarize(res.Slowdowns())
		// Mean time stranded flows spent at rate zero before resuming —
		// the flow-level time-to-recover.
		ttr := 0.0
		if st.Resumed > 0 {
			ttr = st.StrandedSec / float64(st.Resumed)
		}
		med, p95 := norm.Median, norm.P95
		fmt.Fprintf(env, "%-10s %7d %8d %8d %8.2f %9.4f %10.2f %9d %8.2f %8.2f %6d %9v\n",
			label, st.Faults, st.Stranded, st.Resumed, ttr*1e3, st.StrandedSec,
			st.CapacityLostBitSec/1e9, st.Allocs, med, p95, res.Unfinished,
			res.RunWall.Round(time.Millisecond))
		_ = tab.Append(rate, float64(st.Faults), float64(st.LinksDown), float64(st.Stranded),
			float64(st.Resumed), ttr, st.StrandedSec, st.CapacityLostBitSec, float64(st.Allocs),
			med, p95, float64(res.Unfinished))
	}

	if env.Faults != nil {
		// One run, one printed row; leapfail.csv is the sweep's.
		run("scripted", 0, func(sim.Time) []workload.Fault { return env.Faults })
		return nil
	}
	links := LeapFailTree().Net.Links()
	for _, rate := range failRates {
		run(fmt.Sprintf("%.0f/s", rate), rate, func(last sim.Time) []workload.Fault {
			return workload.FaultSchedule(workload.FaultConfig{
				Links:        links,
				Rate:         rate,
				MeanDowntime: meanDowntime,
				Horizon:      sim.Duration(last),
			}, sim.NewRNG(seed+0x9e3779b9))
		})
	}
	env.writeCSV("leapfail.csv", tab)
	return nil
}

// LeapFailTree builds the fabric leapfail runs on at either scale;
// a scripted fault list resolves its targets against it.
func LeapFailTree() *fluid.FatTree { return fluid.NewFatTree(8, 10e9) }
