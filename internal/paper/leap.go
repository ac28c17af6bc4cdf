package paper

import (
	"fmt"
	"math"
	"time"

	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/obs"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/trace"
)

// fatTreeFCTMin is the leapfct/leapfail scenario for
// harness.RunDynamicWith: §6.3's FCT-min recipe for NUMFabric on ft,
// run until nothing more can finish.
func fatTreeFCTMin(ft *fluid.FatTree, load float64, nflows int, seed uint64, hooks obs.Hooks) harness.DynamicConfig {
	cfg := harness.DefaultFCTMin(harness.NUMFabric, harness.ScaledTopology(), load)
	cfg.FatTree, cfg.Flows, cfg.Seed, cfg.Obs = ft, nflows, seed, hooks
	cfg.Drain = sim.Duration(sim.Forever)
	return cfg
}

// leapFCT is the event-driven FCT experiment: a web-search Poisson
// workload on a k=8 fat-tree played through the leap engine under the
// NUMFabric scheme's xWI dynamics (run to the fixed point at every
// arrival/departure) with the §6.3 FCT-minimizing utility — the same
// objective examples/fctmin demos at packet level — swept across load
// levels. It prints harness.RunDynamicWith(EngineLeap, …) on the
// fat-tree: each load's normalized FCT distribution (FCT over the
// flow's line-rate wire time) plus the engine telemetry that explains
// the speed: events and allocations, not simulated epochs, bound the
// work. Full scale runs the million-flow headline at one load;
// BenchmarkLeapFCT holds the same-accuracy comparison against the
// epoch engine.
func leapFCT(env Env, s Scale, seed uint64) Metrics {
	const k, linkRate = 8, 10e9
	nflows, loads := 10000, []float64{0.05, 0.15, 0.3}
	if s == Full {
		nflows, loads = 1000000, []float64{0.05}
	}
	ft := fluid.NewFatTree(k, linkRate)
	fmt.Fprintf(env, "leap-engine FCT sweep: k=%d fat-tree (%d hosts), websearch, %d flows per load\n",
		k, ft.Hosts(), nflows)
	fmt.Fprintf(env, "%-6s %10s %10s %10s %12s %10s %9s %8s %8s %9s %7s %7s %7s %10s\n",
		"load", "medNorm", "p95Norm", "flows/s", "events", "allocs", "avgComp", "maxComp", "workX",
		"batchW", "flood%", "solve%", "compl%", "wall")
	tab := trace.NewTable("load", "median_norm_fct", "p95_norm_fct", "flows_per_s",
		"events", "allocs", "solved_flows", "max_component", "elided", "full_solve_flows",
		"batches",
		"admit_ns", "flood_ns", "solve_ns", "resplice_ns", "complete_ns", "drain_ns", "loop_ns",
		"window_ns",
		"p99_norm_fct", "tail_flows", "tail_link", "tail_link_share")
	// The flow tracer behind the slowdown-attribution lines: env's when
	// it has one (numfabric -flowtrace-out/-debug-addr), a private sampled
	// tracer otherwise. Each load's engine binds it afresh, so /flows and
	// the JSONL export describe the current — finally the last — load.
	tracer := env.Obs.FlowTrace
	if tracer == nil {
		tracer = obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 0.01})
	}
	tracer.SetLinkName(ft.LinkName)
	for _, load := range loads {
		// Each load gets a fresh phase profiler (so its breakdown covers
		// exactly that run) on top of whatever -debug-addr/-trace-out
		// hooks are shared across the sweep.
		hooks := env.Obs
		hooks.Profiler = obs.NewPhaseProfiler()
		hooks.FlowTrace = tracer
		res := harness.RunDynamicWith(harness.EngineLeap, fatTreeFCTMin(ft, load, nflows, seed, hooks))
		elapsed, st := res.RunWall, res.LeapStats

		// One sort for the three quantiles of the normalized FCTs.
		norm := stats.Summarize(res.Slowdowns())
		med, p95, p99 := norm.Median, norm.P95, norm.P99
		rate := float64(norm.N) / elapsed.Seconds()
		// avgComp is the mean flows per allocator solve; workX the
		// factor saved against re-solving the full active set at every
		// coupled event (the engine's global-counterfactual counter);
		// batchW the mean disjoint components per reallocation batch.
		avgComp := float64(st.SolvedFlows) / math.Max(float64(st.Allocs), 1)
		workX := float64(st.FullSolveFlows) / math.Max(float64(st.SolvedFlows), 1)
		batchW := float64(st.BatchComponents) / math.Max(float64(st.Batches), 1)
		// Phase shares: where the play's wall time went, as a fraction
		// of the profiled total (the laps tile it, so the shares account
		// for essentially all of it; what the harness does between Steps
		// — draw, route, admit, harvest — is in the loop phase).
		ph := st.PhaseNanos
		total := math.Max(float64(hooks.Profiler.TotalNanos()), 1)
		pct := func(p obs.Phase) float64 { return 100 * float64(ph[p]) / total }
		fmt.Fprintf(env, "%-6.2f %10.2f %10.2f %10.0f %12d %10d %9.1f %8d %8.1f %9.2f %6.1f%% %6.1f%% %6.1f%% %10v\n",
			load, med, p95, rate, st.Events, st.Allocs, avgComp, st.MaxComponent, workX,
			batchW,
			pct(obs.PhaseFlood), pct(obs.PhaseSolve), pct(obs.PhaseComplete),
			elapsed.Round(time.Millisecond))
		// Tail-latency attribution: where the slowest 1% of traced flows
		// lost their service time, by bottleneck link. The slowest-K
		// reservoir guarantees the true tail is in the trace even at low
		// sample rates.
		attr, tailN := (&obs.FlowTrace{Flows: tracer.Records()}).TailAttribution(0.01)
		tailLink, tailShare := -1.0, 0.0
		if len(attr) > 0 {
			tailLink, tailShare = float64(attr[0].Link), attr[0].Share
			line := fmt.Sprintf("       p99 slowdown %.1fx:", p99)
			for i, ll := range attr {
				if i == 3 {
					break
				}
				line += fmt.Sprintf(" %.0f%% %s", 100*ll.Share, tracer.LinkNameOrIndex(ll.Link))
			}
			fmt.Fprintf(env, "%s (lost service of the %d slowest traced flows)\n", line, tailN)
		}
		_ = tab.Append(load, med, p95, rate, float64(st.Events), float64(st.Allocs),
			float64(st.SolvedFlows), float64(st.MaxComponent), float64(st.Elided), float64(st.FullSolveFlows),
			float64(st.Batches),
			float64(ph[obs.PhaseAdmit]), float64(ph[obs.PhaseFlood]), float64(ph[obs.PhaseSolve]),
			float64(ph[obs.PhaseResplice]), float64(ph[obs.PhaseComplete]), float64(ph[obs.PhaseDrain]),
			// window_ns: no phase laps it any more; the column stays
			// because the repository benchmark reads every phase by name.
			float64(ph[obs.PhaseLoop]), float64(ph[obs.PhaseWindow]),
			p99, float64(tailN), tailLink, tailShare)
	}
	env.writeCSV("leapfct.csv", tab)
	return nil
}
