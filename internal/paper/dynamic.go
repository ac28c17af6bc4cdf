package paper

import (
	"fmt"
	"math"
	"strings"

	"numfabric/internal/harness"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/trace"
	"numfabric/internal/workload"
)

// fig5 plays a dynamic Poisson workload and prints each scheme's
// normalized rate deviation from the Oracle ideal by flow size; its
// metrics are NUMFabric's median deviation, over all flows and over
// the 10–100 BDP bin.
func fig5(env Env, s Scale, seed uint64, cdf *workload.SizeCDF) Metrics {
	fmt.Fprintf(env, "Normalized rate deviation from Oracle by flow size (Figure 5, %s, %s engine):\n", cdf.Name(), env.Engine)
	flows := map[Scale]int{Short: 200, Scaled: 400, Full: 2000}[s]
	m := Metrics{}
	for _, scheme := range []harness.Scheme{harness.NUMFabric, harness.DGD, harness.RCP} {
		cfg := harness.DefaultDynamic(scheme, cdf, 0.4)
		cfg.Flows = flows
		cfg.Seed = seed
		cfg.Obs = env.Obs
		if s == Full {
			cfg.Topo = harness.PaperTopology()
			cfg.Scheme = harness.DefaultConfig(scheme, cfg.Topo)
		}
		res := harness.RunDynamicWith(env.Engine, cfg)
		fmt.Fprintf(env, "\n%s (%d finished, %d unfinished):\n", scheme, len(res.Records), res.Unfinished)
		bins := res.DeviationByBin()
		for _, b := range harness.Fig5Bins {
			if sum, ok := bins[b.Label]; ok {
				fmt.Fprintf(env, "  %-10s n=%-4d median=%+.2f p25=%+.2f p75=%+.2f\n",
					b.Label, sum.N, sum.Median, sum.P25, sum.P75)
			}
		}
		if scheme == harness.NUMFabric {
			devs := make([]float64, len(res.Records))
			for i, r := range res.Records {
				devs[i] = r.Deviation()
			}
			m["median-deviation"] = stats.Median(devs)
			m["median-dev-10-100BDP"] = bins["(10-100)"].Median
		}
	}
	return m
}

// fig7 compares NUMFabric's normalized FCTs with pFabric's on the
// web-search workload; its metrics are the mean normalized FCTs.
func fig7(env Env, s Scale, seed uint64) Metrics {
	fmt.Fprintf(env, "FCT vs pFabric on the web-search workload (Figure 7, %s engine):\n", env.Engine)
	topo, flows, loads := harness.ScaledTopology(), 300, []float64{0.2, 0.4, 0.6, 0.8}
	switch s {
	case Short:
		flows, loads = 150, []float64{0.4, 0.6}
	case Full:
		topo, flows = harness.PaperTopology(), 2000
	}
	fmt.Fprintf(env, "%-6s %-10s %10s %10s %10s\n", "load", "scheme", "meanNorm", "medianNorm", "p95Norm")
	m := Metrics{}
	for _, load := range loads {
		for _, scheme := range []harness.Scheme{harness.NUMFabric, harness.PFabric} {
			cfg := harness.DefaultFCTMin(scheme, topo, load)
			cfg.Flows, cfg.Seed, cfg.Obs = flows, seed, env.Obs
			norm := harness.RunDynamicWith(env.Engine, cfg).NormalizedFCTs(topo)
			mean := stats.Mean(norm)
			fmt.Fprintf(env, "%-6.1f %-10s %10.2f %10.2f %10.2f\n",
				load, scheme, mean, stats.Median(norm), stats.Percentile(norm, 0.95))
			m[fmt.Sprintf("%s@%g", strings.ToLower(scheme.String()), load)] = mean
		}
	}
	return m
}

// fig8 sweeps the subflow count with pooling on and off; its metrics
// are the total throughput with one subflow and, at four subflows,
// the total throughput and Jain's index pooled and not (Figures 8a
// and 8b).
func fig8(env Env, s Scale, seed uint64) Metrics {
	fmt.Fprintf(env, "Resource pooling (Figure 8, %s engine):\n", sampledEngine(env))
	fmt.Fprintf(env, "%-9s %-8s %8s %8s\n", "subflows", "pooling", "total%", "Jain")
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if s == Short {
		ks = []int{1, 4}
	}
	m := Metrics{}
	for _, k := range ks {
		for _, pool := range []bool{true, false} {
			cfg := harness.DefaultPooling(k, pool)
			cfg.Seed = seed
			res := harness.RunPoolingWith(env.Engine, cfg)
			fmt.Fprintf(env, "%-9d %-8v %7.1f%% %8.3f\n", k, pool, res.TotalThroughputPct(), res.JainIndex())
			switch {
			case k == 1 && !pool:
				m["1subflow-%"] = res.TotalThroughputPct()
			case k == 4 && pool:
				m["4subflows-pooled-%"], m["jain-pooled"] = res.TotalThroughputPct(), res.JainIndex()
			case k == 4:
				m["4subflows-nopool-%"], m["jain-nopool"] = res.TotalThroughputPct(), res.JainIndex()
			}
		}
	}
	return m
}

// fig9 sweeps the capacity under two bandwidth-function flows; its
// metric is the worst deviation of a measured rate from the BwE
// water-fill, in % of the capacity.
func fig9(env Env, s Scale, seed uint64) Metrics {
	fmt.Fprintln(env, "Bandwidth-function capacity sweep (Figure 9):")
	var caps []sim.BitRate
	for c := int64(5); c <= 35; c += 5 {
		caps = append(caps, sim.BitRate(c)*sim.Gbps)
	}
	measure := map[Scale]sim.Duration{Short: 10, Scaled: 12, Full: 30}[s] * sim.Millisecond
	if s == Short {
		caps = []sim.BitRate{5 * sim.Gbps, 15 * sim.Gbps, 25 * sim.Gbps, 35 * sim.Gbps}
	}
	tab := trace.NewTable("capacity_bps", "flow1_bps", "want1_bps", "flow2_bps", "want2_bps")
	worst := 0.0
	for _, pt := range harness.RunBWFCapacitySweep(caps, 5, measure) {
		fmt.Fprintf(env, "  C=%4.0fG  flow1 %5.2f/%5.2f  flow2 %5.2f/%5.2f  (meas/want Gbps)\n",
			pt.Capacity/1e9, pt.Flow1/1e9, pt.Want1/1e9, pt.Flow2/1e9, pt.Want2/1e9)
		_ = tab.Append(pt.Capacity, pt.Flow1, pt.Want1, pt.Flow2, pt.Want2)
		worst = math.Max(worst, math.Abs(pt.Flow1-pt.Want1)/pt.Capacity)
		worst = math.Max(worst, math.Abs(pt.Flow2-pt.Want2)/pt.Capacity)
	}
	env.writeCSV("fig9_sweep.csv", tab)
	return Metrics{"worst-dev-%of-capacity": worst * 100}
}

// fig10 steps the capacity under two pooled bandwidth-function flows;
// its metrics are both flows' rates a millisecond before the step and
// at the end.
func fig10(env Env, s Scale, seed uint64) Metrics {
	fmt.Fprintln(env, "Bandwidth functions + resource pooling across a capacity step (Figure 10):")
	step, runFor, every := 20*sim.Millisecond, 40*sim.Millisecond, 2*sim.Millisecond
	if s == Short {
		step, runFor, every = 15*sim.Millisecond, 30*sim.Millisecond, sim.Millisecond
	}
	tab := trace.NewTable("time_s", "flow1_bps", "flow2_bps")
	var before, after harness.BWFPoolSample
	for _, x := range harness.RunBWFPooling(5, step, runFor, every) {
		fmt.Fprintf(env, "  t=%5.1fms flow1=%5.2fG flow2=%5.2fG\n",
			float64(x.At)/1e9, x.Flow1/1e9, x.Flow2/1e9)
		_ = tab.Append(x.At.Seconds(), x.Flow1, x.Flow2)
		if x.At < sim.Time(step-sim.Millisecond) {
			before = x
		}
		after = x
	}
	env.writeCSV("fig10_timeseries.csv", tab)
	fmt.Fprintf(env, "expected: (10, 3) before %.0fms, (15, 10) after\n", float64(step)/1e9)
	return Metrics{
		"flow1-before-Gbps": before.Flow1 / 1e9,
		"flow2-before-Gbps": before.Flow2 / 1e9,
		"flow1-after-Gbps":  after.Flow1 / 1e9,
		"flow2-after-Gbps":  after.Flow2 / 1e9,
	}
}
