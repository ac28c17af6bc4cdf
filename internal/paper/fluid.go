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

// fatTree is the large-scale fluid-only experiment: a k-ary
// fat-tree (k=8, 128 hosts; Full: k=16, 1024 hosts) serving a
// web-search Poisson workload of ≥50k flows under xWI dynamics — a
// regime the packet engine cannot reach (extrapolated runtime: hours).
// It prints harness.RunDynamicWith(EngineFluid, …) on the fat-tree.
func fatTree(env Env, s Scale, seed uint64) Metrics {
	k, nflows := 8, 50000
	if s == Full {
		k, nflows = 16, 200000
	}
	ft := fluid.NewFatTree(k, 10e9)
	fmt.Fprintf(env, "k=%d fat-tree: %d hosts, %d directed links, %d flows (websearch, load 0.5)\n",
		k, ft.Hosts(), ft.Net.Links(), nflows)

	// FCT-oriented scale run: proportional fairness under xWI dynamics
	// on a 100 µs epoch (convergence experiments use the scheme's 30 µs
	// price cadence; here the coarser epoch costs nothing measurable in
	// FCT accuracy and triples throughput), to one second past the last
	// arrival.
	cfg := harness.DefaultDynamic(harness.NUMFabric, workload.WebSearch(), 0.5)
	cfg.FatTree, cfg.Flows, cfg.Seed, cfg.Obs = ft, nflows, seed, env.Obs
	cfg.FluidEpoch, cfg.Drain = 100*sim.Microsecond, sim.Second
	res := harness.RunDynamicWith(harness.EngineFluid, cfg)

	fcts := make([]float64, len(res.Records))
	tab := trace.NewTable("size_bytes", "fct_s")
	for i, r := range res.Records {
		fcts[i] = r.FCT
		_ = tab.Append(float64(r.Size), r.FCT)
	}
	sum := stats.Summarize(fcts)
	fmt.Fprintf(env, "finished %d/%d flows (%d unfinished) in %v wall-clock (%.0f flows/s)\n",
		len(fcts), len(fcts)+res.Unfinished, res.Unfinished, res.RunWall.Round(time.Millisecond),
		float64(len(fcts))/res.RunWall.Seconds())
	fmt.Fprintf(env, "FCT: mean=%.3fms median=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n",
		sum.Mean*1e3, sum.Median*1e3, sum.P95*1e3, sum.P99*1e3, sum.Max*1e3)
	env.writeCSV("fattree_fct.csv", tab)
	return nil
}

// fluidPooling is the fluid-only resource-pooling-at-scale
// experiment (§6.3 / Figure 8 on a fat-tree): multipath aggregates
// pooling ECMP subflows under one utility of the aggregate rate,
// via fluid.Group. Part one sweeps subflows-per-pair on permutation
// traffic (the Figure 8 contrast: pooling recovers the capacity ECMP
// hash collisions strand); part two runs the dense ≥10k-subflow
// scenario the packet engine cannot reach.
func fluidPooling(env Env, s Scale, seed uint64) Metrics {
	k := 8
	if s == Full {
		k = 16
	}
	hosts := k * k * k / 4

	fmt.Fprintf(env, "Permutation traffic on a k=%d fat-tree (%d hosts); per-pair\n", k, hosts)
	fmt.Fprintln(env, "throughput as % of the pooled optimum (full-bisection host line rate):")
	fmt.Fprintf(env, "%-9s %-8s %8s %8s\n", "subflows", "pooling", "total%", "Jain")
	tab := trace.NewTable("subflows", "pooling", "total_pct", "jain")
	for _, m := range []int{1, 2, 4, 8} {
		for _, pool := range []bool{true, false} {
			cfg := harness.DefaultFatTreePooling(pool)
			cfg.K, cfg.Groups, cfg.Subflows, cfg.Seed = k, hosts, m, seed
			res := harness.RunFatTreePooling(cfg)
			fmt.Fprintf(env, "%-9d %-8v %7.1f%% %8.3f\n", m, pool, res.TotalThroughputPct(), res.JainIndex())
			p := 0.0
			if pool {
				p = 1
			}
			_ = tab.Append(float64(m), p, res.TotalThroughputPct(), res.JainIndex())
		}
	}
	env.writeCSV("fluidpooling_sweep.csv", tab)

	cfg := harness.DefaultFatTreePooling(true)
	cfg.Seed = seed
	if s == Full {
		cfg.K, cfg.Groups, cfg.Subflows = 16, 2048, 16
	}
	subflows := cfg.Groups * cfg.Subflows
	fmt.Fprintf(env, "\ndense scale run: %d groups × %d ECMP subflows = %d subflows, %d epochs\n",
		cfg.Groups, cfg.Subflows, subflows, cfg.Epochs)
	wall := time.Now()
	res := harness.RunFatTreePooling(cfg)
	elapsed := time.Since(wall)
	fmt.Fprintf(env, "total=%.1f%% of pooled optimum, Jain=%.3f, %v wall-clock (%.0f subflow-epochs/s)\n",
		res.TotalThroughputPct(), res.JainIndex(), elapsed.Round(time.Millisecond),
		float64(subflows*cfg.Epochs)/elapsed.Seconds())
	return nil
}

// fluidSweep fans independent seeds of the fluid semi-dynamic
// convergence experiment across goroutines (fluid.Sweep): a multi-seed
// Figure-4a at fluid speed, with deterministic per-shard RNG so the
// parallel run reproduces a serial one exactly.
func fluidSweep(env Env, s Scale, seed uint64) Metrics {
	shards := 8
	if s == Full {
		shards = 16
	}
	type shardResult struct {
		seed   uint64
		median float64
		p95    float64
		unconv int
	}
	wall := time.Now()
	results := fluid.Sweep(seed, shards,
		func(shard int, rng *sim.RNG) shardResult {
			cfg := harness.DefaultSemiDynamic(harness.NUMFabric)
			cfg.Seed = rng.Uint64()
			res := harness.RunSemiDynamicWith(harness.EngineFluid, cfg)
			return shardResult{cfg.Seed, res.Median(), res.P95(), res.Unconverged}
		})
	elapsed := time.Since(wall)

	fmt.Fprintf(env, "fluid convergence sweep, %d seeds in parallel (%v wall-clock):\n",
		shards, elapsed.Round(time.Millisecond))
	fmt.Fprintf(env, "%-6s %-20s %10s %10s %12s\n", "shard", "seed", "median_ms", "p95_ms", "unconverged")
	var medians []float64
	tab := trace.NewTable("shard", "median_s", "p95_s", "unconverged")
	for i, r := range results {
		fmt.Fprintf(env, "%-6d %-20d %10.3f %10.3f %12d\n", i, r.seed, r.median*1e3, r.p95*1e3, r.unconv)
		medians = append(medians, r.median)
		_ = tab.Append(float64(i), r.median, r.p95, float64(r.unconv))
	}
	fmt.Fprintf(env, "across seeds: median-of-medians=%.3fms spread=[%.3f, %.3f]ms\n",
		stats.Median(medians)*1e3, stats.Percentile(medians, 0)*1e3, stats.Percentile(medians, 1)*1e3)
	env.writeCSV("fluidsweep.csv", tab)
	return nil
}
