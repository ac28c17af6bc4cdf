package harness

import (
	"numfabric/internal/core"
	"numfabric/internal/obs"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// FCTConfig parameterizes the §6.3 FCT-minimization comparison
// (Figure 7): NUMFabric with the FCT utility versus pFabric, on the
// web-search workload across load levels.
type FCTConfig struct {
	// Loads to sweep (paper: 0.2–0.8).
	Loads []float64
	// FlowsPerLoad caps arrivals at each load level.
	FlowsPerLoad int
	// Epsilon is the strict-concavity constant of the FCT utility
	// (paper: 0.125).
	Epsilon float64
	Topo    TopologyConfig
	// Obs attaches observability hooks to the fluid/leap engines (nil
	// hooks cost nothing and never change results).
	Obs  obs.Hooks
	Seed uint64
}

// DefaultFCT returns a scaled Figure 7 configuration.
func DefaultFCT() FCTConfig {
	return FCTConfig{
		Loads:        []float64{0.2, 0.4, 0.6, 0.8},
		FlowsPerLoad: 300,
		Epsilon:      0.125,
		Topo:         ScaledTopology(),
		Seed:         1,
	}
}

// FCTPoint is one Figure 7 data point.
type FCTPoint struct {
	Load          float64
	Scheme        string
	MeanNormFCT   float64 // mean FCT/FCT_ideal
	MedianNormFCT float64
	P95NormFCT    float64
	Unfinished    int
}

// RunFCTWith runs the Figure 7 experiment for one scheme at one load
// on the chosen engine and returns the normalized-FCT statistics. The
// FCT-minimization utility carries over unchanged (it is just another
// utility to the fluid and leap allocators); the packet-transport
// knobs (2× slowdown, full-BDP initial window) become the matching
// control-loop cadence on the fluid engine and are moot for leap.
func RunFCTWith(eng Engine, cfg FCTConfig, scheme Scheme, load float64) FCTPoint {
	dc := DynamicConfig{
		Topo:           cfg.Topo,
		Scheme:         DefaultConfig(scheme, cfg.Topo),
		CDF:            workload.WebSearch(),
		Load:           load,
		Flows:          cfg.FlowsPerLoad,
		Alpha:          cfg.Epsilon,
		Drain:          500 * sim.Millisecond,
		Obs:            cfg.Obs,
		Seed:           cfg.Seed,
		SkipFluidIdeal: true, // Figure 7 normalizes by line-rate FCT
	}
	if scheme == NUMFabric {
		// §6.3: the FCT objective is α-fairness with α = ε = 0.125;
		// "for NUMFabric to converge to optimal values for such a
		// small α, we slow down the system 2×", and the initial
		// window is a full BDP so short flows finish in one RTT,
		// mimicking pFabric.
		dc.Scheme.NUMFabric = dc.Scheme.NUMFabric.Slowed(2)
		dc.Scheme.NUMFabric.InitWindowBDP = true
		dc.UtilityFor = func(size int64) core.Utility {
			return core.FCTMin(size, cfg.Epsilon)
		}
	}
	res := RunDynamicWith(eng, dc)
	norm := res.NormalizedFCTs(cfg.Topo)
	return FCTPoint{
		Load:          load,
		Scheme:        scheme.String(),
		MeanNormFCT:   stats.Mean(norm),
		MedianNormFCT: stats.Median(norm),
		P95NormFCT:    stats.Percentile(norm, 0.95),
		Unfinished:    res.Unfinished,
	}
}
