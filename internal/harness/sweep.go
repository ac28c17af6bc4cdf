package harness

import (
	"numfabric/internal/sim"
)

// SweepPoint is one sensitivity-sweep measurement (Figure 6).
type SweepPoint struct {
	// Param is the swept value (dt in µs, update interval in µs, or
	// α, depending on the sweep).
	Param float64
	// MedianConvergence is the median per-event convergence time in
	// seconds.
	MedianConvergence float64
	// Unconverged counts events that hit the timeout.
	Unconverged int
}

// sweep runs the packet-engine semi-dynamic experiment n times; vary
// applies the i-th swept value to a copy of base and returns it as the
// point's Param.
func sweep(base SemiDynamicConfig, n int, vary func(i int, cfg *SemiDynamicConfig) float64) []SweepPoint {
	out := make([]SweepPoint, n)
	for i := range out {
		cfg := base
		out[i].Param = vary(i, &cfg)
		res := RunSemiDynamicWith(EnginePacket, cfg)
		out[i].MedianConvergence, out[i].Unconverged = res.Median(), res.Unconverged
	}
	return out
}

// SweepDT reproduces Figure 6a: median convergence time versus the
// window slack dt (Param in µs). Too-small dt leaves flows without
// queued packets at their bottleneck (events fail to converge);
// too-large dt builds queues and slows convergence.
func SweepDT(base SemiDynamicConfig, dts []sim.Duration) []SweepPoint {
	return sweep(base, len(dts), func(i int, cfg *SemiDynamicConfig) float64 {
		cfg.Scheme.NUMFabric.DT = dts[i]
		return float64(dts[i]) / 1e6
	})
}

// SweepPriceInterval reproduces Figure 6b: median convergence time
// versus the xWI price update interval (Param in µs; paper: 30–128 µs,
// ~2 RTTs is the sweet spot).
func SweepPriceInterval(base SemiDynamicConfig, intervals []sim.Duration) []SweepPoint {
	return sweep(base, len(intervals), func(i int, cfg *SemiDynamicConfig) float64 {
		cfg.Scheme.NUMFabric.PriceUpdateInterval = intervals[i]
		return float64(intervals[i]) / 1e6
	})
}

// SweepAlpha reproduces Figure 6c: median convergence time versus the
// α-fairness exponent, at normal speed and with the control loop
// slowed by slowFactor (the paper's 2× remedy for extreme α).
func SweepAlpha(base SemiDynamicConfig, alphas []float64, slowFactor float64) (normal, slowed []SweepPoint) {
	normal = sweep(base, len(alphas), func(i int, cfg *SemiDynamicConfig) float64 {
		cfg.Alpha = alphas[i]
		return alphas[i]
	})
	slowed = sweep(base, len(alphas), func(i int, cfg *SemiDynamicConfig) float64 {
		cfg.Alpha = alphas[i]
		cfg.Scheme.NUMFabric = cfg.Scheme.NUMFabric.Slowed(slowFactor)
		return alphas[i]
	})
	return normal, slowed
}

// RateTrace samples one flow's metered rate over time (Figures 4b/4c:
// "the rate of a typical flow" under DCTCP versus NUMFabric).
type RateTrace struct {
	Times []float64 // seconds
	Rates []float64 // bits/second
	// OracleRate is the flow's expected (optimal) rate over the trace
	// window, recomputed after each network event.
	OracleRates []float64
}

// RunRateTrace runs a semi-dynamic scenario and records the receive
// rate of the flow with the given index among the initially started
// flows, sampled every sampleEvery.
func RunRateTrace(cfg SemiDynamicConfig, flowIdx int, sampleEvery sim.Duration) RateTrace {
	r, sub := newPacketSemiDynamic(cfg)
	var trace RateTrace
	sub.eng.Every(sim.Time(sampleEvery), sampleEvery, func() {
		if flowIdx < len(r.active) {
			trace.Times = append(trace.Times, sub.eng.Now().Seconds())
			trace.Rates = append(trace.Rates, sub.rate(r.active[flowIdx].handle))
			trace.OracleRates = append(trace.OracleRates, r.want[flowIdx])
		}
	})
	r.run()
	return trace
}
