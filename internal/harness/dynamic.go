package harness

import (
	"math"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/leap"
	"numfabric/internal/netsim"
	"numfabric/internal/obs"
	"numfabric/internal/refsim"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// DynamicConfig parameterizes the §6.1 dynamic-workload experiment:
// Poisson flow arrivals from a measured size distribution, with each
// flow's average rate (size/FCT) compared against the rate it would
// have had under an instantaneous Oracle.
type DynamicConfig struct {
	Topo   TopologyConfig
	Scheme SchemeConfig

	CDF  *workload.SizeCDF
	Load float64
	// Flows caps the arrival count.
	Flows int
	// Alpha is the α-fair objective (paper: proportional fairness).
	Alpha float64
	// UtilityFor, if set, overrides the per-flow utility (e.g.
	// core.FCTMin for the §6.3 FCT-minimization experiment). The
	// default is the α-fair utility.
	UtilityFor func(size int64) core.Utility
	// Drain bounds how long the simulation runs past the last arrival
	// for stragglers to finish.
	Drain sim.Duration
	// SkipFluidIdeal disables the fluid-Oracle ideal-FCT computation
	// (IdealFCT fields become NaN); Figure 7 normalizes by the
	// line-rate FCT instead and does not need it.
	SkipFluidIdeal bool
	// FluidEpoch overrides the fluid epoch engine's allocation period
	// (default: the scheme's control-loop cadence, FluidEpochFor).
	// Accuracy studies and the leap-vs-epoch comparisons shrink it so
	// epoch quantization stops dominating short-flow FCTs; the leap
	// engine ignores it (event-driven time needs no epoch).
	FluidEpoch sim.Duration
	// Obs attaches observability hooks (phase profiler, tracer, live
	// progress, metrics) to the flow-level engines; the packet engine
	// ignores it. Nil hooks cost nothing and never change results.
	Obs  obs.Hooks
	Seed uint64
}

// DefaultDynamic returns a scaled dynamic-workload config.
func DefaultDynamic(s Scheme, cdf *workload.SizeCDF, load float64) DynamicConfig {
	topo := ScaledTopology()
	return DynamicConfig{
		Topo:   topo,
		Scheme: DefaultConfig(s, topo),
		CDF:    cdf,
		Load:   load,
		Flows:  400,
		Alpha:  1,
		Drain:  200 * sim.Millisecond,
		Seed:   1,
	}
}

// FlowRecord is the outcome of one finite flow.
type FlowRecord struct {
	Size     int64
	Start    sim.Time
	FCT      float64 // seconds; NaN if unfinished
	IdealFCT float64 // seconds, from the fluid Oracle
}

// Rate returns the flow's average rate size/FCT in bits/second.
func (r FlowRecord) Rate() float64 { return float64(r.Size) * 8 / r.FCT }

// IdealRate returns the Oracle's average rate for the flow.
func (r FlowRecord) IdealRate() float64 { return float64(r.Size) * 8 / r.IdealFCT }

// Deviation returns the paper's normalized rate deviation
// (rateWithX − idealRate)/idealRate.
func (r FlowRecord) Deviation() float64 {
	return (r.Rate() - r.IdealRate()) / r.IdealRate()
}

// DynamicResult aggregates a dynamic-workload run.
type DynamicResult struct {
	Records []FlowRecord
	// BDP is the network bandwidth-delay product in bytes (used for
	// the size bins of Figure 5).
	BDP float64
	// Unfinished counts flows that did not complete before the drain
	// deadline (excluded from Records).
	Unfinished int
	// LeapStats is the leap engine's work telemetry (events,
	// allocations, component sizes, batch widths) when the run used
	// the leap engine; nil for the packet and fluid epoch engines.
	LeapStats *leap.Stats
	// FluidStats is the epoch engine's work telemetry (epochs,
	// allocator solves, stationary-skip counts) when the run used the
	// fluid engine; nil for the packet and leap engines.
	FluidStats *fluid.Stats
}

// Fig5Bins are the flow-size bins of Figure 5, in BDP units.
var Fig5Bins = []struct {
	Label  string
	Lo, Hi float64 // BDPs
}{
	{"(0-5)", 0, 5},
	{"(5-10)", 5, 10},
	{"(10-100)", 10, 100},
	{"(100-1K)", 100, 1000},
	{"(1K-10K)", 1000, 10000},
}

// DeviationByBin returns a stats summary of the normalized rate
// deviation per Figure 5 size bin.
func (r DynamicResult) DeviationByBin() map[string]stats.Summary {
	byBin := make(map[string][]float64)
	for _, rec := range r.Records {
		bdps := float64(rec.Size) / r.BDP
		for _, b := range Fig5Bins {
			if bdps >= b.Lo && bdps < b.Hi {
				byBin[b.Label] = append(byBin[b.Label], rec.Deviation())
				break
			}
		}
	}
	out := make(map[string]stats.Summary, len(byBin))
	for k, v := range byBin {
		out[k] = stats.Summarize(v)
	}
	return out
}

// NormalizedFCTs returns FCT/idealLineRateFCT for every flow, the
// Figure 7 metric ("normalized to the lowest possible FCT for each
// flow given its size").
func (r DynamicResult) NormalizedFCTs(topo TopologyConfig) []float64 {
	out := make([]float64, 0, len(r.Records))
	for _, rec := range r.Records {
		out = append(out, rec.FCT/lineRateFCT(rec.Size, topo))
	}
	return out
}

// lineRateFCT is the lowest possible FCT for a flow: wire bytes at the
// host line rate plus the base RTT.
func lineRateFCT(size int64, topo TopologyConfig) float64 {
	pkts := (size + netsim.MSS - 1) / netsim.MSS
	wire := size + pkts*netsim.HeaderSize
	return float64(wire)*8/topo.HostLink.Float() + topo.BaseRTT().Seconds()
}

// dynamicWorkload draws cfg's seeded arrival schedule, ECMP spine
// picks, and per-flow utility mapping — the shared randomness of every
// engine's dynamic driver, so the packet, fluid, and leap engines play
// the byte-identical workload for a given seed.
func dynamicWorkload(cfg DynamicConfig, topo *Topology) ([]workload.Arrival, []int, func(int64) core.Utility) {
	rng := sim.NewRNG(cfg.Seed)
	arrivals := workload.Poisson(workload.PoissonConfig{
		Hosts:    len(topo.Hosts),
		HostLink: cfg.Topo.HostLink,
		Load:     cfg.Load,
		CDF:      cfg.CDF,
		Duration: sim.Duration(sim.Forever / 2),
		MaxFlows: cfg.Flows,
	}, rng)
	spines := make([]int, len(arrivals))
	for i := range spines {
		spines[i] = rng.Intn(cfg.Topo.Spines)
	}
	return arrivals, spines, cfg.utilityFor()
}

// utilityFor returns the per-flow utility mapping: cfg.UtilityFor, or
// the α-fair default.
func (cfg DynamicConfig) utilityFor() func(int64) core.Utility {
	if cfg.UtilityFor != nil {
		return cfg.UtilityFor
	}
	return func(int64) core.Utility { return core.NewAlphaFair(cfg.Alpha) }
}

// RunDynamicWith plays cfg's seeded Poisson workload — the identical
// arrival schedule and spine picks on every engine — through the
// packet simulator, the epoch engine or the leap engine, and pairs
// every finished flow with its fluid-Oracle ideal FCT.
func RunDynamicWith(eng Engine, cfg DynamicConfig) DynamicResult {
	if eng == EnginePacket {
		expectedShare := cfg.Topo.HostLink.Float() / 3
		cfg.Scheme.SetUtilityHint(cfg.utilityFor()(int64(expectedShare/8)), expectedShare)
		cfg.Scheme.RCP.Alpha = cfg.Alpha
		sub := newPacketFabric(cfg.Topo, cfg.Scheme)
		return runDynamic(cfg, sub.topo, sub)
	}
	topo := NewFluidTopology(cfg.Topo)
	baseRTT := cfg.Topo.BaseRTT().Seconds()
	if eng == EngineLeap {
		leng := leap.NewEngine(FluidNetwork(topo), leap.Config{
			Allocator: LeapAllocatorFor(cfg.Scheme),
			Obs:       cfg.Obs,
		})
		res := runDynamic(cfg, topo, &flowLevel{eng: leng, baseRTT: baseRTT})
		s := leng.Stats()
		res.LeapStats = &s
		return res
	}
	epoch := FluidEpochFor(cfg.Scheme)
	if cfg.FluidEpoch > 0 {
		epoch = cfg.FluidEpoch.Seconds()
	}
	feng := fluid.NewEngine(FluidNetwork(topo), fluid.Config{
		Epoch:     epoch,
		Allocator: FluidAllocatorFor(cfg.Scheme),
		Obs:       cfg.Obs,
	})
	res := runDynamic(cfg, topo, &flowLevel{eng: feng, baseRTT: baseRTT})
	s := feng.Stats()
	res.FluidStats = &s
	return res
}

// runDynamic is the Figure 5/7 scenario over any substrate. With
// SkipFluidIdeal every IdealFCT is NaN.
func runDynamic(cfg DynamicConfig, topo *Topology, sub flowPlayer) DynamicResult {
	arrivals, spines, utilityFor := dynamicWorkload(cfg, topo)
	var lastArrival sim.Time
	if n := len(arrivals); n > 0 {
		lastArrival = arrivals[n-1].At
	}
	playArrivals(sub, topo, arrivals, spines, utilityFor, lastArrival.Add(cfg.Drain))

	ideal := func(int) float64 { return math.NaN() }
	if !cfg.SkipFluidIdeal {
		fcts := FluidIdealFCTs(cfg, topo, arrivals, spines)
		ideal = func(i int) float64 { return fcts[i] }
	}
	res := DynamicResult{BDP: cfg.Topo.HostLink.Float() / 8 * cfg.Topo.BaseRTT().Seconds()}
	res.Records, res.Unfinished = flowRecords(sub, arrivals, ideal)
	return res
}

// playArrivals admits every arrival on its routed path (spines[i]
// picks arrival i's ECMP path) and runs the substrate to until.
func playArrivals(sub flowPlayer, topo *Topology, arrivals []workload.Arrival, spines []int,
	utilityFor func(int64) core.Utility, until sim.Time) {
	var pathBuf []int
	for i, a := range arrivals {
		fwd, _ := topo.Route(a.Src, a.Dst, spines[i])
		pathBuf = AppendPathLinkIDs(pathBuf[:0], fwd)
		sub.admit(pathBuf, utilityFor(a.Size), a.Size, a.At)
	}
	sub.run(until)
}

// flowRecords assembles one record per finished flow, in arrival
// order, and counts the rest.
func flowRecords(sub flowPlayer, arrivals []workload.Arrival, ideal func(i int) float64) (records []FlowRecord, unfinished int) {
	for i, a := range arrivals {
		fct, done := sub.fct(i)
		if !done {
			unfinished++
			continue
		}
		records = append(records, FlowRecord{Size: a.Size, Start: a.At, FCT: fct, IdealFCT: ideal(i)})
	}
	return records, unfinished
}

// FluidIdealFCTs computes, for each arrival, the FCT it would have if
// an Oracle "assigns all flows their optimal NUM rates
// instantaneously" (§6.1): internal/refsim — re-solve the whole NUM
// problem at every arrival and departure, drain at the optimal rates in
// between — with the exact Oracle allocator warm-started across
// events, plus the base RTT, which even the Oracle cannot beat.
func FluidIdealFCTs(cfg DynamicConfig, topo *Topology, arrivals []workload.Arrival, spines []int) []float64 {
	d0 := cfg.Topo.BaseRTT().Seconds()
	ref := &flowLevel{
		eng:     refsim.New(fluid.NewNetwork(topo.Net.Capacities()), &fluid.Oracle{MaxIter: 1500}),
		baseRTT: d0,
	}
	playArrivals(ref, topo, arrivals, spines, cfg.utilityFor(), sim.Forever)
	out := make([]float64, len(arrivals))
	for i := range out {
		// A flow the Oracle never finishes (NaN) or finishes in no time
		// falls back to the RTT alone, for downstream division.
		if out[i], _ = ref.fct(i); math.IsNaN(out[i]) || out[i] <= 0 {
			out[i] = d0
		}
	}
	return out
}
