package harness

import (
	"iter"
	"math"
	"time"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/leap"
	"numfabric/internal/netsim"
	"numfabric/internal/obs"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/transport"
	"numfabric/internal/workload"
)

// DynamicConfig parameterizes the §6.1 dynamic-workload experiment:
// Poisson flow arrivals from a measured size distribution, with each
// flow's average rate (size/FCT) compared against the rate it would
// have had under an instantaneous Oracle.
type DynamicConfig struct {
	Topo   TopologyConfig
	Scheme SchemeConfig
	// FatTree, if set, replaces the leaf-spine Topo with this k-ary
	// fat-tree — the scale experiments, fluid and leap engines only.
	// FCTs get no RTT added, every IdealFCT is the line-rate transfer
	// time size·8/rate (an Oracle re-solve per event is out of reach at
	// this scale), and BDP is 0.
	FatTree *fluid.FatTree

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
	// for stragglers to finish; sim.Duration(sim.Forever) runs until
	// nothing further can happen.
	Drain sim.Duration
	// Faults, if set, returns the link faults the leap engine (only)
	// retires as events, given the last arrival's instant — the horizon
	// a seeded failure process draws to.
	Faults func(lastArrival sim.Time) []workload.Fault
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

// DefaultFCTMin returns §6.3's FCT-minimization scenario (Figure 7) on
// topo at the given load: the dynamic workload on the web-search CDF
// with the α-fair objective at α = ε, a 500 ms drain, and no Oracle
// ideals (Figure 7 normalizes by the line-rate FCT, NormalizedFCTs).
// For NUMFabric each flow takes the FCT-min utility, and "for NUMFabric
// to converge to optimal values for such a small α, we slow down the
// system 2×"; its initial window is a full BDP so short flows finish in
// one RTT, mimicking pFabric. The fluid engine reads the slowed loop as
// its epoch; the leap engine reads neither knob.
func DefaultFCTMin(s Scheme, topo TopologyConfig, load float64) DynamicConfig {
	cfg := DefaultDynamic(s, workload.WebSearch(), load)
	cfg.Topo, cfg.Scheme = topo, DefaultConfig(s, topo)
	cfg.Alpha = core.FCTEpsilon
	cfg.Drain = 500 * sim.Millisecond
	cfg.SkipFluidIdeal = true
	if s == NUMFabric {
		cfg.Scheme.NUMFabric = cfg.Scheme.NUMFabric.Slowed(2)
		cfg.Scheme.NUMFabric.InitWindowBDP = true
		cfg.UtilityFor = func(size int64) core.Utility { return core.FCTMin(size, core.FCTEpsilon) }
	}
	return cfg
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
	// RunWall is the wall-clock time of the play: every arrival drawn,
	// routed and admitted and the engine run to the drain deadline —
	// interleaved on the leap engine, which steps between admissions, so
	// there is no engine-only share to report. The dry pass that sizes
	// the schedule and the fluid-Oracle ideals are outside it. It is the
	// denominator of every flows/s the experiments print.
	RunWall time.Duration
}

// Slowdowns returns FCT/IdealFCT for every record.
func (r DynamicResult) Slowdowns() []float64 {
	out := make([]float64, len(r.Records))
	for i, rec := range r.Records {
		out[i] = rec.FCT / rec.IdealFCT
	}
	return out
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

// schedule is a drawn arrival schedule: n arrivals, the last at
// instant last, and all, every pass over which yields the same arrivals
// in order, each with its ECMP pick.
type schedule struct {
	n    int
	last sim.Time
	all  iter.Seq2[workload.Arrival, int]
}

// sliceSchedule is a schedule held whole: arrivals[i] takes picks[i].
func sliceSchedule(arrivals []workload.Arrival, picks []int) schedule {
	s := schedule{n: len(arrivals), all: func(yield func(workload.Arrival, int) bool) {
		for i, a := range arrivals {
			if !yield(a, picks[i]) {
				return
			}
		}
	}}
	if s.n > 0 {
		s.last = arrivals[s.n-1].At
	}
	return s
}

// poissonStream is the dynamic family's one draw — a Poisson schedule
// of at most flows arrivals over fab's hosts, then one ECMP pick per
// arrival, all from rng, so every engine and either fabric plays the
// byte-identical workload for a given seed — held as two RNG states,
// not two slices: one discarded pass over the arrivals finds their
// count, the last instant (faults and the drain deadline need it up
// front) and where in the stream the picks begin; every pass after
// that regenerates both from value copies. The discarded pass makes
// every draw but interpolates no size (PoissonGen.Draw). rng is left
// at the first pick.
func poissonStream(fab fabric, cdf *workload.SizeCDF, load float64, flows int, rng *sim.RNG) schedule {
	if flows <= 0 {
		load = 0 // Flows caps the count; MaxFlows ≤ 0 would mean no cap
	}
	arrivalsFrom := *rng
	gen := *workload.NewPoisson(workload.PoissonConfig{
		Hosts:    fab.hosts(),
		HostLink: fab.hostLink(),
		Load:     load,
		CDF:      cdf,
		Duration: sim.Duration(sim.Forever / 2),
		MaxFlows: flows,
	}, rng)
	var s schedule
	for dry := gen; ; s.n++ {
		a, _, ok := dry.Draw()
		if !ok {
			break
		}
		s.last = a.At
	}
	picksFrom, fan := *rng, fab.fanOut()
	s.all = func(yield func(workload.Arrival, int) bool) {
		g, ar, pr := gen, arrivalsFrom, picksFrom
		g.RNG = &ar
		for a, ok := g.Next(); ok && yield(a, pr.Intn(fan)); a, ok = g.Next() {
		}
	}
	return s
}

// poissonSchedule is poissonStream collected; rng ends after the last
// pick, as if both slices had been drawn from it.
func poissonSchedule(fab fabric, cdf *workload.SizeCDF, load float64, flows int, rng *sim.RNG) ([]workload.Arrival, []int) {
	s := poissonStream(fab, cdf, load, flows, rng)
	arrivals, picks := make([]workload.Arrival, 0, s.n), make([]int, 0, s.n)
	for a, pick := range s.all {
		arrivals, picks = append(arrivals, a), append(picks, pick)
		rng.Intn(fab.fanOut())
	}
	return arrivals, picks
}

// ecmpPicks draws one ECMP path pick per arrival.
func ecmpPicks(fab fabric, n int, rng *sim.RNG) []int {
	picks := make([]int, n)
	for i := range picks {
		picks[i] = rng.Intn(fab.fanOut())
	}
	return picks
}

// utilityFor returns the per-flow utility mapping: cfg.UtilityFor, or
// the α-fair default.
func (cfg DynamicConfig) utilityFor() func(int64) core.Utility {
	if cfg.UtilityFor != nil {
		return cfg.UtilityFor
	}
	return func(int64) core.Utility { return core.NewAlphaFair(cfg.Alpha) }
}

// baseRTT is the propagation floor the flow-level engines do not
// model: the leaf-spine fabric's base RTT, none on a fat-tree.
func (cfg DynamicConfig) baseRTT() float64 {
	if cfg.FatTree != nil {
		return 0
	}
	return cfg.Topo.BaseRTT().Seconds()
}

// RunDynamicWith plays cfg's seeded Poisson workload — the identical
// arrival schedule and ECMP picks on every engine — through the packet
// simulator, the epoch engine or the leap engine, and pairs every
// finished flow with its ideal FCT: the fluid Oracle's on the
// leaf-spine fabric, the line-rate transfer time on cfg.FatTree. A
// config the engine cannot play panics naming the field.
func RunDynamicWith(eng Engine, cfg DynamicConfig) DynamicResult {
	switch {
	case cfg.FatTree != nil && eng == EnginePacket:
		panic("harness: DynamicConfig.FatTree runs on the fluid and leap engines, not on packets")
	case cfg.Faults != nil && eng != EngineLeap:
		panic("harness: DynamicConfig.Faults needs the leap engine; " + eng.String() + " has no link faults")
	}
	if eng == EnginePacket {
		expectedShare := cfg.Topo.HostLink.Float() / 3
		cfg.Scheme.DGDPriceRef = transport.PriceRefFor(cfg.utilityFor()(int64(expectedShare/8)), expectedShare)
		cfg.Scheme.RCPAlpha = cfg.Alpha
		sub := newPacketFabric(cfg.Topo, cfg.Scheme)
		return runDynamic(cfg, sub.topo, sub, nil)
	}
	var fab fabric = fatTree{cfg.FatTree}
	if cfg.FatTree == nil {
		fab = NewFluidTopology(cfg.Topo)
	}
	sub := &flowLevel{baseRTT: cfg.baseRTT()}
	if eng == EngineLeap {
		leng := leap.NewEngine(fab.network(), leap.Config{
			Allocator: LeapAllocatorFor(cfg.Scheme),
			Obs:       cfg.Obs,
		})
		sub.eng, sub.leap = leng, leng
		res := runDynamic(cfg, fab, sub, leng)
		s := leng.Stats()
		res.LeapStats = &s
		return res
	}
	epoch := FluidEpochFor(cfg.Scheme)
	if cfg.FluidEpoch > 0 {
		epoch = cfg.FluidEpoch.Seconds()
	}
	feng := fluid.NewEngine(fab.network(), fluid.Config{
		Epoch:     epoch,
		Allocator: FluidAllocatorFor(cfg.Scheme),
		Obs:       cfg.Obs,
	})
	sub.eng = feng
	res := runDynamic(cfg, fab, sub, nil)
	s := feng.Stats()
	res.FluidStats = &s
	return res
}

// runDynamic is the Figure 5/7 scenario over any substrate and either
// fabric; leng retires cfg.Faults (RunDynamicWith has made sure there
// is one). On the leaf-spine fabric with SkipFluidIdeal every IdealFCT
// is NaN.
func runDynamic(cfg DynamicConfig, fab fabric, sub flowPlayer, leng *leap.Engine) DynamicResult {
	sched := poissonStream(fab, cfg.CDF, cfg.Load, cfg.Flows, sim.NewRNG(cfg.Seed))
	if cfg.Faults != nil {
		scheduleFaults(leng, cfg.Faults(sched.last))
	}
	ideal := func(int64) float64 { return math.NaN() }
	if cfg.FatTree != nil {
		rate := fab.hostLink().Float()
		ideal = func(size int64) float64 { return float64(size) * 8 / rate }
	}
	res := DynamicResult{BDP: cfg.Topo.HostLink.Float() / 8 * cfg.baseRTT()}
	cfg.Obs.Profiler.Arm() // the dry pass is not the event loop's
	res.Records, res.RunWall = playArrivals(sub, fab, sched, cfg.utilityFor(), ideal, sched.last.Add(cfg.Drain))
	if cfg.FatTree == nil && !cfg.SkipFluidIdeal {
		for i, fct := range fluidIdealFCTs(cfg, fab, sched) {
			res.Records[i].IdealFCT = fct
		}
	}
	res.Records, res.Unfinished = finishedRecords(res.Records)
	return res
}

// playArrivals plays sched on sub as it happens: each arrival is drawn,
// routed on its ECMP pick (the substrates copy the one path buffer) and
// admitted, and sub advances as far as the arrivals it holds allow
// before the next is fed; after the last, sub runs to until. It returns
// one record per arrival, in arrival order — FCT NaN where the flow did
// not finish — and the play's wall time.
func playArrivals(sub flowPlayer, fab fabric, sched schedule, utilityFor func(int64) core.Utility,
	ideal func(size int64) float64, until sim.Time) ([]FlowRecord, time.Duration) {
	start := time.Now()
	records := make([]FlowRecord, sched.n)
	var pathBuf []int
	i := 0
	for a, pick := range sched.all {
		records[i] = FlowRecord{Size: a.Size, Start: a.At, FCT: math.NaN(), IdealFCT: ideal(a.Size)}
		pathBuf = fab.appendRoute(pathBuf[:0], a.Src, a.Dst, pick)
		sub.admit(pathBuf, utilityFor(a.Size), a.Size, a.At)
		if i++; i < sched.n {
			sub.advance(a.At, records)
		}
	}
	sub.run(until)
	sub.harvest(records)
	return records, time.Since(start)
}

// finishedRecords drops, in place, the records of flows that did not
// finish, and counts them.
func finishedRecords(records []FlowRecord) (finished []FlowRecord, unfinished int) {
	finished = records[:0]
	for _, r := range records {
		if !math.IsNaN(r.FCT) {
			finished = append(finished, r)
		}
	}
	return finished, len(records) - len(finished)
}

// FluidIdealFCTs computes, for each arrival, the FCT it would have if
// an Oracle "assigns all flows their optimal NUM rates
// instantaneously" (§6.1), plus the base RTT, which even the Oracle
// cannot beat: the leap engine with the exact Oracle allocator, which
// re-solves only the components an event touches (the optimum splits
// across them) and gives a lone flow its path's smallest capacity.
// internal/refsim's whole-set re-solves referee it.
func FluidIdealFCTs(cfg DynamicConfig, topo *Topology, arrivals []workload.Arrival, spines []int) []float64 {
	return fluidIdealFCTs(cfg, topo, sliceSchedule(arrivals, spines))
}

func fluidIdealFCTs(cfg DynamicConfig, fab fabric, sched schedule) []float64 {
	d0 := cfg.baseRTT()
	leng := leap.NewEngine(fab.network(), leap.Config{Allocator: &fluid.Oracle{MaxIter: 1500}})
	ideal := &flowLevel{eng: leng, leap: leng, baseRTT: d0}
	recs, _ := playArrivals(ideal, fab, sched, cfg.utilityFor(), func(int64) float64 { return 0 }, sim.Forever)
	out := make([]float64, len(recs))
	for i, r := range recs {
		// A flow the Oracle never finishes (NaN) or finishes in no time
		// falls back to the RTT alone, for downstream division.
		if out[i] = r.FCT; math.IsNaN(out[i]) || out[i] <= 0 {
			out[i] = d0
		}
	}
	return out
}
