package harness

import (
	"math"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// SemiDynamicConfig parameterizes the §6.1 semi-dynamic convergence
// experiment: random paths, network events that start or stop batches
// of flows, and per-event convergence timing against the Oracle.
type SemiDynamicConfig struct {
	Topo   TopologyConfig
	Scheme SchemeConfig

	// Paths is the population of random sender/receiver pairs
	// (paper: 1000).
	Paths int
	// FlowsPerEvent is the batch started or stopped per event
	// (paper: 100).
	FlowsPerEvent int
	// MinActive/MaxActive bound the active flow count (paper:
	// 300–500).
	MinActive, MaxActive int
	// Events is the number of network events (paper: 100).
	Events int
	// Alpha selects the α-fair objective (paper: proportional
	// fairness, α=1).
	Alpha float64

	// ConvergedFrac and Margin define convergence: ConvergedFrac of
	// flows within Margin of their Oracle rate (paper: 95% within
	// 10%).
	ConvergedFrac float64
	Margin        float64
	// Sustain is how long the margin must hold (paper: 5 ms).
	Sustain sim.Duration
	// SampleEvery is the rate-sampling period.
	SampleEvery sim.Duration
	// FilterTau is the rate filter time constant (paper: 80 µs); the
	// filter's 90% rise time ln(10)·τ is subtracted from measured
	// convergence times, as in §6.1.
	FilterTau sim.Duration
	// EventTimeout abandons an event as non-converged.
	EventTimeout sim.Duration

	Seed uint64
}

// DefaultSemiDynamic returns a scaled-down semi-dynamic scenario for
// the given scheme that completes in seconds of wall time. Scale
// factors: 32 hosts (vs 128), 200 paths (vs 1000), 30 flows/event
// (vs 100), 60–100 active (vs 300–500).
func DefaultSemiDynamic(s Scheme) SemiDynamicConfig {
	topo := ScaledTopology()
	return SemiDynamicConfig{
		Topo:          topo,
		Scheme:        DefaultConfig(s, topo),
		Paths:         200,
		FlowsPerEvent: 30,
		MinActive:     60,
		MaxActive:     100,
		Events:        12,
		Alpha:         1,
		ConvergedFrac: 0.95,
		Margin:        0.10,
		Sustain:       5 * sim.Millisecond,
		SampleEvery:   20 * sim.Microsecond,
		FilterTau:     80 * sim.Microsecond,
		EventTimeout:  40 * sim.Millisecond,
		Seed:          1,
	}
}

// PaperSemiDynamic returns the full-scale §6.1 scenario.
func PaperSemiDynamic(s Scheme) SemiDynamicConfig {
	cfg := DefaultSemiDynamic(s)
	cfg.Topo = PaperTopology()
	cfg.Scheme = DefaultConfig(s, cfg.Topo)
	cfg.Paths = 1000
	cfg.FlowsPerEvent = 100
	cfg.MinActive = 300
	cfg.MaxActive = 500
	cfg.Events = 100
	return cfg
}

// SemiDynamicResult reports per-event convergence times.
type SemiDynamicResult struct {
	// ConvergenceTimes holds seconds per converged event (filter rise
	// time already subtracted).
	ConvergenceTimes []float64
	// Unconverged counts events that hit the timeout.
	Unconverged int
	// Events is the number of events executed.
	Events int
}

// Median returns the median convergence time in seconds (NaN if no
// event converged).
func (r SemiDynamicResult) Median() float64 { return stats.Median(r.ConvergenceTimes) }

// P95 returns the 95th-percentile convergence time in seconds.
func (r SemiDynamicResult) P95() float64 { return stats.Percentile(r.ConvergenceTimes, 0.95) }

// CDF returns the convergence-time CDF (Figure 4a's curve).
func (r SemiDynamicResult) CDF() []stats.CDFPoint { return stats.CDF(r.ConvergenceTimes) }

// RunSemiDynamicWith runs the semi-dynamic convergence experiment on
// the chosen engine: the packet transport sampled through EWMA meters
// every SampleEvery, or the scheme's control dynamics at flow
// granularity — one allocator iteration per epoch, exact rates (see
// SampledEngine for what EngineLeap runs).
func RunSemiDynamicWith(eng Engine, cfg SemiDynamicConfig) SemiDynamicResult {
	if eng, _ = SampledEngine(eng); eng == EnginePacket {
		r, _ := newPacketSemiDynamic(cfg)
		return r.run()
	}
	topo := NewFluidTopology(cfg.Topo)
	sub := &epochFabric{eng: fluid.NewEngine(topo.network(), fluid.Config{
		Epoch:     FluidEpochFor(cfg.Scheme),
		Allocator: FluidAllocatorFor(cfg.Scheme),
	})}
	return newSemiDynamicRun(cfg, topo, sub).run()
}

// newPacketSemiDynamic builds the scenario on the packet engine.
func newPacketSemiDynamic(cfg SemiDynamicConfig) (*semiDynamicRun[sim.Time], *packetFabric) {
	// Calibrate DGD's price scale to the expected fair share.
	hosts := cfg.Topo.Leaves * cfg.Topo.HostsPerLeaf
	expectedShare := cfg.Topo.HostLink.Float() * float64(hosts) /
		float64((cfg.MinActive+cfg.MaxActive)/2) / 4
	cfg.Scheme.SetUtilityHint(core.NewAlphaFair(cfg.Alpha), expectedShare)
	cfg.Scheme.RCP.Alpha = cfg.Alpha
	sub := newPacketFabric(cfg.Topo, cfg.Scheme)
	sub.meterTau, sub.sampleEvery = cfg.FilterTau, cfg.SampleEvery
	return newSemiDynamicRun(cfg, sub.topo, sub), sub
}

type sdFlow struct {
	handle int
	links  []int
	util   core.Utility
}

// semiDynamicRun is the §6.1 scenario over any sampled substrate.
type semiDynamicRun[T clockUnit] struct {
	cfg    SemiDynamicConfig
	sub    sampledFabric[T]
	topo   *Topology
	rng    *sim.RNG
	pairs  [][2]int
	spines []int

	active []sdFlow
	// want[i] is active[i]'s Oracle rate since the last event.
	want   []float64
	result SemiDynamicResult
	// problem and solver serve every event's reference solve: cold
	// prices each time (no InitPrices), so only their buffers carry over.
	problem core.Problem
	solver  oracle.SolveWorkspace

	// Per-event state.
	eventStart T
	holdStart  T
	holding    bool
}

func newSemiDynamicRun[T clockUnit](cfg SemiDynamicConfig, topo *Topology, sub sampledFabric[T]) *semiDynamicRun[T] {
	rng := sim.NewRNG(cfg.Seed)
	pairs := workload.RandomPairs(len(topo.Hosts), cfg.Paths, rng)
	spines := make([]int, cfg.Paths)
	for i := range spines {
		spines[i] = rng.Intn(cfg.Topo.Spines)
	}
	return &semiDynamicRun[T]{cfg: cfg, sub: sub, topo: topo, rng: rng, pairs: pairs, spines: spines}
}

// run starts the initial population, then lets the substrate's sampler
// drive the events.
func (r *semiDynamicRun[T]) run() SemiDynamicResult {
	var t0 T
	r.applyEvent(true, (r.cfg.MinActive+r.cfg.MaxActive)/2)
	r.beginEvent(t0)
	if r.cfg.Events > 0 {
		r.sub.sample(r.tick)
	}
	return r.result
}

// applyEvent starts (or stops) n flows on random paths.
func (r *semiDynamicRun[T]) applyEvent(start bool, n int) {
	if start {
		for i := 0; i < n; i++ {
			pi := r.rng.Intn(len(r.pairs))
			pr := r.pairs[pi]
			links := r.topo.Route(pr[0], pr[1], r.spines[pi])
			u := core.NewAlphaFair(r.cfg.Alpha)
			r.active = append(r.active, sdFlow{r.sub.start([][]int{links}, u, false), links, u})
		}
		return
	}
	for i := 0; i < n && len(r.active) > 0; i++ {
		idx := r.rng.Intn(len(r.active))
		r.sub.stop(r.active[idx].handle)
		r.active[idx] = r.active[len(r.active)-1]
		r.active = r.active[:len(r.active)-1]
	}
}

// beginEvent computes the Oracle allocation for the new flow set and
// resets convergence tracking.
func (r *semiDynamicRun[T]) beginEvent(now T) {
	r.eventStart = now
	r.holding = false

	r.problem.Reset(r.topo.Net.Capacities())
	for _, sf := range r.active {
		r.problem.AddFlow(sf.links, sf.util)
	}
	res := r.solver.Solve(&r.problem, oracle.SolveOptions{MaxIter: 3000, Tol: 1e-6})
	r.want = append(r.want[:0], res.Rates...)
}

// tick is one sample: the §6.1 convergence test, and the next event
// once this one has converged or timed out. It reports whether events
// remain.
func (r *semiDynamicRun[T]) tick(now T) bool {
	within := 0
	for i, sf := range r.active {
		want := r.want[i]
		if want <= 0 || math.Abs(r.sub.rate(sf.handle)-want)/want <= r.cfg.Margin {
			within++
		}
	}
	frac := 1.0
	if len(r.active) > 0 {
		frac = float64(within) / float64(len(r.active))
	}

	if frac >= r.cfg.ConvergedFrac {
		if !r.holding {
			r.holding = true
			r.holdStart = now
		}
		if now-r.holdStart >= r.sub.span(r.cfg.Sustain) {
			// Converged: record (minus the measurement rise time) and
			// fire the next event.
			ct := r.sub.seconds(r.holdStart-r.eventStart) - r.sub.riseTime()
			r.result.ConvergenceTimes = append(r.result.ConvergenceTimes, max(ct, 0))
			r.nextEvent(now)
		}
	} else {
		r.holding = false
		if now-r.eventStart >= r.sub.span(r.cfg.EventTimeout) {
			r.result.Unconverged++
			r.nextEvent(now)
		}
	}
	return r.result.Events < r.cfg.Events
}

func (r *semiDynamicRun[T]) nextEvent(now T) {
	r.result.Events++
	if r.result.Events >= r.cfg.Events {
		return
	}
	n := r.cfg.FlowsPerEvent
	var start bool
	switch {
	case len(r.active)-n < r.cfg.MinActive:
		start = true
	case len(r.active)+n > r.cfg.MaxActive:
		start = false
	default:
		start = r.rng.Intn(2) == 0
	}
	r.applyEvent(start, n)
	r.beginEvent(now)
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
