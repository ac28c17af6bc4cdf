package harness

import (
	"math"

	"numfabric/internal/core"
	"numfabric/internal/netsim"
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

// RunSemiDynamic executes the semi-dynamic convergence experiment and
// returns per-event convergence times.
func RunSemiDynamic(cfg SemiDynamicConfig) SemiDynamicResult {
	r := newSemiDynamicRun(cfg)
	return r.run()
}

type sdFlow struct {
	flow   *netsim.Flow
	sender netsim.Sender
	util   core.Utility
	links  []int
}

type semiDynamicRun struct {
	cfg    SemiDynamicConfig
	eng    *sim.Engine
	net    *netsim.Network
	topo   *Topology
	rng    *sim.RNG
	pairs  [][2]int
	spines []int

	active []*sdFlow
	result SemiDynamicResult
	// solver serves every event's reference solve: cold prices each
	// time (no InitPrices), so only its buffers carry over.
	solver oracle.SolveWorkspace

	// Per-event state.
	eventStart  sim.Time
	holdStart   sim.Time
	holding     bool
	oracleRates map[*netsim.Flow]float64
}

func newSemiDynamicRun(cfg SemiDynamicConfig) *semiDynamicRun {
	eng := sim.NewEngine()
	net := netsim.NewNetwork(eng)
	net.QueueFactory = cfg.Scheme.QueueFactory()
	topo := NewTopology(net, cfg.Topo)
	rng := sim.NewRNG(cfg.Seed)
	pairs := workload.RandomPairs(len(topo.Hosts), cfg.Paths, rng)
	spines := make([]int, cfg.Paths)
	for i := range spines {
		spines[i] = rng.Intn(cfg.Topo.Spines)
	}

	// Calibrate DGD's price scale to the expected fair share.
	expectedShare := cfg.Topo.HostLink.Float() * float64(len(topo.Hosts)) /
		float64((cfg.MinActive+cfg.MaxActive)/2) / 4
	cfg.Scheme.SetUtilityHint(core.NewAlphaFair(cfg.Alpha), expectedShare)
	cfg.Scheme.RCP.Alpha = cfg.Alpha
	cfg.Scheme.AttachAgents(net)

	return &semiDynamicRun{
		cfg: cfg, eng: eng, net: net, topo: topo, rng: rng,
		pairs: pairs, spines: spines,
	}
}

func (r *semiDynamicRun) run() SemiDynamicResult {
	// Initial population, then events driven by the sampler.
	r.eng.Schedule(0, func() {
		r.applyEvent(true, (r.cfg.MinActive+r.cfg.MaxActive)/2)
		r.beginEvent()
	})
	r.eng.Every(sim.Time(r.cfg.SampleEvery), r.cfg.SampleEvery, r.sample)
	r.eng.Run(sim.Forever)
	return r.result
}

// applyEvent starts (or stops) n flows on random paths.
func (r *semiDynamicRun) applyEvent(start bool, n int) {
	if start {
		for i := 0; i < n; i++ {
			pi := r.rng.Intn(len(r.pairs))
			pr := r.pairs[pi]
			f := r.topo.NewFlow(pr[0], pr[1], r.spines[pi], 0)
			u := core.NewAlphaFair(r.cfg.Alpha)
			sender := r.cfg.Scheme.AttachSender(r.net, f, u)
			f.Meter = stats.NewRateMeter(r.cfg.FilterTau)
			sf := &sdFlow{flow: f, sender: sender, util: u, links: PathLinkIDs(f.Path)}
			r.active = append(r.active, sf)
			f.Start()
		}
		return
	}
	for i := 0; i < n && len(r.active) > 0; i++ {
		idx := r.rng.Intn(len(r.active))
		r.active[idx].flow.Stop()
		r.active[idx] = r.active[len(r.active)-1]
		r.active = r.active[:len(r.active)-1]
	}
}

// beginEvent computes the Oracle allocation for the new flow set and
// resets convergence tracking.
func (r *semiDynamicRun) beginEvent() {
	r.eventStart = r.eng.Now()
	r.holding = false

	p := core.NewProblem(r.net.Capacities())
	for _, sf := range r.active {
		p.AddFlow(sf.links, sf.util)
	}
	res := r.solver.Solve(p, oracle.SolveOptions{MaxIter: 3000, Tol: 1e-6})
	r.oracleRates = make(map[*netsim.Flow]float64, len(r.active))
	for i, sf := range r.active {
		r.oracleRates[sf.flow] = res.Rates[i]
	}
}

// sample checks convergence and schedules the next event when done.
func (r *semiDynamicRun) sample() {
	if r.result.Events >= r.cfg.Events {
		r.eng.Stop()
		return
	}
	now := r.eng.Now()
	within := 0
	for _, sf := range r.active {
		want := r.oracleRates[sf.flow]
		if want <= 0 {
			within++
			continue
		}
		got := sf.flow.Meter.RateAt(now)
		if math.Abs(got-want)/want <= r.cfg.Margin {
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
		if now.Sub(r.holdStart) >= r.cfg.Sustain {
			// Converged: record (minus the filter rise time) and fire
			// the next event.
			rise := math.Log(10) * r.cfg.FilterTau.Seconds()
			ct := r.holdStart.Sub(r.eventStart).Seconds() - rise
			if ct < 0 {
				ct = 0
			}
			r.result.ConvergenceTimes = append(r.result.ConvergenceTimes, ct)
			r.nextEvent()
		}
		return
	}
	r.holding = false
	if now.Sub(r.eventStart) >= r.cfg.EventTimeout {
		r.result.Unconverged++
		r.nextEvent()
	}
}

func (r *semiDynamicRun) nextEvent() {
	r.result.Events++
	if r.result.Events >= r.cfg.Events {
		r.eng.Stop()
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
	r.beginEvent()
}
