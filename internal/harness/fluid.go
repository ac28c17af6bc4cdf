package harness

import (
	"fmt"
	"math"
	"strings"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/leap"
	"numfabric/internal/netsim"
	"numfabric/internal/oracle"
	"numfabric/internal/queue"
	"numfabric/internal/sim"
	"numfabric/internal/workload"
)

// Engine selects the execution engine for an experiment: the
// packet-level discrete-event simulator (faithful, slow), the fluid
// flow-level engine (epoch-based rate dynamics, orders of magnitude
// faster — the way to reach fat-tree/100k-flow regimes), or the leap
// event-driven engine (time jumps straight to the next arrival or
// completion — the way to reach million-flow dynamic workloads).
type Engine int

// The available engines.
const (
	EnginePacket Engine = iota
	EngineFluid
	EngineLeap
)

// EngineNames lists every valid engine name, in enum order.
var EngineNames = []string{"packet", "fluid", "leap"}

func (e Engine) String() string {
	if e >= 0 && int(e) < len(EngineNames) {
		return EngineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine parses an engine name ("packet", "fluid", or "leap").
func ParseEngine(s string) (Engine, error) {
	for i, name := range EngineNames {
		if s == name {
			return Engine(i), nil
		}
	}
	return 0, fmt.Errorf("harness: unknown engine %q (valid engines: %s)",
		s, strings.Join(EngineNames, ", "))
}

// FluidNetwork adapts a built Topology to the fluid engine's network
// view: the same directed-link capacity vector, indexed by the same
// LinkIDs that Topology.Route paths and oracle problems use, so routes
// and oracle solutions carry over between engines unchanged.
func FluidNetwork(t *Topology) *fluid.Network {
	return fluid.NewNetwork(t.Net.Capacities())
}

// NewFluidTopology builds a Topology used purely as the fluid engine's
// link-ID and route map: no packets ever flow, so the queue factory is
// a stub that satisfies netsim's construction invariant.
func NewFluidTopology(cfg TopologyConfig) *Topology {
	net := netsim.NewNetwork(sim.NewEngine())
	net.QueueFactory = func(*netsim.Port) netsim.Queue { return queue.NewDropTail(1 << 20) }
	return NewTopology(net, cfg)
}

// FluidAllocatorFor maps a scheme onto its fluid-model allocator:
// NUMFabric to the xWI price dynamics, DGD to dual gradient dynamics,
// RCP* to the instantaneous NUM optimum (RCP* is engineered to
// realize the α-fair allocation directly; its fluid idealization
// converges in zero time), and the queue-level schemes (DCTCP,
// pFabric) to instantaneous max-min water-filling, the closest
// flow-level abstraction of their fair-sharing behavior.
func FluidAllocatorFor(c SchemeConfig) fluid.Allocator {
	switch c.Scheme {
	case NUMFabric:
		return &fluid.XWI{Eta: c.NUMFabric.Eta, Beta: c.NUMFabric.Beta, IterPerEpoch: 1}
	case DGD:
		return fluid.NewDGD()
	case RCP:
		return fluid.NewOracle()
	default:
		return fluid.NewWaterFill()
	}
}

// FluidEpochFor returns the fluid epoch (seconds) matching the
// scheme's control-loop cadence, so one epoch corresponds to one price
// (or rate) update of the packet transport.
func FluidEpochFor(c SchemeConfig) float64 {
	switch c.Scheme {
	case NUMFabric:
		return c.NUMFabric.PriceUpdateInterval.Seconds()
	case DGD:
		return c.DGD.UpdateInterval.Seconds()
	case RCP:
		return c.RCP.UpdateInterval.Seconds()
	default:
		return 100e-6
	}
}

// RunDynamicWith dispatches the dynamic-workload experiment to the
// chosen engine.
func RunDynamicWith(eng Engine, cfg DynamicConfig) DynamicResult {
	switch eng {
	case EngineFluid:
		return RunDynamicFluid(cfg)
	case EngineLeap:
		return RunDynamicLeap(cfg)
	default:
		return RunDynamic(cfg)
	}
}

// RunSemiDynamicWith dispatches the semi-dynamic convergence
// experiment to the chosen engine. EngineLeap falls back to the fluid
// epoch engine: the experiment measures the convergence transient over
// simulated time, and leap — which by construction jumps each event to
// its allocator's converged rates — has no transient to observe.
func RunSemiDynamicWith(eng Engine, cfg SemiDynamicConfig) SemiDynamicResult {
	if eng == EngineFluid || eng == EngineLeap {
		return RunSemiDynamicFluid(cfg)
	}
	return RunSemiDynamic(cfg)
}

// flowEngine is the surface the dynamic driver needs from a flow-level
// engine; the fluid epoch engine and the leap event-driven engine both
// provide it.
type flowEngine interface {
	AddFlow(links []int, u core.Utility, sizeBytes int64, at float64) *fluid.Flow
	Run(until float64)
}

// runDynamicFlowEngine plays cfg's seeded Poisson workload — the
// byte-identical schedule every engine draws via dynamicWorkload —
// through a flow-level engine and pairs the finished flows with their
// Oracle ideals. Completion times get the topology's base RTT added so
// they remain comparable with packet FCTs and the fluid-Oracle ideals.
func runDynamicFlowEngine(cfg DynamicConfig, topo *Topology, eng flowEngine) DynamicResult {
	arrivals, spines, utilityFor := dynamicWorkload(cfg, topo)
	flows := make([]*fluid.Flow, len(arrivals))
	var lastArrival sim.Time
	// Both flow engines copy the path on AddFlow (leap's table arena,
	// the epoch engine's NewFlow), so one buffer serves every admission.
	var pathBuf []int
	for i, a := range arrivals {
		lastArrival = a.At
		fwd, _ := topo.Route(a.Src, a.Dst, spines[i])
		pathBuf = AppendPathLinkIDs(pathBuf[:0], fwd)
		flows[i] = eng.AddFlow(pathBuf, utilityFor(a.Size), a.Size, a.At.Seconds())
	}
	eng.Run(lastArrival.Add(cfg.Drain).Seconds())

	ideal := dynamicIdeals(cfg, topo, arrivals, spines)
	d0 := cfg.Topo.BaseRTT().Seconds()
	res := DynamicResult{BDP: cfg.Topo.HostLink.Float() / 8 * cfg.Topo.BaseRTT().Seconds()}
	if le, ok := eng.(interface{ Stats() leap.Stats }); ok {
		s := le.Stats()
		res.LeapStats = &s
	}
	if fe, ok := eng.(interface{ Stats() fluid.Stats }); ok {
		s := fe.Stats()
		res.FluidStats = &s
	}
	for i, f := range flows {
		if !f.Done() {
			res.Unfinished++
			continue
		}
		res.Records = append(res.Records, FlowRecord{
			Size:     f.SizeBytes,
			Start:    arrivals[i].At,
			FCT:      f.FCT() + d0,
			IdealFCT: ideal[i],
		})
	}
	return res
}

// RunDynamicFluid is the fluid-engine counterpart of RunDynamic: the
// identical Poisson workload (same seed, same arrival schedule and
// spine choices) played through the flow-level epoch engine instead of
// the packet simulator.
func RunDynamicFluid(cfg DynamicConfig) DynamicResult {
	topo := NewFluidTopology(cfg.Topo)
	epoch := FluidEpochFor(cfg.Scheme)
	if cfg.FluidEpoch > 0 {
		epoch = cfg.FluidEpoch.Seconds()
	}
	return runDynamicFlowEngine(cfg, topo, fluid.NewEngine(FluidNetwork(topo), fluid.Config{
		Epoch:     epoch,
		Allocator: FluidAllocatorFor(cfg.Scheme),
		Obs:       cfg.Obs,
	}))
}

// RunSemiDynamicFluid is the fluid-engine counterpart of
// RunSemiDynamic: the §6.1 semi-dynamic scenario (random paths, batch
// start/stop events, per-event convergence timing against the Oracle)
// with the scheme's control dynamics run at flow granularity — one
// allocator iteration per epoch. Convergence is measured on the
// allocator's exact rates (no EWMA meter, so no filter rise-time
// subtraction).
func RunSemiDynamicFluid(cfg SemiDynamicConfig) SemiDynamicResult {
	topo := NewFluidTopology(cfg.Topo)
	rng := sim.NewRNG(cfg.Seed)
	pairs := workload.RandomPairs(len(topo.Hosts), cfg.Paths, rng)
	spines := make([]int, cfg.Paths)
	for i := range spines {
		spines[i] = rng.Intn(cfg.Topo.Spines)
	}

	epoch := FluidEpochFor(cfg.Scheme)
	feng := fluid.NewEngine(FluidNetwork(topo), fluid.Config{
		Epoch:     epoch,
		Allocator: FluidAllocatorFor(cfg.Scheme),
	})

	type sdf struct {
		flow  *fluid.Flow
		links []int
		util  core.Utility
	}
	var active []*sdf
	start := func(n int) {
		for i := 0; i < n; i++ {
			pi := rng.Intn(len(pairs))
			pr := pairs[pi]
			fwd, _ := topo.Route(pr[0], pr[1], spines[pi])
			links := PathLinkIDs(fwd)
			u := core.NewAlphaFair(cfg.Alpha)
			f := feng.AddFlow(links, u, 0, feng.Now())
			active = append(active, &sdf{flow: f, links: links, util: u})
		}
	}
	stop := func(n int) {
		for i := 0; i < n && len(active) > 0; i++ {
			idx := rng.Intn(len(active))
			feng.Stop(active[idx].flow)
			active[idx] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}

	var result SemiDynamicResult
	var prices []float64
	var ws oracle.SolveWorkspace
	oracleRates := make(map[*fluid.Flow]float64)
	beginEvent := func() {
		p := core.NewProblem(feng.Net().Capacity)
		for _, sf := range active {
			p.AddFlow(sf.links, sf.util)
		}
		res := ws.Solve(p, oracle.SolveOptions{MaxIter: 3000, Tol: 1e-6, InitPrices: prices})
		prices = res.Prices
		clear(oracleRates)
		for i, sf := range active {
			oracleRates[sf.flow] = res.Rates[i]
		}
	}

	start((cfg.MinActive + cfg.MaxActive) / 2)
	beginEvent()
	for result.Events < cfg.Events {
		eventStart := feng.Now()
		holdStart, holding := 0.0, false
		converged := false
		for {
			if !feng.Step() {
				break
			}
			now := feng.Now()
			within := 0
			for _, sf := range active {
				want := oracleRates[sf.flow]
				if want <= 0 || math.Abs(sf.flow.Rate-want)/want <= cfg.Margin {
					within++
				}
			}
			frac := 1.0
			if len(active) > 0 {
				frac = float64(within) / float64(len(active))
			}
			if frac >= cfg.ConvergedFrac {
				if !holding {
					holding, holdStart = true, now
				}
				if now-holdStart >= cfg.Sustain.Seconds() {
					result.ConvergenceTimes = append(result.ConvergenceTimes, holdStart-eventStart)
					converged = true
					break
				}
			} else {
				holding = false
				if now-eventStart >= cfg.EventTimeout.Seconds() {
					break
				}
			}
		}
		if !converged {
			result.Unconverged++
		}
		result.Events++
		if result.Events >= cfg.Events {
			break
		}
		n := cfg.FlowsPerEvent
		switch {
		case len(active)-n < cfg.MinActive:
			start(n)
		case len(active)+n > cfg.MaxActive:
			stop(n)
		default:
			if rng.Intn(2) == 0 {
				start(n)
			} else {
				stop(n)
			}
		}
		beginEvent()
	}
	return result
}
