package harness

import (
	"fmt"
	"strings"

	"numfabric/internal/fluid"
	"numfabric/internal/netsim"
	"numfabric/internal/queue"
	"numfabric/internal/sim"
	"numfabric/internal/transport"
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
		return transport.DGDUpdateInterval.Seconds()
	case RCP:
		return transport.RCPUpdateInterval.Seconds()
	default:
		return 100e-6
	}
}

// SampledEngine returns the engine that actually runs when e is asked
// to play an experiment that samples unbounded flows' rates over time
// (RunSemiDynamicWith, RunPoolingWith), and, when that is not e, a
// one-line reason. Leap jumps every event straight to its allocator's
// converged rates and advances only on arrivals and completions, so it
// has neither a convergence transient nor, with no finite flow, a next
// event; those experiments run its allocators on the epoch engine.
func SampledEngine(e Engine) (Engine, string) {
	if e == EngineLeap {
		return EngineFluid, "leap has no transient to sample between events; its allocators run on the epoch engine"
	}
	return e, ""
}
