package leap

import "numfabric/internal/fluid"

// traceScratch is the reusable scratch of the flow tracer's component
// reports: the bottleneck queries' output (bneck) and link-indexed load
// (bload), and the solved flows' ids.
type traceScratch struct {
	bneck []int32
	bload []float64
	ids   []int
}

// traceComponent reports one component's freshly installed rates to
// the flow tracer, if one is attached: the site's one branch, inlined.
func (e *Engine) traceComponent(flows []*fluid.Flow, rates []float64) {
	if e.hooks.FlowTrace != nil {
		e.traceRates(flows, rates)
	}
}

// traceRates is traceComponent's report. Each finite flow gets a rate
// segment stamped with the component size and the solve's batch
// ordinal; unbounded flows are filtered by the tracer itself. The cause
// code is the engine's batchCause — CauseFail or CauseRecover when a
// fault event triggered this solve, CauseSolve otherwise. rates is nil
// for an elided single-flow component.
func (e *Engine) traceRates(flows []*fluid.Flow, rates []float64) {
	if rates == nil {
		// Line rate, min-capacity bottleneck (the tracer's default for
		// bneck < 0).
		f := flows[0]
		e.hooks.FlowTrace.Rate(f.ID, e.now, f.Rate, -1, e.batchCause, 1, uint64(e.stats.Batches))
		return
	}
	ids, bn := e.trace.bottlenecks(e.net, flows, rates)
	e.hooks.FlowTrace.Rates(e.now, ids, rates, bn, e.batchCause, uint64(e.stats.Batches))
}

// bottlenecks returns the flows' ids and each one's binding link under
// rates (fluid.Bottlenecks), in reusable scratch.
func (s *traceScratch) bottlenecks(net *fluid.Network, flows []*fluid.Flow, rates []float64) ([]int, []int32) {
	s.ids = s.ids[:0]
	for _, f := range flows {
		s.ids = append(s.ids, f.ID)
	}
	if cap(s.bneck) < len(flows) {
		s.bneck = make([]int32, 2*len(flows)+16)
	}
	if s.bload == nil {
		s.bload = make([]float64, net.Links())
	}
	bn := s.bneck[:len(flows)]
	fluid.Bottlenecks(net, flows, rates, s.bload, bn)
	return s.ids, bn
}
