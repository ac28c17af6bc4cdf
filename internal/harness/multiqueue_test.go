package harness

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
)

// TestMultiQueueApproximationSaneAllocations checks the §8
// small-set-of-queues variant end to end: it cannot match exact STFQ's
// precision (band quantization bounds the achievable weight ratios),
// but allocations must remain sane — full utilization and rough
// proportionality.
func TestMultiQueueApproximationSaneAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	eng := sim.NewEngine()
	net := netsim.NewNetwork(eng)
	tc := ScaledTopology()
	cfg := DefaultConfig(NUMFabric, tc)
	cfg.UseMultiQueue = true
	net.QueueFactory = cfg.QueueFactory()
	topo := NewTopology(net, tc)
	cfg.AttachAgents(net)

	var flows []*netsim.Flow
	for i, spec := range [][2]int{{0, 9}, {1, 9}} {
		f := topo.NewFlow(spec[0], spec[1], i, 0)
		cfg.AttachSender(f, core.ProportionalFair())
		f.Meter = stats.NewRateMeter(80 * sim.Microsecond)
		flows = append(flows, f)
		eng.Schedule(0, f.Start)
	}
	eng.Run(sim.Time(8 * sim.Millisecond))

	total := 0.0
	for _, f := range flows {
		total += f.Meter.RateAt(eng.Now())
	}
	if math.Abs(total-1e10)/1e10 > 0.1 {
		t.Errorf("total = %.3g, want ~10G (full utilization)", total)
	}
	ratio := flows[0].Meter.RateAt(eng.Now()) / flows[1].Meter.RateAt(eng.Now())
	if ratio < 1.0/3 || ratio > 3 {
		t.Errorf("equal-weight flows split %.2f:1 under MultiQueue", ratio)
	}
}
