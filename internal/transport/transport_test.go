package transport

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/netsim"
	"numfabric/internal/queue"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
)

// rig is a minimal test network: src hosts --10G--> switch --10G--> dst
// hosts, 2 µs hop delay, one flow per (src, dst) pair.
type rig struct {
	eng *sim.Engine
	net *netsim.Network
	sw  *netsim.Node
}

func newRig(qf func(*netsim.Port) netsim.Queue) *rig {
	eng := sim.NewEngine()
	net := netsim.NewNetwork(eng)
	net.QueueFactory = qf
	sw := net.NewNode("sw")
	return &rig{eng: eng, net: net, sw: sw}
}

func stfqFactory(p *netsim.Port) netsim.Queue { return queue.NewSTFQ(1 << 20) }
func fifoFactory(p *netsim.Port) netsim.Queue { return queue.NewDropTail(1 << 20) }

// addFlow creates a host pair around the switch and a flow between
// them.
func (r *rig) addFlow(name string, size int64) *netsim.Flow {
	src := r.net.NewNode("s" + name)
	dst := r.net.NewNode("d" + name)
	su, _ := r.net.Connect(src, r.sw, 10*sim.Gbps, 2*sim.Microsecond)
	sd, _ := r.net.Connect(r.sw, dst, 10*sim.Gbps, 2*sim.Microsecond)
	f := r.net.NewFlow([]int{su.LinkID, sd.LinkID}, size)
	f.Meter = stats.NewRateMeter(80 * sim.Microsecond)
	return f
}

// addFlowTo creates a new source sending to an existing destination
// host over its switch port dstIn (sharing its bottleneck NIC).
func (r *rig) addFlowTo(name string, dstIn *netsim.Port, size int64) *netsim.Flow {
	src := r.net.NewNode("s" + name)
	su, _ := r.net.Connect(src, r.sw, 10*sim.Gbps, 2*sim.Microsecond)
	f := r.net.NewFlow([]int{su.LinkID, dstIn.LinkID}, size)
	f.Meter = stats.NewRateMeter(80 * sim.Microsecond)
	return f
}

const testRTT = 17 * sim.Microsecond

func TestNUMFabricSingleFlowSaturates(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric(testRTT)
	f := r.addFlow("a", 0)
	for _, port := range r.net.Links {
		NewXWIAgent(r.net, port, params)
	}
	NewNUMFabricSender(r.net, f, core.ProportionalFair(), params)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(3 * sim.Millisecond))
	if got := f.Meter.Rate(); math.Abs(got-1e10)/1e10 > 0.05 {
		t.Errorf("solo flow rate = %.3g, want ~10G", got)
	}
}

func TestNUMFabricWeightFollowsPrice(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric(testRTT)
	f := r.addFlow("a", 0)
	for _, port := range r.net.Links {
		NewXWIAgent(r.net, port, params)
	}
	s := NewNUMFabricSender(r.net, f, core.ProportionalFair(), params)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(3 * sim.Millisecond))
	// For proportional fairness, w = 1/price; at the fixed point the
	// weight equals the achieved rate (§4.2: "the weights computed by
	// Eq. 7 will be the same as the optimal rates").
	if s.PathPrice() <= 0 {
		t.Fatal("no price feedback")
	}
	if math.Abs(s.Weight()-1e10)/1e10 > 0.15 {
		t.Errorf("fixed-point weight = %.3g, want ~1e10", s.Weight())
	}
}

func TestNUMFabricResidualNearZeroAtFixedPoint(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric(testRTT)
	f := r.addFlow("a", 0)
	for _, port := range r.net.Links {
		NewXWIAgent(r.net, port, params)
	}
	s := NewNUMFabricSender(r.net, f, core.ProportionalFair(), params)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(5 * sim.Millisecond))
	// The advertised residual (U'(x) - pathPrice)/len; at convergence
	// ~0 relative to the price.
	rel := math.Abs(s.residual) * 2 / s.PathPrice()
	if rel > 0.2 {
		t.Errorf("normalized residual %.3g vs price %.3g: not at fixed point", s.residual, s.PathPrice())
	}
}

func TestNUMFabricFiniteFlowCompletes(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric(testRTT)
	f := r.addFlow("a", 1<<20)
	for _, port := range r.net.Links {
		NewXWIAgent(r.net, port, params)
	}
	NewNUMFabricSender(r.net, f, core.ProportionalFair(), params)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(50 * sim.Millisecond))
	if !f.Done {
		t.Fatal("1MB flow did not complete")
	}
	// 1 MB at ~10G is ~860us incl headers and RTT.
	if fct := f.FCT(); fct > sim.Duration(3*sim.Millisecond) {
		t.Errorf("FCT = %v, want ~1ms", fct)
	}
}

func TestNUMFabricStopHaltsTransmission(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric(testRTT)
	f := r.addFlow("a", 0)
	NewNUMFabricSender(r.net, f, core.ProportionalFair(), params)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(1 * sim.Millisecond))
	f.Stop()
	sent := f.SentPkts
	r.eng.Run(sim.Time(3 * sim.Millisecond))
	if f.SentPkts > sent+2 {
		t.Errorf("flow kept sending after Stop: %d -> %d", sent, f.SentPkts)
	}
}

func TestXWIAgentPriceRisesUnderLoadFallsWhenIdle(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric(testRTT)
	var agents []*XWIAgent
	mk := func() {
		for _, port := range r.net.Links {
			agents = append(agents, NewXWIAgent(r.net, port, params))
		}
	}
	f := r.addFlow("a", 0)
	mk()
	NewNUMFabricSender(r.net, f, core.ProportionalFair(), params)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(3 * sim.Millisecond))
	maxPrice := 0.0
	for _, a := range agents {
		maxPrice = math.Max(maxPrice, a.Price)
	}
	if maxPrice <= 0 {
		t.Fatal("no link priced under persistent load")
	}
	f.Stop()
	r.eng.Run(sim.Time(8 * sim.Millisecond))
	for _, a := range agents {
		if a.Price > maxPrice*0.01 {
			t.Errorf("price %.3g did not decay after flows stopped", a.Price)
		}
	}
}

func TestDGDConvergesToFairShare(t *testing.T) {
	r := newRig(fifoFactory)
	f1 := r.addFlow("a", 0)
	f2 := r.addFlowTo("b", f1.Path[1], 0)
	params := DefaultDGD(testRTT, PriceRefFor(core.ProportionalFair(), 5e9))
	for _, port := range r.net.Links {
		NewDGDAgent(r.net, port, params)
	}
	NewDGDSender(r.net, f1, core.ProportionalFair(), params)
	NewDGDSender(r.net, f2, core.ProportionalFair(), params)
	r.eng.Schedule(0, f1.Start)
	r.eng.Schedule(0, f2.Start)
	r.eng.Run(sim.Time(10 * sim.Millisecond))
	for i, f := range []*netsim.Flow{f1, f2} {
		if got := f.Meter.Rate(); math.Abs(got-5e9)/5e9 > 0.15 {
			t.Errorf("DGD flow %d rate = %.3g, want ~5G", i, got)
		}
	}
}

func TestDGDPacedBelowLineRate(t *testing.T) {
	r := newRig(fifoFactory)
	f := r.addFlow("a", 0)
	params := DefaultDGD(testRTT, PriceRefFor(core.ProportionalFair(), 5e9))
	for _, port := range r.net.Links {
		NewDGDAgent(r.net, port, params)
	}
	s := NewDGDSender(r.net, f, core.ProportionalFair(), params)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(5 * sim.Millisecond))
	if s.Rate() <= 0 || s.Rate() > 1e10 {
		t.Errorf("DGD rate = %.3g, want in (0, 10G]", s.Rate())
	}
	// 2xBDP cap: unacked bytes never exceed 2*BDP.
	bdp := 1e10 / 8 * testRTT.Seconds()
	if got := float64(f.NextSeq - f.CumAcked); got > 2*bdp*1.05 {
		t.Errorf("unacked = %.0f bytes, cap 2BDP = %.0f", got, 2*bdp)
	}
}

func TestRCPAlphaFairSplit(t *testing.T) {
	// Two flows, alpha = 2 weighted fairness is equal split on a
	// single bottleneck.
	r := newRig(fifoFactory)
	f1 := r.addFlow("a", 0)
	f2 := r.addFlowTo("b", f1.Path[1], 0)
	params := DefaultRCP(testRTT, 2)
	for _, port := range r.net.Links {
		NewRCPAgent(r.net, port, params)
	}
	NewRCPSender(r.net, f1, params)
	NewRCPSender(r.net, f2, params)
	r.eng.Schedule(0, f1.Start)
	r.eng.Schedule(0, f2.Start)
	r.eng.Run(sim.Time(10 * sim.Millisecond))
	for i, f := range []*netsim.Flow{f1, f2} {
		if got := f.Meter.Rate(); math.Abs(got-5e9)/5e9 > 0.15 {
			t.Errorf("RCP* flow %d rate = %.3g, want ~5G", i, got)
		}
	}
}

func TestRCPAgentRateTracksFairShare(t *testing.T) {
	r := newRig(fifoFactory)
	f1 := r.addFlow("a", 0)
	f2 := r.addFlowTo("b", f1.Path[1], 0)
	params := DefaultRCP(testRTT, 1)
	var bottleneck *RCPAgent
	for _, port := range r.net.Links {
		a := NewRCPAgent(r.net, port, params)
		if port == f1.Path[1] {
			bottleneck = a
		}
	}
	NewRCPSender(r.net, f1, params)
	NewRCPSender(r.net, f2, params)
	r.eng.Schedule(0, f1.Start)
	r.eng.Schedule(0, f2.Start)
	r.eng.Run(sim.Time(10 * sim.Millisecond))
	if math.Abs(bottleneck.R-5e9)/5e9 > 0.3 {
		t.Errorf("advertised fair rate = %.3g, want ~5G", bottleneck.R)
	}
}

func TestDCTCPMarksDriveWindowDown(t *testing.T) {
	ecnFactory := func(p *netsim.Port) netsim.Queue { return queue.NewECN(1<<20, 30000) }
	r := newRig(ecnFactory)
	f1 := r.addFlow("a", 0)
	f2 := r.addFlowTo("b", f1.Path[1], 0)
	params := DefaultDCTCP(testRTT)
	s1 := NewDCTCPSender(r.net, f1, params)
	NewDCTCPSender(r.net, f2, params)
	r.eng.Schedule(0, f1.Start)
	r.eng.Schedule(0, f2.Start)
	r.eng.Run(sim.Time(20 * sim.Millisecond))
	total := f1.Meter.Rate() + f2.Meter.Rate()
	if math.Abs(total-1e10)/1e10 > 0.15 {
		t.Errorf("DCTCP total = %.3g, want ~10G", total)
	}
	// The window must have left slow start and be bounded (cwnd not
	// runaway): a 10G/17us BDP is ~21KB; windows should be O(BDP).
	if s1.cwnd > 40*netsim.MTU*10 {
		t.Errorf("cwnd = %.0f, runaway", s1.cwnd)
	}
	// The queue must be controlled well below the 1MB buffer.
	if q := f1.Path[1].Q.Bytes(); q > 200000 {
		t.Errorf("DCTCP standing queue = %d bytes, want ECN-controlled", q)
	}
}

func TestPFabricCompletesUnderDrops(t *testing.T) {
	pfFactory := func(p *netsim.Port) netsim.Queue { return queue.NewPFabric(36000) }
	r := newRig(pfFactory)
	f1 := r.addFlow("a", 5<<20)
	f2 := r.addFlowTo("b", f1.Path[1], 200<<10)
	params := DefaultPFabric(testRTT)
	NewPFabricSender(r.net, f1, params)
	NewPFabricSender(r.net, f2, params)
	r.eng.Schedule(0, f1.Start)
	r.eng.Schedule(0, f2.Start)
	r.eng.Run(sim.Time(100 * sim.Millisecond))
	if !f1.Done || !f2.Done {
		t.Fatalf("flows not done: f1=%v f2=%v", f1.Done, f2.Done)
	}
	// The short flow preempts: it should finish far sooner than the
	// long one.
	if f2.FCT() > f1.FCT()/4 {
		t.Errorf("short FCT %v vs long %v: no SRPT preemption", f2.FCT(), f1.FCT())
	}
}

func TestPFabricRemainingSizePriority(t *testing.T) {
	pfFactory := func(p *netsim.Port) netsim.Queue { return queue.NewPFabric(36000) }
	r := newRig(pfFactory)
	f := r.addFlow("a", 1<<20)
	params := DefaultPFabric(testRTT)
	NewPFabricSender(r.net, f, params)
	// Capture priorities as packets depart the source NIC.
	var prios []float64
	f.Path[0].Agents = append(f.Path[0].Agents, prioRecorder{&prios})
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(20 * sim.Millisecond))
	if len(prios) < 10 {
		t.Fatal("no packets recorded")
	}
	// Priorities (remaining bytes) must be non-increasing over time.
	for i := 1; i < len(prios); i++ {
		if prios[i] > prios[i-1] {
			t.Fatalf("priority increased: %v -> %v", prios[i-1], prios[i])
		}
	}
}

type prioRecorder struct{ out *[]float64 }

func (r prioRecorder) OnEnqueue(p *netsim.Packet) {}
func (r prioRecorder) OnDequeue(p *netsim.Packet) {
	if p.Kind == netsim.Data {
		*r.out = append(*r.out, p.Priority)
	}
}

func TestAggregateShares(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric(testRTT)
	f1 := r.addFlow("a", 0)
	f2 := r.addFlow("b", 0)
	for _, port := range r.net.Links {
		NewXWIAgent(r.net, port, params)
	}
	agg := NewAggregate()
	s1 := NewNUMFabricSender(r.net, f1, core.ProportionalFair(), params)
	s2 := NewNUMFabricSender(r.net, f2, core.ProportionalFair(), params)
	agg.Add(s1)
	agg.Add(s2)
	if len(agg.Senders()) != 2 {
		t.Fatal("senders not registered")
	}
	r.eng.Schedule(0, f1.Start)
	r.eng.Schedule(0, f2.Start)
	r.eng.Run(sim.Time(3 * sim.Millisecond))
	// Two disjoint 10G paths: the aggregate should pool ~20G.
	if got := agg.totalRate(); math.Abs(got-2e10)/2e10 > 0.1 {
		t.Errorf("aggregate rate = %.3g, want ~20G", got)
	}
	// Shares sum to ~1 and are floored.
	sum := agg.rawShare(s1) + agg.rawShare(s2)
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("raw shares sum to %v", sum)
	}
	if agg.share(s1) < shareFloor || agg.share(s2) < shareFloor {
		t.Error("share floor violated")
	}
}

func TestRetransmitterRecoversFromTotalLoss(t *testing.T) {
	// A queue so small the whole initial burst is dropped except one
	// in-service packet: go-back-N must still deliver the flow.
	tiny := func(p *netsim.Port) netsim.Queue { return queue.NewDropTail(1600) }
	r := newRig(tiny)
	params := DefaultNUMFabric(testRTT)
	f := r.addFlow("a", 20<<10)
	NewNUMFabricSender(r.net, f, core.ProportionalFair(), params)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(100 * sim.Millisecond))
	if !f.Done {
		t.Fatalf("flow did not recover from drops (rcvd %d of %d)", f.RcvdBytes, f.Size)
	}
}

func TestSlowedScalesParameters(t *testing.T) {
	p := DefaultNUMFabric(testRTT)
	s := p.Slowed(2)
	if s.EWMATime != 2*p.EWMATime || s.PriceUpdateInterval != 2*p.PriceUpdateInterval {
		t.Errorf("Slowed(2) wrong: %+v", s)
	}
	if s.DT != p.DT || s.BaseRTT != p.BaseRTT {
		t.Error("Slowed must not change dt or base RTT")
	}
}

func TestDefaultParamsMatchTable2(t *testing.T) {
	p := DefaultNUMFabric(16 * sim.Microsecond)
	if p.EWMATime != 20*sim.Microsecond {
		t.Errorf("ewmaTime = %v, want 20us", p.EWMATime)
	}
	if p.DT != 6*sim.Microsecond {
		t.Errorf("dt = %v, want 6us", p.DT)
	}
	if p.PriceUpdateInterval != 30*sim.Microsecond {
		t.Errorf("priceUpdateInterval = %v, want 30us", p.PriceUpdateInterval)
	}
	if p.Eta != 5 || p.Beta != 0.5 {
		t.Errorf("eta=%v beta=%v, want 5, 0.5", p.Eta, p.Beta)
	}
	d := DefaultDGD(16*sim.Microsecond, 1)
	if d.UpdateInterval != 16*sim.Microsecond {
		t.Errorf("DGD interval = %v, want 16us", d.UpdateInterval)
	}
	rc := DefaultRCP(16*sim.Microsecond, 1)
	if rc.UpdateInterval != 16*sim.Microsecond {
		t.Errorf("RCP interval = %v, want 16us", rc.UpdateInterval)
	}
}
