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
	params := DefaultNUMFabric()
	f := r.addFlow("a", 0)
	for _, port := range r.net.Links {
		NewXWIAgent(port, params)
	}
	NewNUMFabricSender(f, core.ProportionalFair(), params, testRTT)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(3 * sim.Millisecond))
	if got := f.Meter.Rate(); math.Abs(got-1e10)/1e10 > 0.05 {
		t.Errorf("solo flow rate = %.3g, want ~10G", got)
	}
}

func TestNUMFabricWeightFollowsPrice(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric()
	f := r.addFlow("a", 0)
	for _, port := range r.net.Links {
		NewXWIAgent(port, params)
	}
	s := NewNUMFabricSender(f, core.ProportionalFair(), params, testRTT)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(3 * sim.Millisecond))
	// For proportional fairness, w = 1/price; at the fixed point the
	// weight equals the achieved rate (§4.2: "the weights computed by
	// Eq. 7 will be the same as the optimal rates").
	if s.pathPrice <= 0 {
		t.Fatal("no price feedback")
	}
	if math.Abs(s.weight-1e10)/1e10 > 0.15 {
		t.Errorf("fixed-point weight = %.3g, want ~1e10", s.weight)
	}
}

func TestNUMFabricResidualNearZeroAtFixedPoint(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric()
	f := r.addFlow("a", 0)
	for _, port := range r.net.Links {
		NewXWIAgent(port, params)
	}
	s := NewNUMFabricSender(f, core.ProportionalFair(), params, testRTT)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(5 * sim.Millisecond))
	// The advertised residual (U'(x) - pathPrice)/len; at convergence
	// ~0 relative to the price.
	rel := math.Abs(s.residual) * 2 / s.pathPrice
	if rel > 0.2 {
		t.Errorf("normalized residual %.3g vs price %.3g: not at fixed point", s.residual, s.pathPrice)
	}
}

func TestNUMFabricFiniteFlowCompletes(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric()
	f := r.addFlow("a", 1<<20)
	for _, port := range r.net.Links {
		NewXWIAgent(port, params)
	}
	NewNUMFabricSender(f, core.ProportionalFair(), params, testRTT)
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
	params := DefaultNUMFabric()
	f := r.addFlow("a", 0)
	NewNUMFabricSender(f, core.ProportionalFair(), params, testRTT)
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
	params := DefaultNUMFabric()
	var agents []*XWIAgent
	mk := func() {
		for _, port := range r.net.Links {
			agents = append(agents, NewXWIAgent(port, params))
		}
	}
	f := r.addFlow("a", 0)
	mk()
	NewNUMFabricSender(f, core.ProportionalFair(), params, testRTT)
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
	priceRef := PriceRefFor(core.ProportionalFair(), 5e9)
	for _, port := range r.net.Links {
		NewDGDAgent(port, priceRef, testRTT)
	}
	NewDGDSender(f1, core.ProportionalFair(), testRTT)
	NewDGDSender(f2, core.ProportionalFair(), testRTT)
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
	priceRef := PriceRefFor(core.ProportionalFair(), 5e9)
	for _, port := range r.net.Links {
		NewDGDAgent(port, priceRef, testRTT)
	}
	s := NewDGDSender(f, core.ProportionalFair(), testRTT)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(5 * sim.Millisecond))
	if s.rate <= 0 || s.rate > 1e10 {
		t.Errorf("DGD rate = %.3g, want in (0, 10G]", s.rate)
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
	const alpha = 2
	for _, port := range r.net.Links {
		NewRCPAgent(port, alpha, testRTT)
	}
	NewDGDSender(f1, core.NewAlphaFair(alpha), testRTT)
	NewDGDSender(f2, core.NewAlphaFair(alpha), testRTT)
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
	const alpha = 1
	var bottleneck *RCPAgent
	for _, port := range r.net.Links {
		a := NewRCPAgent(port, alpha, testRTT)
		if port == f1.Path[1] {
			bottleneck = a
		}
	}
	NewDGDSender(f1, core.NewAlphaFair(alpha), testRTT)
	NewDGDSender(f2, core.NewAlphaFair(alpha), testRTT)
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
	s1 := NewDCTCPSender(f1, testRTT)
	NewDCTCPSender(f2, testRTT)
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

// TestDCTCPRecoversByTimeout plays finite flows behind ECN queues four
// packets deep, where only the go-back-N timeout can deliver what the
// queues drop. In the dctcp row one DCTCP flow's 10-packet initial
// window overflows the source NIC, and DCTCP has no fast retransmit, so
// each timeout (10 base RTTs) restarts it from a one-segment loss
// window. In the rcp row two RCP* flows start at line rate into one
// shared port before the first rate feedback, and the DGD host's
// timeout (20 base RTTs) rewinds them. Each row pins the last FCT and
// the drop count: a change to a timeout or to what it restarts from
// moves them.
func TestDCTCPRecoversByTimeout(t *testing.T) {
	shallow := func(p *netsim.Port) netsim.Queue { return queue.NewECN(4*netsim.MTU, 2*netsim.MTU) }
	for _, tc := range []struct {
		name  string
		flows func(r *rig) []*netsim.Flow
		// wantFCT is the latest completion of the row's flows.
		wantFCT   sim.Duration
		wantDrops int
	}{
		{"dctcp", func(r *rig) []*netsim.Flow {
			f := r.addFlow("a", 64<<10)
			NewDCTCPSender(f, testRTT)
			return []*netsim.Flow{f}
		}, 742380800, 14},
		{"rcp", func(r *rig) []*netsim.Flow {
			f1 := r.addFlow("a", 64<<10)
			f2 := r.addFlowTo("b", f1.Path[1], 64<<10)
			for _, port := range r.net.Links {
				NewRCPAgent(port, 1, testRTT)
			}
			NewDGDSender(f1, core.NewAlphaFair(1), testRTT)
			NewDGDSender(f2, core.NewAlphaFair(1), testRTT)
			return []*netsim.Flow{f1, f2}
		}, 1375868800, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(shallow)
			drops := 0
			r.net.DropHook = func(p *netsim.Packet) { drops++ }
			flows := tc.flows(r)
			for _, f := range flows {
				r.eng.Schedule(0, f.Start)
			}
			r.eng.Run(sim.Time(100 * sim.Millisecond))
			if drops == 0 {
				t.Fatal("no drop: the queues held every packet, nothing exercised the timeout")
			}
			var fct sim.Duration
			for _, f := range flows {
				if !f.Done {
					t.Fatalf("flow %d did not recover from %d drops (rcvd %d of %d)", f.ID, drops, f.RcvdBytes, f.Size)
				}
				fct = max(fct, f.FCT())
			}
			if fct != tc.wantFCT || drops != tc.wantDrops {
				t.Errorf("FCT = %d ps after %d drops, want %d after %d", fct, drops, tc.wantFCT, tc.wantDrops)
			}
		})
	}
}

func TestPFabricCompletesUnderDrops(t *testing.T) {
	pfFactory := func(p *netsim.Port) netsim.Queue { return queue.NewPFabric(36000) }
	r := newRig(pfFactory)
	f1 := r.addFlow("a", 5<<20)
	f2 := r.addFlowTo("b", f1.Path[1], 200<<10)
	NewPFabricSender(f1, testRTT)
	NewPFabricSender(f2, testRTT)
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
	NewPFabricSender(f, testRTT)
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
	params := DefaultNUMFabric()
	f1 := r.addFlow("a", 0)
	f2 := r.addFlow("b", 0)
	for _, port := range r.net.Links {
		NewXWIAgent(port, params)
	}
	agg := NewAggregate()
	s1 := NewNUMFabricSender(f1, core.ProportionalFair(), params, testRTT)
	s2 := NewNUMFabricSender(f2, core.ProportionalFair(), params, testRTT)
	agg.Add(s1)
	agg.Add(s2)
	if len(agg.senders) != 2 {
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
	params := DefaultNUMFabric()
	f := r.addFlow("a", 20<<10)
	NewNUMFabricSender(f, core.ProportionalFair(), params, testRTT)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(100 * sim.Millisecond))
	if !f.Done {
		t.Fatalf("flow did not recover from drops (rcvd %d of %d)", f.RcvdBytes, f.Size)
	}
}

func TestSlowedScalesParameters(t *testing.T) {
	p := DefaultNUMFabric()
	s := p.Slowed(2)
	if s.EWMATime != 2*p.EWMATime || s.PriceUpdateInterval != 2*p.PriceUpdateInterval {
		t.Errorf("Slowed(2) wrong: %+v", s)
	}
	if s.DT != p.DT {
		t.Error("Slowed must not change dt")
	}
}

func TestDefaultParamsMatchTable2(t *testing.T) {
	p := DefaultNUMFabric()
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
	if DGDUpdateInterval != 16*sim.Microsecond || DGDGainA != 0.05 || DGDGainB != 0.015 {
		t.Errorf("DGD interval %v gains a=%v b=%v, want 16us, 0.05, 0.015",
			DGDUpdateInterval, DGDGainA, DGDGainB)
	}
	if RCPUpdateInterval != 16*sim.Microsecond || RCPGainA != 0.4 || RCPGainB != 0.2 {
		t.Errorf("RCP* interval %v gains a=%v b=%v, want 16us, 0.4, 0.2",
			RCPUpdateInterval, RCPGainA, RCPGainB)
	}
	if initialBurst != 3 || minWindow != 2 {
		t.Errorf("initial burst %d, min window %d packets, want 3, 2", initialBurst, minWindow)
	}
}
