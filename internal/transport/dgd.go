package transport

import (
	"numfabric/internal/core"
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

// DGDSender is the idealized Dual Gradient Descent host of §6: "The
// sources calculate their sending rates from the network price
// (obtained from ACKs) according to Eq. 3. They then transmit at
// exactly this rate on a packet-by-packet basis", with the paper's
// enhancement that unacknowledged bytes are capped at 2×BDP "to ensure
// flows are large enough to saturate the network yet restrict them
// from building up large queues" (§6, "Note on the implementation of
// DGD and RCP*").
//
// It is RCP*'s host too: Eq. 16's x = (Σ_l R_l^(-α))^(-1/α) is Eq. 3
// for the α-fair utility U'(x) = x^(-α) when link l prices at
// R_l^(-α), which is what RCPAgent stamps.
type DGDSender struct {
	flow *netsim.Flow
	u    core.Utility

	rate     float64 // bits/second
	capBytes int64   // 2×BDP unacked-bytes cap
	timerArm bool
	wakeFn   func() // wake, bound once so that arming allocates nothing
	blocked  bool   // hit the unacked cap; resume on ACK
	minRate  float64
	lineRate float64

	// Pacing state: time and wire size of the last transmission.
	lastSend  sim.Time
	lastBytes int
}

// NewDGDSender attaches a DGD transport with utility u to f; baseRTT
// sizes the 2×BDP cap.
func NewDGDSender(f *netsim.Flow, u core.Utility, baseRTT sim.Duration) *DGDSender {
	nic := f.Path[0].Rate.Float()
	bdp := nic / 8 * baseRTT.Seconds()
	s := &DGDSender{
		flow:     f,
		u:        u,
		capBytes: int64(2 * bdp),
		// Classic RCP-style rate floor: one full packet per RTT, so a
		// throttled flow keeps probing at control-loop timescales and
		// can recover within an RTT of conditions improving.
		minRate:  float64(netsim.MTU*8) / baseRTT.Seconds(),
		lineRate: nic,
	}
	s.wakeFn = s.wake
	// Go-back-N safety net: rate-based senders overshoot before the
	// first price feedback (Eq. 3 demands infinite rate at zero
	// price), and the resulting drops would otherwise pin the flow at
	// its unacked-bytes cap forever.
	f.SetTimeout(20*baseRTT, func() {
		s.blocked = false
		s.sendLoop()
	})
	f.Sender = s
	return s
}

// Start begins paced transmission (at line rate until the first price
// feedback arrives — with zero prices Eq. 3 demands infinite rate,
// clamped to the NIC).
func (s *DGDSender) Start() {
	if s.rate == 0 {
		s.rate = s.lineRate
	}
	s.sendLoop()
}

// OnAck unblocks a sender parked at its cap and re-derives the rate
// from the path price (Eq. 3): x = U'⁻¹(Σ p_l), clamped to
// [minRate, lineRate].
func (s *DGDSender) OnAck(p *netsim.Packet) {
	f := s.flow
	if s.blocked && f.NextSeq-f.CumAcked < s.capBytes {
		s.blocked = false
		s.sendLoop()
	}
	if p.EchoPathLen > 0 {
		s.rate = clampF(s.u.InverseMarginal(p.EchoPathPrice), s.minRate, s.lineRate)
	}
}

// maxPaceRecheck bounds how long a pacing timer may sleep before
// re-deriving the send time from the CURRENT rate. Without it, a
// timer armed while the rate was at its floor would sleep for
// milliseconds even after fresh feedback raised the rate by orders of
// magnitude.
const maxPaceRecheck = 100 * sim.Microsecond

// sendLoop transmits packets at the pacing rate. If the unacked cap
// is reached it parks until an ACK. The inter-packet gap is always
// evaluated against the current rate, so rate increases take effect
// immediately rather than after a stale timer expires.
func (s *DGDSender) sendLoop() {
	if s.timerArm {
		return
	}
	f := s.flow
	if !f.Pending() {
		return
	}
	if f.NextSeq-f.CumAcked >= s.capBytes {
		s.blocked = true
		return
	}
	eng := f.Engine()
	now := eng.Now()
	next := s.lastSend.Add(sim.Seconds(float64(s.lastBytes) * 8 / s.rate))
	if now < next {
		wake := next
		if cap := now.Add(maxPaceRecheck); wake > cap {
			wake = cap
		}
		s.timerArm = true
		eng.Schedule(wake, s.wakeFn)
		return
	}
	s.lastSend = now
	s.lastBytes = f.SendNext(nil) + netsim.HeaderSize

	gap := sim.Seconds(float64(s.lastBytes) * 8 / s.rate)
	if gap > sim.Duration(maxPaceRecheck) {
		gap = maxPaceRecheck
	}
	s.timerArm = true
	eng.After(gap, s.wakeFn)
}

// wake runs when the pacing timer fires.
func (s *DGDSender) wake() {
	s.timerArm = false
	s.sendLoop()
}

// linkPrice is the switch side the DGD host reads, shared by the DGD
// and RCP* agents: it counts the bytes its port serves (all packets —
// ACK load is real) and adds price to each data packet's path price.
// Each agent's periodic update sets price.
type linkPrice struct {
	port *netsim.Port

	price         float64
	bytesServiced int64
}

// OnEnqueue is part of netsim.LinkAgent; neither agent needs anything
// at enqueue.
func (l *linkPrice) OnEnqueue(p *netsim.Packet) {}

// OnDequeue accumulates served bytes and stamps the price into data
// packets.
func (l *linkPrice) OnDequeue(p *netsim.Packet) {
	l.bytesServiced += int64(p.Size)
	if p.Kind != netsim.Data {
		return
	}
	p.PathPrice += l.price
	p.PathLen++
}

// DGD's Table 2 settings: the price update interval, and the gains a
// and b of Eq. 14 (price += a(y−C) + b·q). The gains are normalized so
// they work at any link speed: the applied step is
//
//	Δp = PriceRef · (DGDGainA·(y−C)/C + DGDGainB·q/BDPBytes)
//
// where PriceRef (NewDGDAgent's priceRef) is a per-experiment price
// scale (≈ the optimal price magnitude, set from the utility at a
// fair-share rate guess). Like the paper we swept the gain space and
// picked the fastest point that converges without oscillating across
// this repo's experiments.
const (
	DGDUpdateInterval = 16 * sim.Microsecond
	DGDGainA          = 0.05
	DGDGainB          = 0.015
)

// DGDAgent is the DGD switch link agent: the gradient price update of
// Eq. 14, p ← [p + a(y−C) + b·q]₊, run periodically. The queue term
// b·q (the paper's addition to the classic Eq. 4) controls standing
// queues.
type DGDAgent struct {
	linkPrice
	priceRef float64
	bdpBytes float64
}

// NewDGDAgent attaches DGD price computation to port: priceRef scales
// the dimensionless gains into price units (PriceRefFor), and baseRTT
// sizes the BDP that normalizes the queue term.
func NewDGDAgent(port *netsim.Port, priceRef float64, baseRTT sim.Duration) *DGDAgent {
	a := &DGDAgent{
		linkPrice: linkPrice{port: port},
		priceRef:  priceRef,
		bdpBytes:  port.Rate.Float() / 8 * baseRTT.Seconds(),
	}
	port.Agents = append(port.Agents, a)
	eng := port.Engine()
	eng.Every(eng.Now().Add(DGDUpdateInterval), DGDUpdateInterval, a.update)
	return a
}

func (a *DGDAgent) update() {
	c := a.port.Rate.Float()
	y := float64(a.bytesServiced) * 8 / DGDUpdateInterval.Seconds()
	q := float64(a.port.Q.Bytes())
	// Normalized Eq. 14: gains are dimensionless, priceRef carries the
	// price scale.
	delta := a.priceRef * (DGDGainA*(y-c)/c + DGDGainB*q/a.bdpBytes)
	a.price += delta
	if a.price < 0 {
		a.price = 0
	}
	a.bytesServiced = 0
}

// PriceRefFor computes a reference price scale for DGD: the marginal
// utility at a representative fair-share rate. Passing the utility a
// typical flow uses and the expected per-flow share keeps the
// dimensionless gains meaningful at any link speed, mirroring how the
// paper tuned a and b per workload.
func PriceRefFor(u core.Utility, fairShare float64) float64 {
	if fairShare <= 0 {
		fairShare = 1e9
	}
	return u.Marginal(fairShare)
}

var _ netsim.LinkAgent = (*DGDAgent)(nil)
var _ netsim.Sender = (*DGDSender)(nil)
