package transport

import (
	"numfabric/internal/core"
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

// DGDSender is the idealized Dual Gradient Descent host of §6: "The
// sources calculate their sending rates from the network price
// (obtained from ACKs) according to Eq. 3. They then transmit at
// exactly this rate on a packet-by-packet basis", with unacked bytes
// capped at 2×BDP.
type DGDSender struct {
	*pacedSender
	u core.Utility
}

// NewDGDSender attaches a DGD transport with utility u to f; baseRTT
// sizes the 2×BDP cap.
func NewDGDSender(net *netsim.Network, f *netsim.Flow, u core.Utility, baseRTT sim.Duration) *DGDSender {
	s := &DGDSender{u: u}
	s.pacedSender = newPacedSender(net, f, baseRTT)
	f.Sender = s
	return s
}

// Start begins paced transmission (at line rate until the first price
// feedback arrives — with zero prices Eq. 3 demands infinite rate,
// clamped to the NIC).
func (s *DGDSender) Start() { s.start() }

// OnAck re-derives the rate from the path price (Eq. 3):
// x = U'⁻¹(Σ p_l).
func (s *DGDSender) OnAck(p *netsim.Packet) {
	s.onAck()
	if p.EchoPathLen > 0 {
		s.setRate(s.u.InverseMarginal(p.EchoPathPrice))
	}
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
	port *netsim.Port

	Price         float64
	bytesServiced int64
	priceRef      float64
	bdpBytes      float64
}

// NewDGDAgent attaches DGD price computation to port: priceRef scales
// the dimensionless gains into price units (PriceRefFor), and baseRTT
// sizes the BDP that normalizes the queue term.
func NewDGDAgent(net *netsim.Network, port *netsim.Port, priceRef float64, baseRTT sim.Duration) *DGDAgent {
	a := &DGDAgent{
		port:     port,
		priceRef: priceRef,
		bdpBytes: port.Rate.Float() / 8 * baseRTT.Seconds(),
	}
	port.Agents = append(port.Agents, a)
	net.Engine.Every(net.Now().Add(DGDUpdateInterval), DGDUpdateInterval, a.update)
	return a
}

// OnEnqueue is part of netsim.LinkAgent; DGD needs nothing at enqueue.
func (a *DGDAgent) OnEnqueue(p *netsim.Packet) {}

// OnDequeue accumulates served bytes (all packets — ACK load is real)
// and stamps the price into data packets.
func (a *DGDAgent) OnDequeue(p *netsim.Packet) {
	a.bytesServiced += int64(p.Size)
	if p.Kind != netsim.Data {
		return
	}
	p.PathPrice += a.Price
	p.PathLen++
}

func (a *DGDAgent) update() {
	c := a.port.Rate.Float()
	y := float64(a.bytesServiced) * 8 / DGDUpdateInterval.Seconds()
	q := float64(a.port.Q.Bytes())
	// Normalized Eq. 14: gains are dimensionless, priceRef carries the
	// price scale.
	delta := a.priceRef * (DGDGainA*(y-c)/c + DGDGainB*q/a.bdpBytes)
	a.Price += delta
	if a.Price < 0 {
		a.Price = 0
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
