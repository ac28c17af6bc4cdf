package transport

import (
	"math"

	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

// RCPSender is the RCP* host (§6): each link advertises a fair-share
// rate R_l; a packet accumulates Σ R_l^(-α) along its path, and the
// source sends at
//
//	x = (Σ_l R_l^(-α))^(-1/α)                    (Eq. 16)
//
// which equals min R_l as α→∞ (max-min, classic RCP) and implements
// α-fairness in general. Unacked bytes are capped at 2×BDP, as for
// DGD.
type RCPSender struct {
	*pacedSender
	alpha float64
}

// NewRCPSender attaches an RCP* transport for the α-fair objective
// alpha to f; baseRTT sizes the 2×BDP cap.
func NewRCPSender(net *netsim.Network, f *netsim.Flow, alpha float64, baseRTT sim.Duration) *RCPSender {
	s := &RCPSender{alpha: alpha}
	s.pacedSender = newPacedSender(net, f, baseRTT)
	f.Sender = s
	return s
}

// Start begins paced transmission at line rate until feedback arrives.
func (s *RCPSender) Start() { s.start() }

// OnAck applies Eq. 16 to the echoed Σ R^(-α).
func (s *RCPSender) OnAck(p *netsim.Packet) {
	s.onAck()
	if p.EchoRCPSum > 0 {
		s.setRate(math.Pow(p.EchoRCPSum, -1/s.alpha))
	}
}

// RCP*'s Table 2 settings: the rate update interval T and the gains a
// and b of Eq. 15.
const (
	RCPUpdateInterval = 16 * sim.Microsecond
	RCPGainA          = 0.4
	RCPGainB          = 0.2
)

// RCPAgent is the RCP* switch link agent: the advertised rate evolves
// per Eq. 15,
//
//	R ← R·(1 + (T/d)·(a(C−y) − b·q/d)/C)
//
// and each departing data packet accumulates R^(-α).
type RCPAgent struct {
	port *netsim.Port

	R             float64 // advertised fair rate, bits/second
	bytesServiced int64
	alpha         float64      // the α-fairness exponent of Eq. 16
	baseRTT       sim.Duration // d, the running-average RTT of Eq. 15
}

// NewRCPAgent attaches RCP* rate computation for objective alpha to
// port. R starts at the link capacity (the standard RCP
// initialization). Eq. 15's running-average RTT d is fixed to the
// fabric's baseRTT in simulation.
func NewRCPAgent(net *netsim.Network, port *netsim.Port, alpha float64, baseRTT sim.Duration) *RCPAgent {
	a := &RCPAgent{port: port, R: port.Rate.Float(), alpha: alpha, baseRTT: baseRTT}
	port.Agents = append(port.Agents, a)
	net.Engine.Every(net.Now().Add(RCPUpdateInterval), RCPUpdateInterval, a.update)
	return a
}

// OnEnqueue is part of netsim.LinkAgent; RCP* needs nothing at
// enqueue.
func (a *RCPAgent) OnEnqueue(p *netsim.Packet) {}

// OnDequeue accumulates served bytes (all packets — ACK load is real)
// and adds the R^(-α) term to data packets.
func (a *RCPAgent) OnDequeue(p *netsim.Packet) {
	a.bytesServiced += int64(p.Size)
	if p.Kind != netsim.Data {
		return
	}
	p.RCPSum += math.Pow(a.R, -a.alpha)
	p.PathLen++
}

func (a *RCPAgent) update() {
	c := a.port.Rate.Float()
	y := float64(a.bytesServiced) * 8 / RCPUpdateInterval.Seconds()
	q := float64(a.port.Q.Bytes()) * 8 // bits of backlog
	t := RCPUpdateInterval.Seconds()
	d := a.baseRTT.Seconds()
	grad := (RCPGainA*(c-y) - RCPGainB*q/d) / c
	a.R *= 1 + (t/d)*grad
	// Keep R in a sane band: a tiny floor prevents deadlock after deep
	// backlog. The ceiling sits far above capacity: on underutilized
	// links R must be free to grow until its R^(-α) term is negligible
	// in Eq. 16 (only bottleneck links should price the flow).
	if a.R < c/1e4 {
		a.R = c / 1e4
	}
	if a.R > 1e3*c {
		a.R = 1e3 * c
	}
	a.bytesServiced = 0
}

var _ netsim.LinkAgent = (*RCPAgent)(nil)
var _ netsim.Sender = (*RCPSender)(nil)
