package transport

import (
	"math"

	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

// RCP*'s Table 2 settings: the rate update interval T and the gains a
// and b of Eq. 15.
const (
	RCPUpdateInterval = 16 * sim.Microsecond
	RCPGainA          = 0.4
	RCPGainB          = 0.2
)

// RCPAgent is the RCP* switch link agent (§6): each link advertises a
// fair-share rate R that evolves per Eq. 15,
//
//	R ← R·(1 + (T/d)·(a(C−y) − b·q/d)/C)
//
// and prices the link at R^(-α). A DGDSender with the α-fair utility
// then sends at Eq. 16's
//
//	x = (Σ_l R_l^(-α))^(-1/α)
//
// which equals min R_l as α→∞ (max-min, classic RCP) and implements
// α-fairness in general.
type RCPAgent struct {
	linkPrice
	R       float64      // advertised fair rate, bits/second
	alpha   float64      // the α-fairness exponent of Eq. 16
	baseRTT sim.Duration // d, the running-average RTT of Eq. 15
}

// NewRCPAgent attaches RCP* rate computation for objective alpha to
// port. R starts at the link capacity (the standard RCP
// initialization). Eq. 15's running-average RTT d is fixed to the
// fabric's baseRTT in simulation.
func NewRCPAgent(port *netsim.Port, alpha float64, baseRTT sim.Duration) *RCPAgent {
	a := &RCPAgent{linkPrice: linkPrice{port: port}, alpha: alpha, baseRTT: baseRTT}
	a.setR(port.Rate.Float())
	port.Agents = append(port.Agents, a)
	eng := port.Engine()
	eng.Every(eng.Now().Add(RCPUpdateInterval), RCPUpdateInterval, a.update)
	return a
}

// setR advertises the fair rate r and prices the link at r^(-α).
func (a *RCPAgent) setR(r float64) {
	a.R = r
	a.price = math.Pow(r, -a.alpha)
}

func (a *RCPAgent) update() {
	c := a.port.Rate.Float()
	y := float64(a.bytesServiced) * 8 / RCPUpdateInterval.Seconds()
	q := float64(a.port.Q.Bytes()) * 8 // bits of backlog
	t := RCPUpdateInterval.Seconds()
	d := a.baseRTT.Seconds()
	grad := (RCPGainA*(c-y) - RCPGainB*q/d) / c
	// Keep R in a sane band: a tiny floor prevents deadlock after deep
	// backlog. The ceiling sits far above capacity: on underutilized
	// links R must be free to grow until its R^(-α) term is negligible
	// in Eq. 16 (only bottleneck links should price the flow).
	a.setR(clampF(a.R*(1+(t/d)*grad), c/1e4, 1e3*c))
	a.bytesServiced = 0
}

var _ netsim.LinkAgent = (*RCPAgent)(nil)
