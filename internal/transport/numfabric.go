package transport

import (
	"math"

	"numfabric/internal/core"
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
)

// Weight clamps, as fractions of the flow's NIC line rate. Weights
// are rate-valued (w = U'⁻¹(price)); at the xWI fixed point a flow's
// weight equals its optimal rate (§4.2), which can never exceed the
// line rate — so the line rate is the natural ceiling, and it makes
// the bootstrap weight of a brand-new flow (also the line rate) the
// top of the range rather than three decades below a transient
// overshoot. The floor keeps six decades of priority ratio, which
// makes "strict-priority-like" objectives (FCT minimization with its
// (p·s)^(-1/ε) weights) effectively strict while keeping STFQ
// arithmetic well conditioned. The floor is deliberately high enough
// (0.1% of line rate ≈ 10 Mb/s) that even a fully deprioritized flow
// keeps a trickle of ACKs flowing: price feedback stays fresh, so the
// moment a blocking competitor departs the flow ramps within an RTT
// instead of waiting for a retransmit-timer probe.
const (
	minWeightFrac = 1e-3
	maxWeightFrac = 1.0
)

// NUMFabricSender is the NUMFabric host (§5): Swift's packet-pair
// window rate control plus xWI's weight and residual computation.
//
//   - Swift: the receiver echoes inter-packet times; the sender turns
//     them into rate samples, smooths them with an EWMA (Table 2:
//     20 µs), and sets its window to Ȓ·(d0+dt) so the flow tracks the
//     rate its bottleneck WFQ scheduler gives it (§4.1).
//   - xWI: each ACK carries the path price; the sender sets the flow
//     weight w = U'⁻¹(pathPrice) (Eq. 7), stamps virtualPacketLen =
//     L/w on outgoing packets, and advertises its normalized residual
//     (U'(Ȓ) − pathPrice)/pathLen for the switches' price update
//     (Eq. 9).
type NUMFabricSender struct {
	net    *netsim.Network
	flow   *netsim.Flow
	u      core.Utility
	params NUMFabricParams

	// avail estimates the flow's WFQ entitlement from packet-pair
	// probe gaps; it sizes the window so the flow can always ramp to
	// the rate its bottleneck scheduler would grant it.
	avail     stats.EWMA
	haveAvail bool
	// achieved estimates the flow's realized throughput (bytes ACKed
	// over time); the xWI residual uses U'(achieved), which is what
	// drives the link prices to the KKT point of the actual rates.
	achieved      stats.EWMA
	haveAchieved  bool
	achievedBytes int64
	achievedSince sim.Time
	// resRate is a more heavily smoothed copy of achieved used for
	// the residual's U'(x) argument. The min-residual rule at the
	// switches (Eq. 9) is a minimum over noisy per-packet
	// advertisements, which biases the effective residual low by
	// roughly the noise amplitude; near a fixed point the true
	// residual can be smaller than the noise of a 20 µs estimate,
	// stalling convergence. Smoothing 4× harder shrinks that bias
	// without slowing the window control loop (which keeps using the
	// fast estimate).
	resRate stats.EWMA

	// rtt smooths measured round-trip samples for the window law.
	rtt     stats.EWMA
	haveRTT bool

	weight    float64
	pathPrice float64
	pathLen   int
	residual  float64 // normalized residual; +Inf until Ȓ exists

	// Multi-path (resource pooling): when part of an aggregate, the
	// weight from Eq. 7 is the aggregate's total weight from this
	// path's perspective; the sender scales it by its share of the
	// aggregate throughput (§6.3's heuristic).
	agg *Aggregate

	// OnRateSample, if set, observes every accepted packet-pair rate
	// sample (bits/second) — an instrumentation hook for experiments
	// and debugging.
	OnRateSample func(sample float64)

	// retx is a go-back-N safety net: NUMFabric provisions buffers so
	// drops do not happen in normal operation (§6), but transients can
	// still overflow a queue and a flow must not stall forever.
	retx *retransmitter
}

// NewNUMFabricSender attaches a NUMFabric transport to f with the flow
// utility u.
func NewNUMFabricSender(net *netsim.Network, f *netsim.Flow, u core.Utility, p NUMFabricParams) *NUMFabricSender {
	s := &NUMFabricSender{
		net:      net,
		flow:     f,
		u:        u,
		params:   p,
		avail:    *stats.NewEWMA(p.EWMATime),
		achieved: *stats.NewEWMA(p.EWMATime),
		resRate:  *stats.NewEWMA(4 * p.EWMATime),
		rtt:      *stats.NewEWMA(p.EWMATime),
		// Weights are rate-valued (w = U'⁻¹(price)); before any price
		// feedback a flow claims line rate. A too-small bootstrap
		// weight would give the initial burst huge STFQ virtual
		// lengths and bury it behind established flows indefinitely.
		weight:   f.Path[0].Rate.Float(),
		residual: math.Inf(1),
	}
	s.retx = newRetransmitter(net, f, 20*p.BaseRTT, s.reviveAndFill)
	f.Sender = s
	return s
}

// reviveAndFill runs on a go-back-N timeout. A starved flow is in a
// feedback deadlock: its clamped-low weight gives its queued packets
// enormous virtual lengths, so they are never served, so no ACKs
// arrive, so the weight never refreshes. Resetting the weight to the
// line-rate bootstrap value makes the retransmitted pair a price
// probe: it is scheduled promptly, returns fresh path prices, and the
// next ACK recomputes the proper weight. The probe traffic is bounded
// by one window per timeout.
func (s *NUMFabricSender) reviveAndFill() {
	s.weight = s.flow.Path[0].Rate.Float()
	s.fillWindow()
}

// SetUtility replaces the utility function (used by SRPT-style
// objectives that re-derive the utility as the flow drains).
func (s *NUMFabricSender) SetUtility(u core.Utility) { s.u = u }

// Utility returns the sender's current utility function.
func (s *NUMFabricSender) Utility() core.Utility { return s.u }

// Rate returns the achieved-throughput estimate in bits/second.
func (s *NUMFabricSender) Rate() float64 { return s.achieved.Value() }

// Weight returns the current xWI weight.
func (s *NUMFabricSender) Weight() float64 { return s.weight }

// PathPrice returns the most recent path price feedback.
func (s *NUMFabricSender) PathPrice() float64 { return s.pathPrice }

// Start sends the initial burst (§4.1: "the sender initially sends a
// small burst (e.g., 3 packets) into the network" so the receiver's
// inter-packet gaps reflect the bottleneck's available bandwidth).
func (s *NUMFabricSender) Start() {
	burst := s.params.InitialBurst
	if burst < 1 {
		burst = 1
	}
	if s.params.InitWindowBDP {
		nic := s.flow.Path[0].Rate
		bdp := int(nic.Float() / 8 * (s.params.BaseRTT).Seconds())
		if n := bdp / netsim.MSS; n > burst {
			burst = n
		}
	}
	for i := 0; i < burst && s.more(); i++ {
		// Every packet after the first travels back-to-back with its
		// predecessor, so it is a valid rate probe.
		s.sendOne(i > 0)
	}
	s.retx.arm()
}

// OnAck runs Swift's estimator and xWI's weight update, then fills the
// window.
func (s *NUMFabricSender) OnAck(p *netsim.Packet) {
	f := s.flow
	if p.Seq > f.CumAcked {
		f.CumAcked = p.Seq
		s.retx.progress()
	}

	now := s.net.Now()
	// Entitlement sample: bytesAcked / interPacketTime (§4.1), taken
	// from packet-pair probes only — the gap behind a back-to-back
	// companion measures the bottleneck WFQ's service rate for this
	// flow (its entitlement), whereas gaps between isolated packets
	// merely echo the sender's own pacing (packet-pair [34],
	// packet-train [13]). The first ACK carries no gap and is skipped,
	// as in the paper's three-way-handshake note.
	if (p.EchoPairProbe || s.params.DisablePairProbing) && p.EchoIPT > 0 && p.AckedBytes > 0 {
		sample := float64(p.AckedBytes+netsim.HeaderSize) * 8 / p.EchoIPT.Seconds()
		s.avail.Update(now, sample)
		s.haveAvail = true
		if s.OnRateSample != nil {
			s.OnRateSample(sample)
		}
	}

	// Achieved-throughput sample: ACKed wire bytes over elapsed time,
	// accumulated over at least a quarter EWMA period so individual
	// gaps do not alias.
	if p.AckedBytes > 0 {
		if s.achievedSince == 0 && s.achievedBytes == 0 {
			s.achievedSince = now
		}
		s.achievedBytes += int64(p.AckedBytes + netsim.HeaderSize)
		if span := now.Sub(s.achievedSince); span >= s.params.EWMATime/4 {
			sample := float64(s.achievedBytes) * 8 / span.Seconds()
			s.achieved.Update(now, sample)
			s.resRate.Update(now, sample)
			s.haveAchieved = true
			s.achievedBytes = 0
			s.achievedSince = now
		}
	}

	// RTT sample for the window law (SentAt is stamped at send and
	// echoed by the receiver).
	if rttSample := now.Sub(p.SentAt); rttSample > 0 {
		s.rtt.Update(now, rttSample.Seconds())
		s.haveRTT = true
	}

	// xWI weight update (Eq. 7).
	s.pathPrice = p.EchoPathPrice
	s.pathLen = p.EchoPathLen
	s.updateWeightAndResidual()

	s.fillWindow()
}

func (s *NUMFabricSender) updateWeightAndResidual() {
	if s.pathLen == 0 {
		return
	}
	w := s.u.InverseMarginal(s.pathPrice)
	if s.agg != nil {
		w *= s.agg.share(s)
	}
	nic := s.flow.Path[0].Rate.Float()
	s.weight = clampF(w, nic*minWeightFrac, nic*maxWeightFrac)
	if s.haveAchieved && s.achieved.Value() > 0 {
		// Floor the rate entering U' so a transiently stalled flow
		// (achieved ≈ 0) cannot spike U'(x) and blow up link prices.
		rate := s.aggregateRate()
		if floor := s.flow.Path[0].Rate.Float() * 1e-3; rate < floor {
			rate = floor
		}
		marg := s.u.Marginal(rate)
		res := (marg - s.pathPrice) / float64(s.pathLen)
		// Multipath KKT subtlety: at the optimum an INACTIVE subflow
		// satisfies U'(y) <= path price (an inequality), not equality.
		// Its negative residual must not drag the link price down
		// through the switches' min-residual rule (Eq. 9 is written
		// for single-path flows, where zero rate cannot happen at a
		// priced link). An idle, share-floored subflow therefore
		// advertises no residual; it resumes the moment its path price
		// drops below the aggregate's marginal utility.
		if s.agg != nil && res < 0 && s.agg.rawShare(s) < 1.5*shareFloor {
			res = math.Inf(1)
		}
		s.residual = res
	}
}

// aggregateRate returns the rate the utility applies to: the flow's
// own achieved throughput, or the aggregate's total under resource
// pooling (the Table 1 row-4 utility is of the total rate). The
// heavily smoothed resRate estimates are used; see that field's
// comment.
func (s *NUMFabricSender) aggregateRate() float64 {
	if s.agg == nil {
		return s.resRate.Value()
	}
	return s.agg.totalResRate()
}

// extraSlackPkts is a constant per-flow window addition beyond the
// §4.1 law. W = Ȓ(d0+dt) makes the parked-queue slack proportional to
// the flow's rate, which leaves slow flows with less than a packet of
// standing queue: on a path crossing other flows' standing queues the
// flow becomes window-bound below its WFQ entitlement. A few fixed
// packets are negligible for fast flows but buy a slow flow tens of
// microseconds of extra pipe, exactly where the shortfall bites.
const extraSlackPkts = 3

// window returns the Swift window W = Ȓ(d0+dt) in bytes (§4.1), plus
// the fixed extraSlackPkts allowance.
func (s *NUMFabricSender) window() int64 {
	minW := int64(s.params.MinWindow) * netsim.MTU
	if minW <= 0 {
		minW = 2 * netsim.MTU
	}
	if !s.haveAvail {
		return minW
	}
	// Pipe + slack: the slack is the paper's rate-proportional Ȓ·dt
	// (so the aggregate standing queue at a bottleneck is C·dt
	// regardless of flow count), floored at a few whole packets so
	// slow flows still park schedulable packets at their bottleneck.
	pipe := int64(s.avail.Value() / 8 * s.params.BaseRTT.Seconds())
	slack := int64(s.avail.Value() / 8 * s.params.DT.Seconds())
	if min := int64(extraSlackPkts * netsim.MTU); slack < min {
		slack = min
	}
	w := pipe + slack
	if w < minW {
		w = minW
	}
	return w
}

func (s *NUMFabricSender) more() bool {
	f := s.flow
	if f.Stopped {
		return false
	}
	return f.Size == 0 || f.NextSeq < f.Size
}

// fillWindow transmits in back-to-back pairs: pairs keep the receiver
// supplied with valid packet-pair rate probes even in ACK-clocked
// steady state, where single sends per ACK would never place two of
// the flow's packets at the bottleneck simultaneously (and the flow's
// entitlement would become unobservable).
func (s *NUMFabricSender) fillWindow() {
	f := s.flow
	w := s.window()
	for s.more() && f.NextSeq-f.CumAcked+2*netsim.MSS <= w {
		s.sendOne(false)
		if s.more() {
			s.sendOne(true)
		}
	}
	// Tail of a finite flow: send the final fragment alone.
	if s.more() && f.Size > 0 && f.Size-f.NextSeq <= int64(netsim.MSS) &&
		f.NextSeq-f.CumAcked+(f.Size-f.NextSeq) <= w {
		s.sendOne(false)
	}
}

func (s *NUMFabricSender) sendOne(probe bool) {
	f := s.flow
	payload := netsim.MSS
	if f.Size > 0 && f.Size-f.NextSeq < int64(payload) {
		payload = int(f.Size - f.NextSeq)
	}
	seq := f.NextSeq
	f.NextSeq += int64(payload)
	res := s.residual
	w := s.weight
	f.SendData(seq, payload, func(p *netsim.Packet) {
		p.VirtualLen = float64(p.Size) / w
		p.NormResidual = res
		p.PairProbe = probe
	})
}

// XWIAgent is the NUMFabric switch's per-link price computation,
// a faithful implementation of Figure 3:
//
//	enqueue:  minRes = min(minRes, pkt.normalizedResidual)
//	dequeue:  bytesServiced += len; pkt.pathPrice += price; pathLen++
//	timeout:  u = bytesServiced/(interval·capacity)
//	          newPrice = max(price + minRes − η(1−u)·price, 0)
//	          price = β·price + (1−β)·newPrice
//
// Price updates are synchronized across all links (the paper assumes
// PTP; the simulator's shared clock provides it).
type XWIAgent struct {
	port *netsim.Port

	Price  float64
	minRes float64
	// busy accumulates exact serialization time of transmitted
	// packets. Utilization is measured as busy/interval rather than
	// bytes/(rate·interval): the two differ by quantization (an
	// interval holds a non-integral number of packets), and Eq. 10
	// requires the underutilization term to be EXACTLY zero at
	// bottleneck links — a 2–3%% phantom deficit would let η(1−u)·p
	// balance small positive residuals and stall convergence.
	busy      sim.Duration
	eta, beta float64
	interval  sim.Duration

	// LastU and LastMinRes expose the previous interval's utilization
	// and minimum residual for observability.
	LastU      float64
	LastMinRes float64
	// uSmooth is a smoothed utilization estimate for the saturation
	// gate: one interval holds only a couple dozen packets, so raw
	// per-interval utilization quantizes coarsely.
	uSmooth float64
}

// NewXWIAgent attaches xWI price computation to port and schedules its
// synchronized periodic update.
func NewXWIAgent(net *netsim.Network, port *netsim.Port, p NUMFabricParams) *XWIAgent {
	a := &XWIAgent{
		port:     port,
		minRes:   math.Inf(1),
		eta:      p.Eta,
		beta:     p.Beta,
		interval: p.PriceUpdateInterval,
	}
	port.Agents = append(port.Agents, a)
	net.Engine.Every(net.Now().Add(p.PriceUpdateInterval), p.PriceUpdateInterval, a.update)
	return a
}

// OnEnqueue tracks the smallest normalized residual of the interval
// (data packets only, per Figure 3's "if p is DATA" guard).
func (a *XWIAgent) OnEnqueue(p *netsim.Packet) {
	if p.Kind == netsim.Data && p.NormResidual < a.minRes {
		a.minRes = p.NormResidual
	}
}

// OnDequeue stamps the link price into data packets. Every packet —
// ACKs included — contributes its serialization time to the busy
// accounting: ACK cross-traffic consumes real capacity, and ignoring
// it would make saturated links look idle and erode their price
// through the η(1−u) term.
func (a *XWIAgent) OnDequeue(p *netsim.Packet) {
	a.busy += a.port.Rate.TxTime(p.Size)
	if p.Kind != netsim.Data {
		return
	}
	p.PathPrice += a.Price
	p.PathLen++
}

func (a *XWIAgent) update() {
	u := a.busy.Seconds() / a.interval.Seconds()
	if a.port.Q.Len() > 0 {
		// Work is queued: the link is saturated regardless of what the
		// busy accounting says (windowed arrivals leave 1–2 packet
		// times of idle per interval even at a contested bottleneck,
		// and Eq. 10 requires the underutilization term to vanish
		// exactly there).
		u = 1
	}
	if u > 1 {
		u = 1
	}
	a.uSmooth = 0.5*a.uSmooth + 0.5*u
	a.LastU = u
	minRes := a.minRes
	if math.IsInf(minRes, 1) {
		// No data packets this interval: only the underutilization
		// term applies, decaying the price toward zero (Eq. 6's
		// complementary slackness for idle links).
		minRes = 0
	}
	if minRes > 0 && a.uSmooth < saturationThreshold {
		// Complementary slackness (Eq. 6): an unsaturated link must
		// carry zero price, so a positive residual may not pump it
		// up. Without this gate, a flow whose optimality residual is
		// persistently positive (e.g. one starving at a contested
		// downstream link) inflates the prices of its own idle access
		// links; the inflated path price suppresses its weight, which
		// sustains the starvation — a spurious second fixed point.
		// Negative residuals still apply: they only ever push the
		// price toward zero, which Eq. 6 permits everywhere.
		minRes = 0
	}
	a.LastMinRes = minRes
	newPrice := a.Price + minRes - a.eta*(1-u)*a.Price
	if newPrice < 0 {
		newPrice = 0
	}
	a.Price = a.beta*a.Price + (1-a.beta)*newPrice
	a.busy = 0
	a.minRes = math.Inf(1)
}

// saturationThreshold is the utilization above which a link is
// treated as a bottleneck for the purposes of the price update's
// residual term.
const saturationThreshold = 0.9

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
