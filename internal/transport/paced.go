package transport

import (
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

// pacedSender is the shared machinery of the rate-based schemes (DGD
// and RCP*): transmit packets back-to-back at a controlled rate, with
// the paper's enhancement that unacknowledged bytes are capped at
// 2×BDP "to ensure flows are large enough to saturate the network yet
// restrict them from building up large queues" (§6, "Note on the
// implementation of DGD and RCP*").
type pacedSender struct {
	net  *netsim.Network
	flow *netsim.Flow

	rate     float64 // bits/second
	capBytes int64   // 2×BDP unacked-bytes cap
	timerArm bool
	blocked  bool // hit the unacked cap; resume on ACK
	minRate  float64
	lineRate float64

	// Pacing state: time and wire size of the last transmission.
	lastSend  sim.Time
	lastBytes int
}

func newPacedSender(net *netsim.Network, f *netsim.Flow, baseRTT sim.Duration) *pacedSender {
	nic := f.Path[0].Rate.Float()
	bdp := nic / 8 * baseRTT.Seconds()
	s := &pacedSender{
		net:      net,
		flow:     f,
		capBytes: int64(2 * bdp),
		// Classic RCP-style rate floor: one full packet per RTT, so a
		// throttled flow keeps probing at control-loop timescales and
		// can recover within an RTT of conditions improving.
		minRate:  float64(netsim.MTU*8) / baseRTT.Seconds(),
		lineRate: nic,
	}
	// Go-back-N safety net: rate-based senders overshoot before the
	// first price feedback (Eq. 3 demands infinite rate at zero
	// price), and the resulting drops would otherwise pin the flow at
	// its unacked-bytes cap forever.
	f.SetTimeout(20*baseRTT, func() {
		s.blocked = false
		s.sendLoop()
	})
	return s
}

// setRate updates the pacing rate (clamped to [minRate, lineRate]).
func (s *pacedSender) setRate(r float64) {
	if r < s.minRate {
		r = s.minRate
	}
	if r > s.lineRate {
		r = s.lineRate
	}
	s.rate = r
}

func (s *pacedSender) start() {
	if s.rate == 0 {
		s.rate = s.lineRate
	}
	s.sendLoop()
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
func (s *pacedSender) sendLoop() {
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
	now := s.net.Now()
	next := s.lastSend.Add(sim.Seconds(float64(s.lastBytes) * 8 / s.rate))
	if now < next {
		wake := next
		if cap := now.Add(maxPaceRecheck); wake > cap {
			wake = cap
		}
		s.timerArm = true
		s.net.Engine.Schedule(wake, func() {
			s.timerArm = false
			s.sendLoop()
		})
		return
	}
	s.lastSend = now
	s.lastBytes = f.SendNext(nil) + netsim.HeaderSize

	gap := sim.Seconds(float64(s.lastBytes) * 8 / s.rate)
	if gap > sim.Duration(maxPaceRecheck) {
		gap = maxPaceRecheck
	}
	s.timerArm = true
	s.net.Engine.After(gap, func() {
		s.timerArm = false
		s.sendLoop()
	})
}

// onAck unblocks a parked sender.
func (s *pacedSender) onAck() {
	f := s.flow
	if s.blocked && f.NextSeq-f.CumAcked < s.capBytes {
		s.blocked = false
		s.sendLoop()
	}
}
