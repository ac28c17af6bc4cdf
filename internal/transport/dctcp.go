package transport

import (
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

// DCTCP's constants: the marked-fraction EWMA gain g = 1/16 of the
// DCTCP paper (Alizadeh et al., SIGCOMM 2010), and the slow-start
// initial window of 10 packets (RFC 6928).
const (
	dctcpG              = 1.0 / 16
	dctcpInitWindowPkts = 10
)

// DCTCPSender implements DCTCP: window-based congestion control that
// reacts to the *fraction* of ECN-marked packets. The switch side is
// just the ECN-marking FIFO in internal/queue. Figure 4b uses DCTCP to
// show that a deployed scheme's rates "are very noisy at timescales of
// 100s of microseconds" and essentially never converge.
type DCTCPSender struct {
	flow *netsim.Flow

	cwnd        float64 // bytes
	alpha       float64 // EWMA of marked fraction
	ackedBytes  int64   // bytes acked in the current observation window
	markedBytes int64
	windowEnd   int64 // Seq marking the end of the current cwnd round
	slowStart   bool
}

// NewDCTCPSender attaches a DCTCP transport to f; the retransmission
// timeout is 10 base RTTs, and restarts the window (see timeout).
func NewDCTCPSender(f *netsim.Flow, baseRTT sim.Duration) *DCTCPSender {
	s := &DCTCPSender{
		flow:      f,
		cwnd:      float64(dctcpInitWindowPkts * netsim.MTU),
		slowStart: true,
	}
	f.SetTimeout(sim.Duration(10*float64(baseRTT)), s.timeout)
	f.Sender = s
	return s
}

// Start opens with the initial window.
func (s *DCTCPSender) Start() { s.fill() }

// OnAck runs DCTCP's marked-fraction estimator and window law.
func (s *DCTCPSender) OnAck(p *netsim.Packet) {
	f := s.flow
	acked := int64(p.AckedBytes)
	s.ackedBytes += acked
	if p.EchoCE {
		s.markedBytes += acked
	}

	// Once per window of data: fold the observed mark fraction into
	// alpha and apply the DCTCP cut if any marks were seen.
	if f.CumAcked >= s.windowEnd {
		frac := 0.0
		if s.ackedBytes > 0 {
			frac = float64(s.markedBytes) / float64(s.ackedBytes)
		}
		s.alpha = (1-dctcpG)*s.alpha + dctcpG*frac
		if s.markedBytes > 0 {
			s.cwnd = s.cwnd * (1 - s.alpha/2)
			s.slowStart = false
		} else if s.slowStart {
			s.cwnd *= 2
		} else {
			s.cwnd += netsim.MTU // one MSS per RTT additive increase
		}
		if s.cwnd < netsim.MTU {
			s.cwnd = netsim.MTU
		}
		s.ackedBytes, s.markedBytes = 0, 0
		s.windowEnd = f.NextSeq
	}
	s.fill()
}

// timeout runs after the go-back-N rewind. It restarts from RFC 5681
// §3.1's loss window of one segment, which RFC 8257 §3.5 keeps for
// DCTCP, rather than resending a whole window into the queue that just
// overflowed, and it starts a new marked-fraction observation window.
func (s *DCTCPSender) timeout() {
	s.cwnd = netsim.MTU
	s.ackedBytes, s.markedBytes = 0, 0
	s.windowEnd = s.flow.NextSeq
	s.fill()
}

func (s *DCTCPSender) fill() {
	f := s.flow
	for f.Pending() && float64(f.NextSeq-f.CumAcked) < s.cwnd {
		f.SendNext(nil)
	}
}

var _ netsim.Sender = (*DCTCPSender)(nil)
