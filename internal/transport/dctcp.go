package transport

import (
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

// DCTCPSender implements DCTCP: window-based congestion control that
// reacts to the *fraction* of ECN-marked packets. The switch side is
// just the ECN-marking FIFO in internal/queue. Figure 4b uses DCTCP to
// show that a deployed scheme's rates "are very noisy at timescales of
// 100s of microseconds" and essentially never converge.
type DCTCPSender struct {
	net    *netsim.Network
	flow   *netsim.Flow
	params DCTCPParams

	cwnd        float64 // bytes
	alpha       float64 // EWMA of marked fraction
	ackedBytes  int64   // bytes acked in the current observation window
	markedBytes int64
	windowEnd   int64 // Seq marking the end of the current cwnd round
	slowStart   bool
	retx        *retransmitter
}

// NewDCTCPSender attaches a DCTCP transport to f.
func NewDCTCPSender(net *netsim.Network, f *netsim.Flow, p DCTCPParams) *DCTCPSender {
	s := &DCTCPSender{
		net:       net,
		flow:      f,
		params:    p,
		cwnd:      float64(p.InitWindowPkts * netsim.MTU),
		slowStart: true,
	}
	s.retx = newRetransmitter(net, f, sim.Duration(10*float64(p.BaseRTT)), s.fill)
	f.Sender = s
	return s
}

// Start opens with the initial window.
func (s *DCTCPSender) Start() {
	s.fill()
	s.retx.arm()
}

// OnAck runs DCTCP's marked-fraction estimator and window law.
func (s *DCTCPSender) OnAck(p *netsim.Packet) {
	f := s.flow
	if p.Seq > f.CumAcked {
		f.CumAcked = p.Seq
		s.retx.progress()
	}
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
		g := s.params.G
		s.alpha = (1-g)*s.alpha + g*frac
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

func (s *DCTCPSender) fill() {
	f := s.flow
	for !f.Stopped &&
		(f.Size == 0 || f.NextSeq < f.Size) &&
		float64(f.NextSeq-f.CumAcked) < s.cwnd {
		payload := netsim.MSS
		if f.Size > 0 && f.Size-f.NextSeq < int64(payload) {
			payload = int(f.Size - f.NextSeq)
		}
		seq := f.NextSeq
		f.NextSeq += int64(payload)
		f.SendData(seq, payload, nil)
	}
}

var _ netsim.Sender = (*DCTCPSender)(nil)
