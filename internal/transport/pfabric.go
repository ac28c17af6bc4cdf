package transport

import (
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

// pfabricRTOMultiple is the go-back-N timeout in base RTTs: the pFabric
// paper's small fixed timeout of about three RTTs.
const pfabricRTOMultiple = 3

// PFabricSender is the minimal pFabric host transport: send at a fixed
// window of one BDP with every packet stamped with the flow's
// remaining size as its priority, and recover from the (intentional)
// switch drops with a go-back-N timeout. pFabric's premise is that
// "rate control is minimal" because the switches enforce SRPT.
type PFabricSender struct {
	net    *netsim.Network
	flow   *netsim.Flow
	window int64
	retx   *retransmitter
}

// NewPFabricSender attaches a pFabric transport to f; baseRTT sizes its
// fixed BDP window and its timeout.
func NewPFabricSender(net *netsim.Network, f *netsim.Flow, baseRTT sim.Duration) *PFabricSender {
	nic := f.Path[0].Rate.Float()
	bdp := int64(nic / 8 * baseRTT.Seconds())
	s := &PFabricSender{net: net, flow: f, window: bdp}
	rto := sim.Duration(pfabricRTOMultiple * float64(baseRTT))
	s.retx = newRetransmitter(net, f, rto, s.fill)
	f.Sender = s
	return s
}

// Start opens a full BDP window (pFabric's "start at line rate").
func (s *PFabricSender) Start() {
	s.fill()
	s.retx.arm()
}

// OnAck advances the window.
func (s *PFabricSender) OnAck(p *netsim.Packet) {
	f := s.flow
	if p.Seq > f.CumAcked {
		f.CumAcked = p.Seq
	}
	s.fill()
}

func (s *PFabricSender) fill() {
	f := s.flow
	for !f.Stopped &&
		(f.Size == 0 || f.NextSeq < f.Size) &&
		f.NextSeq-f.CumAcked < s.window {
		payload := netsim.MSS
		if f.Size > 0 && f.Size-f.NextSeq < int64(payload) {
			payload = int(f.Size - f.NextSeq)
		}
		seq := f.NextSeq
		f.NextSeq += int64(payload)
		remaining := f.Remaining()
		f.SendData(seq, payload, func(p *netsim.Packet) {
			p.Priority = float64(remaining)
		})
	}
}

var _ netsim.Sender = (*PFabricSender)(nil)
