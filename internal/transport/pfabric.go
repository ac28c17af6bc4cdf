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
	flow   *netsim.Flow
	window int64
}

// NewPFabricSender attaches a pFabric transport to f; baseRTT sizes its
// fixed BDP window and its timeout.
func NewPFabricSender(f *netsim.Flow, baseRTT sim.Duration) *PFabricSender {
	nic := f.Path[0].Rate.Float()
	bdp := int64(nic / 8 * baseRTT.Seconds())
	s := &PFabricSender{flow: f, window: bdp}
	f.SetTimeout(sim.Duration(pfabricRTOMultiple*float64(baseRTT)), s.fill)
	f.Sender = s
	return s
}

// Start opens a full BDP window (pFabric's "start at line rate").
func (s *PFabricSender) Start() { s.fill() }

// OnAck advances the window.
func (s *PFabricSender) OnAck(p *netsim.Packet) { s.fill() }

func (s *PFabricSender) fill() {
	f := s.flow
	for f.Pending() && f.NextSeq-f.CumAcked < s.window {
		f.SendNext(stampPriority)
	}
}

// stampPriority stamps a data packet with its flow's unacknowledged
// bytes, the priority pFabric's switches serve smallest first.
func stampPriority(p *netsim.Packet) { p.Priority = float64(p.Flow.Remaining()) }

var _ netsim.Sender = (*PFabricSender)(nil)
