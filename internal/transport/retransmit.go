package transport

import (
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

// retransmitter implements go-back-N loss recovery: if no cumulative
// progress happens for one timeout while data is outstanding, the
// sender rewinds NextSeq to the cumulative ACK point and refills its
// window. Only pFabric drops packets by design; the other schemes keep
// it as a safety net.
type retransmitter struct {
	net    *netsim.Network
	flow   *netsim.Flow
	rto    sim.Duration
	refill func()
	// expireFn is r.expire, bound once so that re-arming the timer every
	// timeout allocates nothing.
	expireFn func()
	// lastSeen snapshots CumAcked at each tick; a flow is considered
	// stalled only if the snapshot is unchanged a full timeout later.
	lastSeen int64
	armed    bool
}

func newRetransmitter(net *netsim.Network, f *netsim.Flow, rto sim.Duration, refill func()) *retransmitter {
	r := &retransmitter{net: net, flow: f, rto: rto, refill: refill, lastSeen: -1}
	r.expireFn = r.expire
	return r
}

// arm starts the timeout loop.
func (r *retransmitter) arm() {
	if r.armed {
		return
	}
	r.armed = true
	r.lastSeen = -1
	r.tick()
}

func (r *retransmitter) tick() { r.net.Engine.After(r.rto, r.expireFn) }

// expire is one timeout: rewind if nothing was acknowledged since the
// last one, then re-arm while the flow lives.
func (r *retransmitter) expire() {
	f := r.flow
	if f.Done || f.Stopped {
		r.armed = false
		return
	}
	outstanding := f.NextSeq > f.CumAcked
	if outstanding && f.CumAcked == r.lastSeen {
		// No progress for a full timeout: rewind and resend.
		f.NextSeq = f.CumAcked
		r.refill()
	}
	r.lastSeen = f.CumAcked
	r.tick()
}
