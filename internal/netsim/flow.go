package netsim

import (
	"fmt"

	"numfabric/internal/sim"
	"numfabric/internal/stats"
)

// Sender is the host-side transport for one flow. Each scheme
// (NUMFabric/Swift, DGD, RCP*, DCTCP, pFabric) provides an
// implementation in internal/transport.
type Sender interface {
	// Start begins transmission (called at the flow's start time).
	Start()
	// OnAck processes receiver feedback. The packet is freed by the
	// framework after OnAck returns.
	OnAck(p *Packet)
}

// Flow is one transport connection from Src to Dst along a fixed
// source route. For resource pooling, each subflow is its own Flow
// (with its own path) and the transports coordinate across them.
type Flow struct {
	ID   int
	Src  *Node
	Dst  *Node
	Path []*Port // forward egress ports, Src NIC first
	Rev  []*Port // reverse path for ACKs, Dst NIC first

	// Size is the payload size in bytes; 0 means unbounded (runs until
	// stopped). FCT experiments use finite sizes.
	Size int64

	Sender Sender

	StartTime sim.Time
	EndTime   sim.Time
	Done      bool
	// Stopped tells the sender to cease transmitting (used by the
	// semi-dynamic workload's flow-stop events).
	Stopped bool
	// OnComplete, if set, fires when the receiver has the whole flow.
	OnComplete func(f *Flow)

	// Sender-side byte accounting, maintained by transports.
	NextSeq  int64 // next payload byte to send
	CumAcked int64 // cumulative in-order bytes acknowledged

	// Receiver-side state.
	RcvdBytes   int64 // cumulative in-order payload received
	expectedSeq int64
	lastArrival sim.Time
	haveArrival bool

	// Meter, if set by the harness, measures the receive rate with the
	// paper's 80 µs EWMA (§6.1).
	Meter *stats.RateMeter

	// Counters.
	Drops    uint64
	SentPkts uint64
	AckPkts  uint64

	net *Network
}

// NewFlow registers a flow over a forward path of directed-link ids,
// from the first link's node to the last link's peer. Its ACKs cross
// the same cables the other way: Connect numbers a cable's directions
// 2k and 2k+1, so link l's reverse is link l^1. Whether the links chain
// is checked as packets forward.
func (n *Network) NewFlow(path []int, size int64) *Flow {
	if size < 0 {
		panic(fmt.Sprintf("netsim: NewFlow: size = %d, want ≥ 0 (0 = unbounded)", size))
	}
	k := len(path)
	ports := make([]*Port, 2*k)
	fwd, rev := ports[:k:k], ports[k:]
	for i, l := range path {
		fwd[i], rev[k-1-i] = n.Links[l], n.Links[l^1]
	}
	f := &Flow{
		ID:   len(n.Flows),
		Src:  fwd[0].Node,
		Dst:  fwd[k-1].Peer,
		Path: fwd,
		Rev:  rev,
		Size: size,
		net:  n,
	}
	n.Flows = append(n.Flows, f)
	return f
}

// Start launches the flow's sender at the current simulation time.
func (f *Flow) Start() {
	f.StartTime = f.net.Now()
	if f.Sender == nil {
		panic("netsim: flow has no sender")
	}
	f.Sender.Start()
}

// Stop tells the sender to cease transmitting new data.
func (f *Flow) Stop() { f.Stopped = true }

// Remaining returns the payload bytes not yet sent (for pFabric
// priorities and SRPT utilities). Unbounded flows return a large
// sentinel.
func (f *Flow) Remaining() int64 {
	if f.Size == 0 {
		return 1 << 40
	}
	r := f.Size - f.CumAcked
	if r < 0 {
		r = 0
	}
	return r
}

// SendData builds and transmits one data packet with payload bytes
// [seq, seq+payload). setup, if non-nil, stamps scheme-specific header
// fields before the packet enters the NIC queue.
func (f *Flow) SendData(seq int64, payload int, setup func(p *Packet)) {
	p := f.net.allocPacket()
	p.Flow = f
	p.Kind = Data
	p.Seq = seq
	p.Size = payload + HeaderSize
	p.Path = f.Path
	p.Hop = 0
	p.SentAt = f.net.Now()
	if setup != nil {
		setup(p)
	}
	f.SentPkts++
	f.Path[0].Send(p)
}

// deliver handles a packet reaching its final node.
func (f *Flow) deliver(n *Network, node *Node, p *Packet) {
	switch p.Kind {
	case Data:
		if node != f.Dst {
			panic("netsim: data packet delivered to wrong node")
		}
		f.receiveData(n, p)
	case Ack:
		if node != f.Src {
			panic("netsim: ack delivered to wrong node")
		}
		f.AckPkts++
		if f.Sender != nil {
			f.Sender.OnAck(p)
		}
		n.freePacket(p)
	}
}

// receiveData runs the generic receiver of §5: measure the
// inter-packet time, advance the cumulative sequence, reflect the
// path price/length and the CE mark in an ACK, and detect completion.
func (f *Flow) receiveData(n *Network, p *Packet) {
	now := n.Now()
	var ipt sim.Duration
	if f.haveArrival {
		ipt = now.Sub(f.lastArrival)
	}
	f.lastArrival = now
	f.haveArrival = true

	payload := p.PayloadLen()
	acked := 0
	if p.Seq == f.expectedSeq {
		f.expectedSeq += int64(payload)
		f.RcvdBytes += int64(payload)
		acked = payload
	} else if p.Seq < f.expectedSeq {
		// Duplicate of already-received data (go-back-N retransmit);
		// re-acknowledge the cumulative point, credit no new bytes.
	}
	// Out-of-order (p.Seq > expected) packets are dropped by the
	// go-back-N receiver: the cumulative ACK makes the sender rewind.

	if f.Meter != nil {
		f.Meter.Observe(now, p.Size)
	}

	ack := n.allocPacket()
	ack.Flow = f
	ack.Kind = Ack
	ack.Size = AckSize
	ack.Seq = f.expectedSeq
	ack.Path = f.Rev
	ack.Hop = 0
	ack.AckedBytes = acked
	ack.EchoPathPrice = p.PathPrice
	ack.EchoPathLen = p.PathLen
	ack.EchoRCPSum = p.RCPSum
	ack.EchoIPT = ipt
	ack.EchoCE = p.CE
	ack.EchoPairProbe = p.PairProbe
	ack.SentAt = p.SentAt // preserved for sender RTT estimation
	n.freePacket(p)
	f.Rev[0].Send(ack)

	if f.Size > 0 && !f.Done && f.RcvdBytes >= f.Size {
		f.Done = true
		f.EndTime = now
		if f.OnComplete != nil {
			f.OnComplete(f)
		}
	}
}

// FCT returns the flow completion time (valid once Done).
func (f *Flow) FCT() sim.Duration { return f.EndTime.Sub(f.StartTime) }
