package netsim

import (
	"fmt"

	"numfabric/internal/sim"
)

// Queue is a packet scheduler attached to an egress port. Enqueue may
// drop (returning the victims, which can include p itself under
// push-out policies like pFabric's); the returned slice may be the
// queue's own scratch, valid only until the next Enqueue, so a drop
// allocates nothing. Dequeue returns nil when empty.
type Queue interface {
	Enqueue(p *Packet) (dropped []*Packet)
	Dequeue() *Packet
	Len() int
	Bytes() int
}

// LinkAgent observes packets at an egress port to run a per-link
// control law: xWI price computation (Fig. 3), DGD prices, RCP* rate
// updates, or ECN marking. Agents see every packet (control packets
// included, so utilization accounting reflects the wire); they are
// responsible for restricting header updates to data packets.
type LinkAgent interface {
	// OnEnqueue runs when a packet is accepted into the queue.
	OnEnqueue(p *Packet)
	// OnDequeue runs when a packet begins transmission; the agent
	// typically stamps feedback fields here.
	OnDequeue(p *Packet)
}

// Node is a host or switch. Forwarding is source-routed: the packet
// carries its egress ports, so nodes need no routing tables and the
// Oracle sees exactly the routing matrix the simulator uses.
type Node struct {
	ID    int
	Name  string
	Ports []*Port

	net *Network
}

func (n *Node) String() string { return n.Name }

// Port is a directed egress: a queue, a transmitter of fixed rate, and
// the attached link's propagation delay. A bidirectional cable is two
// Ports, one on each node.
type Port struct {
	// LinkID is a network-unique index for this directed link; it is
	// the link index used in Oracle problems.
	LinkID int
	Node   *Node
	Peer   *Node
	Rate   sim.BitRate
	Delay  sim.Duration
	Q      Queue
	Agents []LinkAgent

	net *Network

	// txPkt is the packet being serialised (nil: transmitter idle).
	// wireHead..wireTail are the packets propagating to Peer, linked
	// through Packet.next in tx-done order, which Delay being constant
	// is their arrival order. A hop's two events are method values
	// bound once, in Connect, so forwarding a packet allocates nothing.
	txPkt              *Packet
	wireHead, wireTail *Packet
	txDoneFn, arriveFn func()

	// Counters.
	TxPackets uint64
	TxBytes   uint64
	Drops     uint64
}

func (p *Port) String() string {
	return fmt.Sprintf("%s->%s", p.Node.Name, p.Peer.Name)
}

// Send enqueues pkt for transmission on this port, starting the
// transmitter if idle.
func (p *Port) Send(pkt *Packet) {
	accepted := true
	for _, d := range p.Q.Enqueue(pkt) {
		accepted = accepted && d != pkt
		p.Drops++
		p.net.dropPacket(d)
	}
	if accepted {
		for _, a := range p.Agents {
			a.OnEnqueue(pkt)
		}
	}
	if p.txPkt == nil {
		p.startTx()
	}
}

func (p *Port) startTx() {
	pkt := p.Q.Dequeue()
	if pkt == nil {
		return
	}
	for _, a := range p.Agents {
		a.OnDequeue(pkt)
	}
	p.txPkt = pkt
	p.TxPackets++
	p.TxBytes += uint64(pkt.Size)
	p.net.Engine.After(p.Rate.TxTime(pkt.Size), p.txDoneFn)
}

// txDone runs when txPkt has been serialised. Store-and-forward: the
// packet arrives at the peer after the propagation delay.
func (p *Port) txDone() {
	pkt := p.txPkt
	p.txPkt = nil
	pkt.due = p.net.Now().Add(p.Delay)
	if p.wireTail == nil {
		p.wireHead = pkt
	} else {
		p.wireTail.next = pkt
	}
	p.wireTail = pkt
	p.net.Engine.Schedule(pkt.due, p.arriveFn)
	if p.Q.Len() > 0 {
		p.startTx()
	}
}

// arrive delivers the head of the wire. Arrival events carry no packet,
// so a Delay lowered while packets are in flight, which lets a later
// packet's event fire first, must not deliver the wrong one silently.
func (p *Port) arrive() {
	pkt := p.wireHead
	if now := p.net.Now(); pkt.due != now {
		panic(fmt.Sprintf("netsim: %v: packet due at %v arrives at %v (Port.Delay changed mid-run)", p, pkt.due, now))
	}
	if p.wireHead = pkt.next; p.wireHead == nil {
		p.wireTail = nil
	}
	pkt.next = nil
	p.net.arrive(p, pkt)
}
