package netsim

import (
	"numfabric/internal/sim"
)

// Network owns the nodes, links and flows of one simulation.
type Network struct {
	Engine *sim.Engine
	Nodes  []*Node
	// Links lists every directed link (egress port) in LinkID order;
	// Oracle capacity vectors are built from this slice.
	Links []*Port
	Flows []*Flow

	// QueueFactory builds the scheduler for each new port. Set it
	// before calling Connect; the harness wires the scheme-appropriate
	// queue (STFQ for NUMFabric, drop-tail for DGD/RCP*, ECN for
	// DCTCP, pFabric's priority queue for pFabric).
	QueueFactory func(port *Port) Queue

	// DropHook, if set, is called for every dropped packet.
	DropHook func(p *Packet)

	pool []*Packet
}

// NewNetwork returns an empty network driven by eng.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{Engine: eng}
}

// NewNode adds a node.
func (n *Network) NewNode(name string) *Node {
	node := &Node{ID: len(n.Nodes), Name: name, net: n}
	n.Nodes = append(n.Nodes, node)
	return node
}

// Connect joins a and b with a full-duplex link of the given rate and
// one-way propagation delay, returning the two directed ports
// (a→b, b→a). The k-th cable's ports are links 2k and 2k+1, so each
// direction's reverse is its LinkID^1 (NewFlow relies on it). Queues
// come from QueueFactory.
func (n *Network) Connect(a, b *Node, rate sim.BitRate, delay sim.Duration) (ab, ba *Port) {
	mk := func(from, to *Node) *Port {
		p := &Port{
			LinkID: len(n.Links),
			Node:   from,
			Peer:   to,
			Rate:   rate,
			Delay:  delay,
			net:    n,
		}
		if n.QueueFactory == nil {
			panic("netsim: QueueFactory not set before Connect")
		}
		p.Q = n.QueueFactory(p)
		p.txDoneFn, p.arriveFn = p.txDone, p.arrive
		n.Links = append(n.Links, p)
		from.Ports = append(from.Ports, p)
		return p
	}
	return mk(a, b), mk(b, a)
}

// Capacities returns the per-directed-link capacity vector in
// bits/second, indexed by LinkID.
func (n *Network) Capacities() []float64 {
	out := make([]float64, len(n.Links))
	for i, l := range n.Links {
		out[i] = l.Rate.Float()
	}
	return out
}

// arrive delivers pkt at the node on the far side of port.
func (n *Network) arrive(port *Port, pkt *Packet) {
	dst := port.Peer
	if pkt.Hop == len(pkt.Path)-1 {
		// Final hop: deliver to the endpoint.
		pkt.Flow.deliver(n, dst, pkt)
		return
	}
	pkt.Hop++
	next := pkt.Path[pkt.Hop]
	if next.Node != dst {
		panic("netsim: source route does not match topology")
	}
	next.Send(pkt)
}

func (n *Network) dropPacket(p *Packet) {
	if n.DropHook != nil {
		n.DropHook(p)
	}
	if p.Flow != nil {
		p.Flow.Drops++
	}
	n.freePacket(p)
}

// allocPacket takes a packet from the pool (or allocates one).
func (n *Network) allocPacket() *Packet {
	if len(n.pool) == 0 {
		return &Packet{}
	}
	p := n.pool[len(n.pool)-1]
	n.pool = n.pool[:len(n.pool)-1]
	p.pooled = false
	return p
}

// freePacket returns a packet to the pool. Callers must not retain
// references after freeing; freeing one twice would hand the same
// header to two flows, so it panics.
func (n *Network) freePacket(p *Packet) {
	if p.pooled {
		panic("netsim: packet freed twice")
	}
	p.reset()
	p.pooled = true
	if len(n.pool) < 1<<16 {
		n.pool = append(n.pool, p)
	}
}

// Now returns the engine's current time.
func (n *Network) Now() sim.Time { return n.Engine.Now() }
