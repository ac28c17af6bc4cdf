package netsim_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"numfabric/internal/netsim"
	"numfabric/internal/queue"
	"numfabric/internal/sim"
)

// The delivery-order fingerprint pins the packet engine's hop path at
// the netsim level, the way golden_drivers_test.go pins it through the
// harness: FNV-64a over every (time, LinkID, flow, Seq, Kind) arrival
// of a small STFQ incast, in execution order. A packet reaching a node
// is visible from outside the package at exactly one place each — the
// next port's OnEnqueue when it is forwarded (or the DropHook when that
// port refuses it), the ACK the receiver enqueues when data is
// delivered, and Sender.OnAck when an ACK is delivered — so the observer
// hashes at those four, plus every dequeue (STFQ's service order and
// the transmitter's start times). The constant was generated at PR 21's
// parent commit, when every hop scheduled two closures; regenerate it
// only for a change that is *meant* to alter simulated results, and say
// so in CHANGES.md.

// deliveryObserver hashes what it is shown and tracks how many packets
// are on each wire (dequeued on the link, not yet arrived over it).
type deliveryObserver struct {
	net      *netsim.Network
	h        hash.Hash64
	arrivals int
	drops    int
	wire     map[int]int
	maxWire  int
}

func (o *deliveryObserver) word(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		o.h.Write(b[:])
	}
}

func (o *deliveryObserver) sum() string { return fmt.Sprintf("%016x", o.h.Sum64()) }

// arrived records one packet reaching the far end of link.
func (o *deliveryObserver) arrived(link *netsim.Port, f *netsim.Flow, seq int64, kind netsim.Kind) {
	o.arrivals++
	o.wire[link.LinkID]--
	o.word('A', int64(o.net.Now()), int64(link.LinkID), int64(f.ID), seq, int64(kind))
}

// portObserver is the LinkAgent half: one per port.
type portObserver struct {
	o    *deliveryObserver
	port *netsim.Port
}

func (a portObserver) OnEnqueue(p *netsim.Packet) {
	switch {
	case p.Hop > 0:
		a.o.arrived(p.Path[p.Hop-1], p.Flow, p.Seq, p.Kind)
	case p.Kind == netsim.Ack:
		// The receiver's reply to a data packet delivered this instant
		// over the last forward link; Seq − AckedBytes is that packet's
		// offset when it was in order.
		fwd := p.Flow.Path
		a.o.arrived(fwd[len(fwd)-1], p.Flow, p.Seq-int64(p.AckedBytes), netsim.Data)
		a.o.word(int64(p.EchoIPT))
	}
	a.o.word('E', int64(a.o.net.Now()), int64(a.port.LinkID), int64(p.Flow.ID), p.Seq, int64(p.Kind), int64(p.Size))
}

func (a portObserver) OnDequeue(p *netsim.Packet) {
	o := a.o
	o.wire[a.port.LinkID]++
	if o.wire[a.port.LinkID] > o.maxWire {
		o.maxWire = o.wire[a.port.LinkID]
	}
	o.word('D', int64(o.net.Now()), int64(a.port.LinkID), int64(p.Flow.ID), p.Seq, int64(p.Kind))
}

// clockedSender opens with a burst and then sends one segment per ACK
// until count packets are out. It never resends, so a flow sized count−2
// segments and a short tail ends in that tail and then one zero-payload
// fragment (Size == HeaderSize), sent at the end of the stream.
type clockedSender struct {
	o      *deliveryObserver
	flow   *netsim.Flow
	burst  int
	count  int
	sent   int
	weight float64
}

func (s *clockedSender) Start() {
	for i := 0; i < s.burst; i++ {
		s.sendNext()
	}
}

func (s *clockedSender) sendNext() {
	if s.sent >= s.count {
		return
	}
	s.sent++
	s.flow.SendNext(func(p *netsim.Packet) { p.VirtualLen = float64(p.Size) / s.weight })
}

func (s *clockedSender) OnAck(p *netsim.Packet) {
	s.o.arrived(p.Path[p.Hop], p.Flow, p.Seq, p.Kind)
	s.sendNext()
}

// runIncast plays four weighted senders into one receiver through one
// switch. Every link is 10 Gb/s with 20 µs of propagation (≈ 16 MTU
// transmission times), except the last host's: its 1.2 µs is exactly
// one MTU transmission, so a packet's arrival and its successor's
// serialisation-done fall on the same instant and only the order the
// port scheduled them in separates them. Every queue is STFQ; the
// switch's port to the receiver holds 12 kB, so part of the opening
// burst is dropped there.
func runIncast(t *testing.T) *deliveryObserver {
	t.Helper()
	eng := sim.NewEngine()
	net := netsim.NewNetwork(eng)
	o := &deliveryObserver{net: net, h: fnv.New64a(), wire: map[int]int{}}
	net.QueueFactory = func(p *netsim.Port) netsim.Queue {
		if p.Node.Name == "S" && p.Peer.Name == "R" {
			return queue.NewSTFQ(12_000)
		}
		return queue.NewSTFQ(1 << 20)
	}
	net.DropHook = func(p *netsim.Packet) {
		o.drops++
		// Refused by the port it was routed to: it did arrive.
		if p.Hop > 0 {
			o.arrived(p.Path[p.Hop-1], p.Flow, p.Seq, p.Kind)
		}
		o.word('X', int64(net.Now()), int64(p.Path[p.Hop].LinkID), int64(p.Flow.ID), p.Seq)
	}
	sw := net.NewNode("S")
	recv := net.NewNode("R")
	sr, _ := net.Connect(sw, recv, 10*sim.Gbps, 20*sim.Microsecond)
	const hosts = 4
	for i := 0; i < hosts; i++ {
		h := net.NewNode(fmt.Sprintf("H%d", i))
		delay := 20 * sim.Microsecond
		if i == hosts-1 {
			delay = (10 * sim.Gbps).TxTime(netsim.MTU)
		}
		hs, _ := net.Connect(h, sw, 10*sim.Gbps, delay)
		const count = 40
		tail := 100 + 37*i
		f := net.NewFlow([]int{hs.LinkID, sr.LinkID}, int64((count-2)*netsim.MSS+tail))
		f.Sender = &clockedSender{o: o, flow: f, burst: 12, count: count, weight: float64(1 + i)}
		// Hosts 0 and 1 start at the same instant, so their packets
		// reach the switch at the same instants from different ports.
		eng.Schedule(sim.Time(sim.Duration(i/2)*700*sim.Nanosecond), f.Start)
	}
	for _, l := range net.Links {
		l.Agents = append(l.Agents, portObserver{o, l})
	}
	eng.Run(sim.Forever)
	return o
}

func TestDeliveryOrderFingerprint(t *testing.T) {
	o := runIncast(t)
	const want, wantArrivals, wantDrops = "9daf5081a4df9ffc", 592, 16
	if got := o.sum(); got != want || o.arrivals != wantArrivals || o.drops != wantDrops {
		t.Errorf("fingerprint %s (%d arrivals, %d drops), want %s (%d arrivals, %d drops)",
			got, o.arrivals, o.drops, want, wantArrivals, wantDrops)
	}
	if o.maxWire < 8 {
		t.Errorf("at most %d packets on one wire, want ≥ 8 (Delay ≫ tx)", o.maxWire)
	}
	for link, n := range o.wire {
		if n != 0 {
			t.Errorf("link %d: %d packets dequeued but never arrived", link, n)
		}
	}
}
